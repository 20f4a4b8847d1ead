"""Output checks made apart from the program.

Every check reads the program's artifacts and compares them with a value the
benchmark computes on its own from the generated inputs: the season CSV read
with the standard ``csv`` module, ``scipy.optimize.milp`` for the per-model
optimum, ``scipy.stats.kstest`` and direct counting for the contest
population, and a uniform-then-reject Monte Carlo for the random baseline.
Nothing here imports ``dfslineup``.

Each ``check_*`` function returns ``(ok, detail)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

SALARY_CAP = 50_000
LINEUP_SIZE = 9
# (RB, WR, TE) per flex configuration; QB and DST are always one each.
FLEX = ((2, 3, 2), (2, 4, 1), (3, 3, 1))
POSITIONS = ("QB", "RB", "WR", "TE", "DST")
MAX_COUNT = {"QB": 1, "RB": 3, "WR": 4, "TE": 2, "DST": 1}

# Artifacts whose bytes must not depend on anything but code, inputs and config.
ARTIFACTS = (
    "train_window.npz",
    "predict_window.npz",
    "eligibility.csv",
    "predictions.csv",
    "samples.npz",
    "lineup.csv",
    "lineup.json",
    "validation_report.json",
    "percentiles.csv",
    "histograms.csv",
    "boxplot.csv",
)

Z_LIMIT = 4.5  # standard errors allowed between program and Monte Carlo means
REL_TOL = 1e-9


class Season:
    """Target-week view of the season CSV: position, salary, fpts, draftable."""

    def __init__(self, path: Path, week: int):
        self.week = week
        self.rows: dict[str, tuple[str, int, float | None, bool]] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            for r in csv.DictReader(fh):
                if int(r["week"]) != week:
                    continue
                fpts = float(r["fpts"]) if r["fpts"].strip() else None
                self.rows[r["player_id"]] = (
                    r["position"], int(r["salary"]), fpts, r["draftable"] == "1"
                )

    def pool(self):
        """Draftable players with positive actual FPTS: the random-lineup pool."""
        return {
            pid: row for pid, row in self.rows.items()
            if row[3] and row[2] is not None and row[2] > 0
        }


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_lineup(out: Path, season: Season):
    """9 distinct draftable players, counts of one flex config, salary <= cap."""
    info = _load_json(out / "lineup.json")
    players = info["players"]
    if len(set(players)) != LINEUP_SIZE:
        return False, f"{len(set(players))} distinct players"
    rows = [season.rows.get(pid) for pid in players]
    if any(r is None or not r[3] for r in rows):
        return False, "lineup holds a player not draftable in the target week"
    counts = {p: sum(r[0] == p for r in rows) for p in POSITIONS}
    flex = (counts["RB"], counts["WR"], counts["TE"])
    if counts["QB"] != 1 or counts["DST"] != 1 or flex not in FLEX:
        return False, f"position counts {counts}"
    if tuple(info["flex_config"]) != flex:
        return False, f"flex_config {info['flex_config']} but counts give {flex}"
    salary = sum(r[1] for r in rows)
    if salary > SALARY_CAP or salary != info["total_salary"]:
        return False, f"salary {salary} (reported {info['total_salary']})"
    return True, f"salary {salary}, flex {flex}"


def check_actuals(out: Path, season: Season):
    """actual_fpts is the CSV sum, or invalid_week names the missing players."""
    players = _load_json(out / "lineup.json")["players"]
    report = _load_json(out / "validation_report.json")
    missing = sorted(pid for pid in players if season.rows[pid][2] is None)
    if missing:
        ok = report.get("status") == "invalid_week" and report.get("missing_actuals") == missing
        return ok, f"invalid_week, missing {missing}"
    expected = math.fsum(season.rows[pid][2] for pid in players)
    ok = report.get("status") == "valid" and _close(report["actual_fpts"], expected)
    return ok, f"actual {report.get('actual_fpts')} vs {expected}"


def _prune(values, salary, position):
    """Drop players with at least MAX_COUNT strict dominators in their position.

    A dominator costs no more and scores strictly more, so swapping it in
    improves any lineup holding the dominated player: such a player is in
    no optimal lineup, and the optimum over the rest is the same.
    """
    keep = np.zeros(len(values), dtype=bool)
    for pos, k in MAX_COUNT.items():
        g = np.flatnonzero(position == pos)
        dom = (salary[g][:, None] <= salary[g][None, :]) & (values[g][:, None] > values[g][None, :])
        keep[g[dom.sum(axis=0) < k]] = True
    return np.flatnonzero(keep)


def milp_optimum(values, salary, position) -> float:
    """Best lineup value over the three flex configs, by scipy's MILP (gap 0)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    g = _prune(values, salary, position)
    pos = position[g]
    a = np.vstack(
        [salary[g], pos == "QB", pos == "DST", pos == "RB", pos == "WR", pos == "TE", np.ones(len(g))]
    ).astype(np.float64)
    lo = [-np.inf, 1, 1, 2, 3, 1, LINEUP_SIZE]
    hi = [SALARY_CAP, 1, 1, 3, 4, 2, LINEUP_SIZE]
    res = milp(
        -values[g],
        constraints=LinearConstraint(a, lo, hi),
        integrality=np.ones(len(g)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return -float(res.fun)


def check_modal_optimum(out: Path, season: Season, n_models: int, oracles: dict | None = None):
    """modal_count equals the sample rows where the modal lineup is MILP-optimal,
    and samples.npz holds one row per configured model.

    ``oracles`` keeps the per-row optima by (week, samples.npz digest), so a
    later round with byte-identical samples reuses them.
    """
    info = _load_json(out / "lineup.json")
    with np.load(out / "samples.npz") as blob:
        ids = [str(p) for p in blob["player_ids"]]
        samples = blob["samples"]
    rows = [season.rows.get(pid) for pid in ids]
    if any(r is None or not r[3] for r in rows):
        return False, "candidate pool holds a player not draftable in the target week"
    salary = np.array([r[1] for r in rows], dtype=np.float64)
    position = np.array([r[0] for r in rows])
    col = {pid: j for j, pid in enumerate(ids)}
    modal_cols = [col[pid] for pid in info["players"]]
    key = ("milp", season.week, hashlib.sha256((out / "samples.npz").read_bytes()).hexdigest())
    optima = oracles.get(key) if oracles is not None else None
    if optima is None:
        optima = [milp_optimum(samples[m], salary, position) for m in range(samples.shape[0])]
        if oracles is not None:
            oracles[key] = optima
    attained = 0
    for m, best in enumerate(optima):
        modal = math.fsum(samples[m, modal_cols])
        if modal >= best - 1e-7 * max(1.0, abs(best)):
            attained += 1
    ok = attained == info["modal_count"] and samples.shape[0] == info["n_models"] == n_models
    return ok, (
        f"modal optimal in {attained} of {samples.shape[0]} rows ({n_models} models configured), "
        f"modal_count {info['modal_count']}"
    )


def uniform_band_sample(pool: dict, min_salary: int, n_accept: int, seed: int):
    """Uniform-then-reject lineups in [min_salary, cap]: flex config uniform
    among the three, then players uniform without replacement per position.

    Returns (accepted FPTS totals, attempts).
    """
    rng = np.random.default_rng(seed)
    by_pos = {}
    for pos in POSITIONS:
        members = [row for row in pool.values() if row[0] == pos]
        if len(members) < MAX_COUNT[pos]:
            raise ValueError(f"pool has {len(members)} {pos}, sampler needs {MAX_COUNT[pos]}")
        by_pos[pos] = (
            np.array([m[1] for m in members], dtype=np.float64),
            np.array([m[2] for m in members], dtype=np.float64),
        )
    need = np.array([[1, rb, wr, te, 1] for rb, wr, te in FLEX])
    totals, attempts, batch = [], 0, 50_000
    while sum(len(t) for t in totals) < n_accept:
        attempts += batch
        config = rng.integers(0, len(FLEX), size=batch)
        salary = np.zeros(batch)
        fpts = np.zeros(batch)
        for p, pos in enumerate(POSITIONS):
            sal, pts = by_pos[pos]
            k = MAX_COUNT[pos]
            idx = rng.integers(0, len(sal), size=(batch, k))
            while True:  # redraw rows with a repeated player: uniform distinct tuples
                srt = np.sort(idx, axis=1)
                dup = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1)) if k > 1 else []
                if len(dup) == 0:
                    break
                idx[dup] = rng.integers(0, len(sal), size=(len(dup), k))
            take = np.arange(k)[None, :] < need[config, p][:, None]
            salary += (sal[idx] * take).sum(axis=1)
            fpts += (pts[idx] * take).sum(axis=1)
        ok = (salary >= min_salary) & (salary <= SALARY_CAP)
        totals.append(fpts[ok])
    return np.concatenate(totals), attempts


def check_random_mean(
    out: Path, season: Season, min_salary: int, count: int, mc_draws: int, seed: int,
    oracles: dict | None = None,
):
    """Random population mean within Z_LIMIT standard errors of own Monte Carlo.

    ``oracles`` keeps the Monte Carlo sample by week, band, size and seed.
    """
    report = _load_json(out / "validation_report.json")
    if report.get("status") == "invalid_week":
        ok = "random" not in report and not (out / "percentiles.csv").exists()
        return ok, "invalid week writes no random population"
    key = ("mc", season.week, min_salary, mc_draws, seed)
    cached = oracles.get(key) if oracles is not None else None
    mc, attempts = cached or uniform_band_sample(season.pool(), min_salary, mc_draws, seed)
    if oracles is not None:
        oracles[key] = (mc, attempts)
    got = report["random"]["mean_fpts"]
    se = math.sqrt(mc.var(ddof=1) * (1.0 / count + 1.0 / len(mc)))
    z = abs(got - float(mc.mean())) / se
    ok = z <= Z_LIMIT and report["random"]["n"] == count
    return ok, (
        f"program {got:.3f} vs Monte Carlo {mc.mean():.3f} ({len(mc)} of {attempts} "
        f"accepted), z={z:.2f}"
    )


def check_real_world(out: Path, contest_csv: Path):
    """Contest n, mid-rank percentile and KS statistic by counting and scipy."""
    from scipy.stats import kstest

    report = _load_json(out / "validation_report.json")
    with open(contest_csv, newline="", encoding="utf-8") as fh:
        scores = np.array([float(r["fpts"]) for r in csv.DictReader(fh)])
    scores = scores[scores != 0.0]
    real = report["real_world"]
    score = report["actual_fpts"]
    below = int(np.count_nonzero(scores < score))
    equal = int(np.count_nonzero(scores == score))
    perc = 100.0 * (below + 0.5 * equal) / len(scores)
    ks = kstest(scores, "norm", args=(scores.mean(), scores.std(ddof=1))).statistic
    ok = (
        real["n"] == len(scores)
        and _close(real["percentile"], perc)
        and abs(real["ks_statistic"] - ks) <= 1e-9
    )
    return ok, f"n {real['n']}, percentile {real['percentile']:.4f} vs {perc:.4f}, KS {real['ks_statistic']:.6f} vs {ks:.6f}"


def check_histograms(out: Path, n_models: int):
    """Each lineup player's bins sum to the configured n_models and match a direct recount."""
    report = _load_json(out / "validation_report.json")
    if report.get("status") == "invalid_week":
        return not (out / "histograms.csv").exists(), "invalid week writes no histograms"
    info = _load_json(out / "lineup.json")
    with np.load(out / "samples.npz") as blob:
        col = {str(p): j for j, p in enumerate(blob["player_ids"])}
        samples = blob["samples"]
    bins: dict[str, list] = {}
    with open(out / "histograms.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            bins.setdefault(r["player_id"], []).append(
                (float(r["bin_low"]), float(r["bin_high"]), int(r["count"]))
            )
    if sorted(bins) != sorted(info["players"]):
        return False, "histogram players differ from the lineup"
    for pid, rows in bins.items():
        x = samples[:, col[pid]]
        if sum(c for _, _, c in rows) != n_models:
            return False, f"{pid}: counts sum to {sum(c for _, _, c in rows)}"
        for i, (lo, hi, c) in enumerate(rows):
            last = i == len(rows) - 1
            direct = int(np.count_nonzero((x >= lo) & ((x <= hi) if last else (x < hi))))
            if direct != c:
                return False, f"{pid} bin [{lo}, {hi}): {c} vs direct {direct}"
    return True, f"{len(bins)} players, {n_models} models each"


def artifact_hashes(out: Path) -> dict:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (out / name).exists()
    }

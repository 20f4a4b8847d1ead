"""File-based pipeline stages: ingest -> predict -> optimize -> validate -> report.

Each stage reads the previous stage's artifacts from the output directory
(``_read_npz``, ``report._read_json``) and writes its own through the
temp-file-then-rename helpers.  Every CSV artifact goes through
``_write_csv``, the one place that turns a float into text: repr(), which
keeps reruns byte-identical.  ``report`` holds the last stage, which needs
no numpy; it is re-exported here so every stage is ``pipeline.cmd_<stage>``.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import Counter
from itertools import repeat
from pathlib import Path

import numpy as np

from . import stats
from .config import RunConfig
from .data import WindowDataset, build_window, load_exclusions, load_player_weeks
from .ensemble import (
    lineup_prediction_interval,
    predict_distribution,
    sample_matrix,
    train_ensemble,
)
from .errors import UnservableWeekError
from .optimizer import Pool, assign_slots, blocks, modal_lineup, optimize_all_flex, shortfalls
from .optimizer import FLEX_CONFIGS, lineup_total
from .report import (  # noqa: F401  cmd_report: re-exported
    BOXPLOT,
    ELIGIBILITY,
    HISTOGRAMS,
    LINEUP_CSV,
    LINEUP_JSON,
    PERCENTILES,
    PREDICT_WINDOW,
    PREDICTIONS,
    SAMPLES,
    SEASON,
    TRAIN_WINDOW,
    VALIDATION_JSON,
    _out,
    _read_json,
    _require,
    _write_json,
    _write_text,
    cmd_report,
)
from .seeds import mix64

# CPython's own sha256.  cli.main blocks _hashlib before it imports this
# module, so hashlib would load every builtin digest module instead, and
# ingest and validate, which hash the season, would hold them all.  A build
# without these modules reaches hashlib, and cli.main has then left OpenSSL
# to serve it.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

BOXPLOT_COLUMNS = ("q1", "median", "q3", "whisker_low", "whisker_high", "mean", "n")

# Salts that derive the validate stage's seeds from master_seed.
RANDOM_SALT = 0xBA5E
BOOTSTRAP_SALT = 0xB007


def _write_npz(path: Path, **arrays) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


def _read_npz(cfg: RunConfig, name: str, stage: str, *keys: str) -> dict:
    """The named arrays of artifact ``name`` by name; ``stage`` writes it.
    Only those arrays are read from the file."""
    with np.load(_require(_out(cfg, name), stage)) as blob:
        return {key: blob[key] for key in keys}


def _write_csv(path: Path, header: str, rows) -> None:
    """A header line, then one CSV line per row, a cell quoted when it holds
    a comma or a quote.  A float cell (Python or numpy) is written as
    repr(float(x)), any other as str(x)."""
    buf = io.StringIO()
    buf.write(header + "\n")
    csv.writer(buf, lineterminator="\n").writerows(
        [repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row]
        for row in rows
    )
    _write_text(path, buf.getvalue())


# Bytes per read when hashing a file, so the file is never held whole.
HASH_CHUNK = 1 << 16


def _sha256(path) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------- ingest


def _check_servable(week: int, train_w: WindowDataset, pred_w: WindowDataset, pool) -> None:
    """UnservableWeekError naming the week unless training has at least 2
    rows and the prediction pool (``pool``: its positions) is non-empty and
    fills at least one flex configuration, as the solver and the random
    sampler require."""
    if len(train_w) < 2:
        raise UnservableWeekError(
            f"week {week}: training window {train_w.window_index} has "
            f"{len(train_w)} eligible player(s); training needs at least 2"
        )
    if not pool:
        raise UnservableWeekError(
            f"week {week}: prediction window {pred_w.window_index} has no "
            f"eligible player that is not excluded"
        )
    short = shortfalls(Counter(pool))
    if all(short):
        raise UnservableWeekError(
            f"week {week}: the draftable pool fills no flex configuration: "
            + "; ".join(f"{config}: {', '.join(s)}" for config, s in zip(FLEX_CONFIGS, short))
        )


def cmd_ingest(cfg: RunConfig) -> None:
    """Build the training and prediction windows for the target week, and
    keep the week's columns that validate reads in season.npz."""
    # Hashed before the parse, so a later edit of the file misses the cache.
    season_sha256 = _sha256(cfg.players_csv)
    table = load_player_weeks(cfg.players_csv)
    excluded = (
        load_exclusions(cfg.exclusions_file, table.player_ids()) if cfg.exclusions_file else set()
    )
    train_w = build_window(table, cfg.target_week - 4, "train")
    pred_w = build_window(table, cfg.target_week - 3, "predict")

    keep = [i for i, pid in enumerate(pred_w.player_ids) if pid not in excluded]
    pred_ids = [pred_w.player_ids[i] for i in keep]
    pred_feats = pred_w.features[keep]
    target = table.at_week(cfg.target_week, pred_ids)
    _check_servable(cfg.target_week, train_w, pred_w, target["position"])

    _write_npz(
        _out(cfg, TRAIN_WINDOW),
        features=train_w.features,
        targets=train_w.targets,
    )
    _write_npz(
        _out(cfg, PREDICT_WINDOW),
        player_ids=np.array(pred_ids),
        features=pred_feats,
        salary=target["salary"],
        position=np.array(target["position"]),
    )
    flags = (set(train_w.player_ids), set(pred_w.player_ids), excluded)
    _write_csv(
        _out(cfg, ELIGIBILITY),
        "player_id,eligible_train,eligible_predict,excluded",
        ((pid, *(int(pid in ids) for ids in flags)) for pid in table.player_ids()),
    )
    week = table.at_week(cfg.target_week)
    _write_npz(
        _out(cfg, SEASON),
        sha256=np.array(season_sha256),
        target_week=np.array(cfg.target_week),
        player_ids=np.array(table.player_ids()),
        position=np.array(week["position"]),
        salary=week["salary"],
        fpts=week["fpts"],
        draftable=week["draftable"],
    )


# --------------------------------------------------------------- predict


def cmd_predict(cfg: RunConfig) -> None:
    """Train the ensemble and export per-player prediction distributions."""
    train = _read_npz(cfg, TRAIN_WINDOW, "ingest", "features", "targets")
    pred = _read_npz(cfg, PREDICT_WINDOW, "ingest", "player_ids", "features", "salary", "position")
    ensemble = train_ensemble(
        train["features"], train["targets"], cfg.n_models, cfg.master_seed,
        cfg.training, workers=cfg.workers,
    )
    samples = sample_matrix(ensemble, pred["features"])
    mean, ci_low, ci_high = predict_distribution(samples, level=cfg.report.ci_level)

    _write_csv(
        _out(cfg, PREDICTIONS),
        "player_id,position,salary,mean_fpts,ci_low,ci_high",
        zip(pred["player_ids"], pred["position"], pred["salary"], mean, ci_low, ci_high),
    )
    _write_npz(
        _out(cfg, SAMPLES),
        player_ids=pred["player_ids"],
        samples=samples,
        salary=pred["salary"],
        position=pred["position"],
    )


# -------------------------------------------------------------- optimize


def cmd_optimize(cfg: RunConfig) -> None:
    """Solve every model's lineup and export the modal lineup with its interval."""
    blob = _read_npz(cfg, SAMPLES, "predict", "player_ids", "samples", "salary", "position")
    ids, samples, salary = blob["player_ids"].tolist(), blob["samples"], blob["salary"]
    position = blob["position"].tolist()
    pool = Pool(ids, position, salary, cfg.salary_cap)
    # Each block's tables are built once; optimize_all_flex reads one row back.
    lineups = []
    for tables in blocks(pool, samples):
        lineups += [optimize_all_flex(tables, r) for r in range(len(tables.fpts))]
        del tables  # so that the next block is built after this one is freed
    modal = modal_lineup(lineups)
    modal_count = sum(1 for lu in lineups if lu.players == modal.players)

    by_id = {pid: j for j, pid in enumerate(ids)}
    cols = [by_id[pid] for pid in modal.players]
    mean_total, ci_low, ci_high = lineup_prediction_interval(
        samples[:, cols], level=cfg.report.ci_level
    )
    # Slots follow the FPTS row of the first model whose optimum is the
    # modal lineup: modal_lineup returns that model's Lineup.
    fpts = samples[lineups.index(modal), cols]
    slots = assign_slots(modal.players, [position[j] for j in cols], fpts, modal.flex_config)

    rows, total_salary = [], 0
    for slot, pid in slots:
        j = by_id[pid]
        total_salary += int(salary[j])
        rows.append((slot, pid, position[j], int(salary[j]), samples[:, j].mean(), ""))
    rows.append(("TOTAL", "", "", total_salary, mean_total, ""))
    _write_csv(
        _out(cfg, LINEUP_CSV),
        "slot,player_id,position,salary,predicted_fpts,actual_fpts",
        rows,
    )
    _write_json(
        _out(cfg, LINEUP_JSON),
        {
            "players": list(modal.players),
            "slots": [list(s) for s in slots],
            "flex_config": list(modal.flex_config),
            "total_salary": total_salary,
            "modal_count": modal_count,
            "n_models": int(samples.shape[0]),
            "predicted_mean": mean_total,
            "ci_low": ci_low,
            "ci_high": ci_high,
            "ci_level": cfg.report.ci_level,
        },
    )


# -------------------------------------------------------------- validate


def _target_week(cfg: RunConfig):
    """(player ids, the target week's columns) of the season CSV.  They come
    from ingest's season.npz when its sha256 and target week still match;
    otherwise the CSV is parsed again, since actual FPTS may arrive after
    ingest."""
    if _out(cfg, SEASON).exists():
        blob = _read_npz(
            cfg, SEASON, "ingest",
            "target_week", "sha256", "player_ids", "position", "salary", "fpts", "draftable",
        )
        if (
            int(blob["target_week"]) == cfg.target_week
            and str(blob["sha256"]) == _sha256(cfg.players_csv)
        ):
            return blob["player_ids"].tolist(), blob
    table = load_player_weeks(cfg.players_csv)
    return table.player_ids(), table.at_week(cfg.target_week)


def cmd_validate(cfg: RunConfig) -> None:
    """Compare the generated lineup to random (and real-world) populations."""
    lineup_info = _read_json(cfg, LINEUP_JSON, "optimize")
    blob = _read_npz(cfg, SAMPLES, "predict", "player_ids", "samples")
    week = cfg.target_week
    player_ids, target = _target_week(cfg)

    fpts_by_id = dict(zip(player_ids, target["fpts"].tolist()))
    actuals = {
        pid: fpts_by_id[pid]
        for pid in lineup_info["players"]
        if not math.isnan(fpts_by_id.get(pid, math.nan))
    }
    missing = sorted(set(lineup_info["players"]) - set(actuals))
    if missing:
        _write_json(
            _out(cfg, VALIDATION_JSON),
            {
                "status": "invalid_week",
                "week": week,
                "missing_actuals": missing,
                "reason": "drafted player(s) without actual FPTS for the week",
            },
        )
        return

    score = lineup_total(actuals[pid] for pid in lineup_info["players"])

    # The histograms come first: a bin width that would give a player too
    # many bins stops the stage before the random population is drawn.
    column = {pid: j for j, pid in enumerate(blob["player_ids"].tolist())}
    hist_rows = []
    for pid in lineup_info["players"]:
        edges, counts = stats.histogram_bins(
            blob["samples"][:, column[pid]], cfg.report.histogram_bin_width
        )
        hist_rows += zip(repeat(pid), edges[:-1], edges[1:], counts, repeat(actuals[pid]))

    pool_rows = np.flatnonzero(target["draftable"] & (target["fpts"] > 0))
    rb = cfg.random_baseline
    populations = {"random": stats.random_population(
        np.array(target["position"])[pool_rows], target["salary"][pool_rows],
        target["fpts"][pool_rows], cfg.salary_cap, rb.count, rb.min_salary,
        mix64(cfg.master_seed, RANDOM_SALT),
    )}
    if np.ptp(populations["random"]) == 0:  # no percentile spread, no KS test
        raise UnservableWeekError(
            f"week {week}: the random population's {rb.count} lineups all score "
            f"{float(populations['random'][0])!r}"
        )

    level = cfg.report.ci_level
    resamples = cfg.report.bootstrap_resamples
    report: dict = {
        "status": "valid",
        "week": week,
        "players": lineup_info["players"],
        "actual_fpts": score,
        "predicted_fpts": lineup_info["predicted_mean"],
        "predicted_ci": [lineup_info["ci_low"], lineup_info["ci_high"]],
        "ci_level": level,
    }
    if cfg.contest_results_csv:
        real = stats.load_contest_results(cfg.contest_results_csv)
        populations["real_world"] = real
        report.update(stats.compare_populations(populations["random"], real))

    # Population k (random 1, real_world 2) bootstraps from its own stream.
    bootstrap_seed = mix64(cfg.master_seed, BOOTSTRAP_SALT)
    perc_rows, box_rows = [], []
    for k, (label, scores) in enumerate(populations.items(), start=1):
        summary = report[label] = stats.summarize_population(
            scores, score, resamples, level, mix64(bootstrap_seed, k), label
        )
        perc_rows.append((label, summary["n"], summary["mean_fpts"], score,
                          summary["percentile"], *summary["percentile_ci"]))
        box_rows.append((label, *map(summary["boxplot"].get, BOXPLOT_COLUMNS)))

    _write_json(_out(cfg, VALIDATION_JSON), report)
    _write_csv(
        _out(cfg, PERCENTILES),
        "population,n,mean_fpts,generated_fpts,percentile,ci_low,ci_high",
        perc_rows,
    )
    _write_csv(_out(cfg, BOXPLOT), ",".join(("population", *BOXPLOT_COLUMNS)), box_rows)
    _write_csv(
        _out(cfg, HISTOGRAMS), "player_id,bin_low,bin_high,count,actual_fpts", hist_rows
    )

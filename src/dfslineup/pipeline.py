"""File-based pipeline stages: ingest -> predict -> optimize -> validate -> report.

Each stage reads the previous stage's artifacts from the output directory
and writes its own, through the temp-file-then-rename helpers of
``report``.  Every float written to a text artifact uses repr(), which
keeps reruns byte-identical.  ``report`` holds the last stage, which needs
no numpy; it is re-exported here so every stage is ``pipeline.cmd_<stage>``.
"""

from __future__ import annotations

import json
import math
import os
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
from .optimizer import Lineup, assign_slots, modal_lineup, optimize_all_flex, undominated
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
    TRAIN_WINDOW,
    VALIDATION_JSON,
    _out,
    _require,
    _write_json,
    _write_text,
    cmd_report,
)
from .seeds import mix64

# Salts that derive the validate stage's seeds from master_seed.
RANDOM_SALT = 0xBA5E
BOOTSTRAP_SALT = 0xB007


def _write_npz(path: Path, **arrays) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- ingest


def cmd_ingest(cfg: RunConfig) -> None:
    """Build the training and prediction windows for the target week."""
    table = load_player_weeks(cfg.players_csv)
    excluded = (
        load_exclusions(cfg.exclusions_file) if cfg.exclusions_file else set()
    )
    train_w = build_window(table, cfg.target_week - 4, "train")
    pred_w = build_window(table, cfg.target_week - 3, "predict")

    keep = [i for i, pid in enumerate(pred_w.player_ids) if pid not in excluded]
    pred_ids = [pred_w.player_ids[i] for i in keep]
    pred_feats = pred_w.features[keep]
    target = table.at_week(cfg.target_week, pred_ids)

    lines = ["player_id,eligible_train,eligible_predict,excluded"]
    train_ids = set(train_w.player_ids)
    predict_eligible = set(pred_w.player_ids)
    for pid in table.player_ids():
        lines.append(
            f"{pid},{int(pid in train_ids)},{int(pid in predict_eligible)},"
            f"{int(pid in excluded)}"
        )

    _write_npz(
        _out(cfg, TRAIN_WINDOW),
        window_index=np.array([train_w.window_index]),
        player_ids=np.array(train_w.player_ids),
        features=train_w.features,
        targets=train_w.targets,
    )
    _write_npz(
        _out(cfg, PREDICT_WINDOW),
        window_index=np.array([pred_w.window_index]),
        player_ids=np.array(pred_ids),
        features=pred_feats,
        salary=target["salary"],
        position=np.array(target["position"]),
    )
    _write_text(_out(cfg, ELIGIBILITY), "\n".join(lines) + "\n")


def _load_train_window(cfg: RunConfig) -> WindowDataset:
    with np.load(_require(_out(cfg, TRAIN_WINDOW), "ingest")) as blob:
        return WindowDataset(
            window_index=int(blob["window_index"][0]),
            player_ids=[str(p) for p in blob["player_ids"]],
            features=blob["features"],
            targets=blob["targets"],
        )


def _load_predict_window(cfg: RunConfig):
    with np.load(_require(_out(cfg, PREDICT_WINDOW), "ingest")) as blob:
        window = WindowDataset(
            window_index=int(blob["window_index"][0]),
            player_ids=[str(p) for p in blob["player_ids"]],
            features=blob["features"],
            targets=None,
        )
        return window, blob["salary"], blob["position"]


# --------------------------------------------------------------- predict


def cmd_predict(cfg: RunConfig) -> None:
    """Train the ensemble and export per-player prediction distributions."""
    train_w = _load_train_window(cfg)
    pred_w, salary, position = _load_predict_window(cfg)

    ensemble = train_ensemble(
        train_w, cfg.n_models, cfg.master_seed, cfg.training, workers=cfg.workers
    )
    samples = sample_matrix(ensemble, pred_w)
    mean, ci_low, ci_high = predict_distribution(samples, level=cfg.report.ci_level)

    lines = ["player_id,position,salary,mean_fpts,ci_low,ci_high"]
    for j, pid in enumerate(pred_w.player_ids):
        lines.append(
            f"{pid},{position[j]},{salary[j]},{_fmt(mean[j])},"
            f"{_fmt(ci_low[j])},{_fmt(ci_high[j])}"
        )
    _write_text(_out(cfg, PREDICTIONS), "\n".join(lines) + "\n")
    _write_npz(
        _out(cfg, SAMPLES),
        player_ids=np.array(pred_w.player_ids),
        samples=samples,
        salary=salary,
        position=position,
    )


def _load_samples(cfg: RunConfig):
    with np.load(_require(_out(cfg, SAMPLES), "predict")) as blob:
        ids = [str(p) for p in blob["player_ids"]]
        return ids, blob["samples"], blob["salary"], [str(p) for p in blob["position"]]


# -------------------------------------------------------------- optimize


def solve_per_model(ids, samples, salary, position, salary_cap: int) -> list[Lineup]:
    """One exact solve per model row of the sample matrix.

    Each row is pruned on arrays first, and only the kept players' columns
    go to the solver.
    """
    order = sorted(range(len(ids)), key=ids.__getitem__)  # the pruner's id order
    ids = np.asarray(ids)[order]
    position = np.asarray(position)[order]
    salary = np.asarray(salary)[order]
    lineups = []
    for row in samples[:, order]:
        keep = undominated(position, salary, row)
        lineups.append(
            optimize_all_flex(ids[keep], position[keep], salary[keep], row[keep], salary_cap)
        )
    return lineups


def cmd_optimize(cfg: RunConfig) -> None:
    """Solve every model's lineup and export the modal lineup with its interval."""
    ids, samples, salary, position = _load_samples(cfg)
    lineups = solve_per_model(ids, samples, salary, position, cfg.salary_cap)
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

    lines = ["slot,player_id,position,salary,predicted_fpts,actual_fpts"]
    total_salary = 0
    for slot, pid in slots:
        j = by_id[pid]
        total_salary += int(salary[j])
        lines.append(
            f"{slot},{pid},{position[j]},{int(salary[j])},"
            f"{_fmt(samples[:, j].mean())},"
        )
    lines.append(f"TOTAL,,,{total_salary},{_fmt(mean_total)},")
    _write_text(_out(cfg, LINEUP_CSV), "\n".join(lines) + "\n")
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


def cmd_validate(cfg: RunConfig) -> None:
    """Compare the generated lineup to random (and real-world) populations."""
    # Parsed again, not taken from ingest: actual FPTS may arrive after it.
    table = load_player_weeks(cfg.players_csv)
    with open(_require(_out(cfg, LINEUP_JSON), "optimize"), encoding="utf-8") as fh:
        lineup_info = json.load(fh)
    ids, samples, _, _ = _load_samples(cfg)
    week = cfg.target_week
    target = table.at_week(week)

    fpts_by_id = dict(zip(table.player_ids(), target["fpts"].tolist()))
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

    # Left to right: sum() compensates its float additions from Python 3.12
    # on, which would move the last bits of the score.
    score = 0.0
    for pid in lineup_info["players"]:
        score += actuals[pid]

    pool_rows = np.flatnonzero(target["draftable"] & (target["fpts"] > 0))
    fpts = target["fpts"][pool_rows]
    rb = cfg.random_baseline
    draws = stats.random_population(
        np.array(target["position"])[pool_rows], target["salary"][pool_rows],
        cfg.salary_cap, rb.count, rb.min_salary, mix64(cfg.master_seed, RANDOM_SALT),
    )
    populations = {"random": fpts[draws].sum(axis=1)}

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
    perc_lines = ["population,n,mean_fpts,generated_fpts,percentile,ci_low,ci_high"]
    box_lines = ["population,q1,median,q3,whisker_low,whisker_high,mean,n"]
    for k, (label, scores) in enumerate(populations.items(), start=1):
        summary = report[label] = stats.summarize_population(
            scores, score, resamples, level, mix64(bootstrap_seed, k), label
        )
        lo, hi = summary["percentile_ci"]
        perc_lines.append(
            f"{label},{summary['n']},{_fmt(summary['mean_fpts'])},{_fmt(score)},"
            f"{_fmt(summary['percentile'])},{_fmt(lo)},{_fmt(hi)}"
        )
        b = summary["boxplot"]
        box_lines.append(
            f"{label},{_fmt(b['q1'])},{_fmt(b['median'])},{_fmt(b['q3'])},"
            f"{_fmt(b['whisker_low'])},{_fmt(b['whisker_high'])},"
            f"{_fmt(b['mean'])},{b['n']}"
        )

    hist_lines = ["player_id,bin_low,bin_high,count,actual_fpts"]
    by_id = {pid: j for j, pid in enumerate(ids)}
    for pid in lineup_info["players"]:
        edges, counts = stats.histogram_bins(
            samples[:, by_id[pid]], cfg.report.histogram_bin_width
        )
        for k in range(len(counts)):
            hist_lines.append(
                f"{pid},{_fmt(edges[k])},{_fmt(edges[k + 1])},"
                f"{int(counts[k])},{_fmt(actuals[pid])}"
            )

    _write_json(_out(cfg, VALIDATION_JSON), report)
    _write_text(_out(cfg, PERCENTILES), "\n".join(perc_lines) + "\n")
    _write_text(_out(cfg, BOXPLOT), "\n".join(box_lines) + "\n")
    _write_text(_out(cfg, HISTOGRAMS), "\n".join(hist_lines) + "\n")

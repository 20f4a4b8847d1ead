"""File-based pipeline stages: ingest -> predict -> optimize -> validate -> report.

Each stage reads the previous stage's artifacts from the output directory
and writes its own.  All writes go through a temp-file-then-rename helper so
a failing stage leaves no partial artifact behind.  Every float written to a
text artifact uses repr(), which keeps reruns byte-identical.
"""

from __future__ import annotations

import json
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
from .optimizer import Candidate, Lineup, modal_lineup, optimize_all_flex, score_lineup
from .seeds import mix64

TRAIN_WINDOW = "train_window.npz"
PREDICT_WINDOW = "predict_window.npz"
ELIGIBILITY = "eligibility.csv"
PREDICTIONS = "predictions.csv"
SAMPLES = "samples.npz"
LINEUP_CSV = "lineup.csv"
LINEUP_JSON = "lineup.json"
VALIDATION_JSON = "validation_report.json"
PERCENTILES = "percentiles.csv"
HISTOGRAMS = "histograms.csv"
BOXPLOT = "boxplot.csv"
REPORT_TXT = "report.txt"

# Salts that derive the validate stage's seeds from master_seed.
RANDOM_SALT = 0xBA5E
BOOTSTRAP_SALT = 0xB007


def _out(cfg: RunConfig, name: str) -> Path:
    return Path(cfg.output_dir) / name


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_npz(path: Path, **arrays) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fmt(x) -> str:
    return repr(float(x))


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run `{stage}` first")
    return path


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
    target_recs = {pid: table.get(pid, cfg.target_week) for pid in pred_ids}

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
        salary=np.array([target_recs[pid].salary for pid in pred_ids], dtype=np.int64),
        position=np.array([target_recs[pid].position for pid in pred_ids]),
    )
    _write_text(_out(cfg, ELIGIBILITY), "\n".join(lines) + "\n")


def _load_train_window(cfg: RunConfig) -> WindowDataset:
    with np.load(_require(_out(cfg, TRAIN_WINDOW), "ingest")) as blob:
        return WindowDataset(
            window_index=int(blob["window_index"][0]),
            player_ids=[str(p) for p in blob["player_ids"]],
            features=blob["features"],
            targets=blob["targets"],
            has_targets=True,
        )


def _load_predict_window(cfg: RunConfig):
    with np.load(_require(_out(cfg, PREDICT_WINDOW), "ingest")) as blob:
        window = WindowDataset(
            window_index=int(blob["window_index"][0]),
            player_ids=[str(p) for p in blob["player_ids"]],
            features=blob["features"],
            targets=None,
            has_targets=False,
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


def solve_per_model(ids, samples, salary, position, rules) -> list[Lineup]:
    """One exact solve per model row of the sample matrix."""
    lineups = []
    for m in range(samples.shape[0]):
        candidates = [
            Candidate(
                player_id=ids[j],
                position=position[j],
                salary=int(salary[j]),
                predicted_fpts=float(samples[m, j]),
            )
            for j in range(len(ids))
        ]
        lineups.append(optimize_all_flex(candidates, rules))
    return lineups


def cmd_optimize(cfg: RunConfig) -> None:
    """Solve every model's lineup and export the modal lineup with its interval."""
    ids, samples, salary, position = _load_samples(cfg)
    rules = cfg.rules()
    lineups = solve_per_model(ids, samples, salary, position, rules)
    modal = modal_lineup(lineups)
    modal_count = sum(1 for lu in lineups if lu.players == modal.players)

    by_id = {pid: j for j, pid in enumerate(ids)}
    mean_total, ci_low, ci_high = lineup_prediction_interval(
        samples[:, [by_id[pid] for pid in modal.players]], level=cfg.report.ci_level
    )

    lines = ["slot,player_id,position,salary,predicted_fpts,actual_fpts"]
    total_salary = 0
    for slot, pid in modal.slots:
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
            "slots": [list(s) for s in modal.slots],
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


def _summary_dict(summary: stats.PopulationSummary) -> dict:
    return {
        "label": summary.label,
        "n": summary.n,
        "mean_fpts": summary.mean,
        "percentile": summary.percentile,
        "percentile_ci": [summary.ci_low, summary.ci_high],
        "ks_statistic": summary.ks.statistic,
        "ks_p_value": summary.ks.p_value,
        "boxplot": summary.boxplot,
    }


def cmd_validate(cfg: RunConfig) -> None:
    """Compare the generated lineup to random (and real-world) populations."""
    table = load_player_weeks(cfg.players_csv)
    with open(_require(_out(cfg, LINEUP_JSON), "optimize"), encoding="utf-8") as fh:
        lineup_info = json.load(fh)
    ids, samples, _, _ = _load_samples(cfg)
    week = cfg.target_week

    actuals = {}
    for pid in lineup_info["players"]:
        rec = table.get(pid, week)
        if rec is not None and rec.fpts is not None:
            actuals[pid] = rec.fpts
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

    modal = Lineup(
        players=tuple(lineup_info["players"]),
        slots=[tuple(s) for s in lineup_info["slots"]],
        flex_config=tuple(lineup_info["flex_config"]),
        total_salary=lineup_info["total_salary"],
        predicted_fpts=lineup_info["predicted_mean"],
    )
    score = score_lineup(modal, actuals)

    pool = [
        Candidate(rec.player_id, rec.position, rec.salary, rec.fpts)
        for rec in table
        if rec.week == week and rec.draftable and rec.fpts is not None and rec.fpts > 0
    ]
    rb = cfg.random_baseline
    rules = cfg.rules()
    draws = stats.random_population(
        pool, rules, rb.count, rb.min_salary, mix64(cfg.master_seed, RANDOM_SALT)
    )
    fpts = np.array([c.predicted_fpts for c in pool])
    random_pop = stats.PopulationStats(samples=fpts[draws].sum(axis=1), label="random")

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

    real_pop = None
    if cfg.contest_results_csv:
        real_pop = stats.load_contest_results(cfg.contest_results_csv)
        comparison = stats.compare_populations(
            random_pop,
            real_pop,
            score,
            resamples=resamples,
            level=level,
            seed=mix64(cfg.master_seed, BOOTSTRAP_SALT),
        )
        report["random"] = _summary_dict(comparison.random)
        report["real_world"] = _summary_dict(comparison.real)
        report["welch_t"] = {
            "statistic": comparison.welch.statistic,
            "p_value": comparison.welch.p_value,
            "df": comparison.welch.df,
        }
        report["cohens_d"] = comparison.cohens_d
        summaries = [comparison.random, comparison.real]
    else:
        summary = stats.summarize_population(
            random_pop, score, resamples, level, mix64(cfg.master_seed, BOOTSTRAP_SALT)
        )
        report["random"] = _summary_dict(summary)
        summaries = [summary]

    perc_lines = ["population,n,mean_fpts,generated_fpts,percentile,ci_low,ci_high"]
    box_lines = ["population,q1,median,q3,whisker_low,whisker_high,mean,n"]
    for s in summaries:
        perc_lines.append(
            f"{s.label},{s.n},{_fmt(s.mean)},{_fmt(score)},"
            f"{_fmt(s.percentile)},{_fmt(s.ci_low)},{_fmt(s.ci_high)}"
        )
        b = s.boxplot
        box_lines.append(
            f"{s.label},{_fmt(b['q1'])},{_fmt(b['median'])},{_fmt(b['q3'])},"
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


# ---------------------------------------------------------------- report


def cmd_report(cfg: RunConfig) -> str:
    """Render the validation bundle as plain text; returns the text."""
    with open(_require(_out(cfg, VALIDATION_JSON), "validate"), encoding="utf-8") as fh:
        report = json.load(fh)

    lines = [f"Week {report['week']} lineup validation", "=" * 34]
    if report["status"] != "valid":
        lines.append(f"status: {report['status']}")
        lines.append(f"missing actuals: {', '.join(report['missing_actuals'])}")
    else:
        lo, hi = report["predicted_ci"]
        lines.append(
            f"predicted FPTS: {report['predicted_fpts']:.1f} [{lo:.1f}, {hi:.1f}]"
        )
        lines.append(f"actual FPTS:    {report['actual_fpts']:.2f}")
        lines.append("")
        for key, title in (("random", "Random lineups"), ("real_world", "Real-world users")):
            if key not in report:
                continue
            s = report[key]
            plo, phi = s["percentile_ci"]
            lines.append(
                f"{title}: n={s['n']}, mean {s['mean_fpts']:.1f}, "
                f"percentile {s['percentile']:.1f} [{plo:.1f}, {phi:.1f}], "
                f"KS D={s['ks_statistic']:.4f} (p={s['ks_p_value']:.3g})"
            )
        if "welch_t" in report:
            w = report["welch_t"]
            lines.append(
                f"real vs random: t={w['statistic']:.3f} (df={w['df']:.1f}, "
                f"p={w['p_value']:.3g}), Cohen's d={report['cohens_d']:.3f}"
            )
    text = "\n".join(lines) + "\n"
    _write_text(_out(cfg, REPORT_TXT), text)
    return text

"""The report stage and the artifact files every stage shares.

Nothing here imports numpy, so the ``report`` and ``config-init``
commands start without it.  All writes go through a
temp-file-then-rename helper so a failing stage leaves no partial artifact
behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .config import RunConfig

SEASON = "season.npz"
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


def _out(cfg: RunConfig, name: str) -> Path:
    return Path(cfg.output_dir) / name


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run `{stage}` first")
    return path


def _read_json(cfg: RunConfig, name: str, stage: str):
    """The parsed JSON artifact ``name``; ``stage`` writes it."""
    return json.loads(_require(_out(cfg, name), stage).read_text(encoding="utf-8"))


def cmd_report(cfg: RunConfig) -> str:
    """Render the validation bundle as plain text; returns the text."""
    report = _read_json(cfg, VALIDATION_JSON, "validate")
    lineup = _read_json(cfg, LINEUP_JSON, "optimize")

    lines = [
        f"Week {report['week']} lineup validation",
        "=" * 34,
        f"modal lineup: {lineup['modal_count']} of {lineup['n_models']} models",
    ]
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

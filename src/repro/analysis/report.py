"""Markdown study reports.

:func:`generate_report` renders the whole study — dataset shapes, every
figure's summary statistics with a sparkline, the headline findings and
the anomaly scan — into one markdown document, the artifact a measurement
study ships alongside its figures.  Every section renders from the
study's two per-chain results (:meth:`DecentralizationStudy.chain_results`).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.figures import FigureResult
from repro.analysis.study import PAPER_METRICS, ChainStudy, DecentralizationStudy
from repro.core.anomaly import iqr_anomalies
from repro.core.summary import summarize
from repro.viz.tables import sparkline


def generate_report(study: DecentralizationStudy, path: str | Path | None = None) -> str:
    """Render the study as markdown; optionally write it to ``path``."""
    halves = tuple(study.chain_results().values())
    sections = [
        _header(),
        _dataset_section(halves),
        _findings_section(study),
        _figures_section(study),
        _anomaly_section(halves),
        _events_section(halves),
    ]
    text = "\n\n".join(sections) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _header() -> str:
    return (
        "# Decentralization study report\n\n"
        "Measuring decentralization in Bitcoin and Ethereum with multiple "
        "metrics (Gini, Shannon entropy, Nakamoto coefficient) and "
        "granularities (day/week/month; fixed and sliding windows), over "
        "the simulated 2019 datasets."
    )


def _dataset_section(halves: tuple[ChainStudy, ...]) -> str:
    lines = ["## Datasets", "", "| chain | blocks | heights | producers |", "|---|---|---|---|"]
    for half in halves:
        lines.append(
            f"| {half.name} | {half.n_blocks:,} | "
            f"{half.start_height:,}..{half.end_height:,} | "
            f"{half.n_producers:,} |"
        )
    return "\n".join(lines)


def _findings_section(study: DecentralizationStudy) -> str:
    findings = study.findings()
    lines = [
        "## Headline findings",
        "",
        f"* **More decentralized:** {findings.more_decentralized}",
        f"* **More stable:** {findings.more_stable}",
        "",
        "| metric | btc mean | eth mean | more decentralized | btc CV | eth CV | more stable |",
        "|---|---|---|---|---|---|---|",
    ]
    stability = {c.metric_name: c for c in findings.stability.comparisons}
    for level in findings.level:
        stab = stability[level.metric_name]
        lines.append(
            f"| {level.metric_name} | {level.mean_a:.4f} | {level.mean_b:.4f} "
            f"| {level.winner} | {stab.cv_a:.4f} | {stab.cv_b:.4f} "
            f"| {stab.winner} |"
        )
    return "\n".join(lines)


def _figures_section(study: DecentralizationStudy) -> str:
    lines = ["## Figures"]
    for figure in study.all_figures():
        lines.append("")
        lines.append(f"### {figure.figure_id}: {figure.title}")
        lines.extend(_figure_body(figure))
    return "\n".join(lines)


def _figure_body(figure: FigureResult) -> list[str]:
    lines: list[str] = []
    if figure.series:
        lines.append("")
        lines.append("| series | n | mean | std | min | max | trend |")
        lines.append("|---|---|---|---|---|---|---|")
        for label in sorted(figure.series):
            series = figure.series[label]
            summary = summarize(series)
            lines.append(
                f"| {label} | {summary.n_windows} | {summary.mean:.4f} "
                f"| {summary.std:.4f} | {summary.minimum:.4f} "
                f"| {summary.maximum:.4f} | `{sparkline(series, width=30)}` |"
            )
    for distribution in figure.distributions:
        lines.append("")
        lines.append(
            f"Window **{distribution.window_label}** — "
            f"{distribution.n_producers} producers; top shares:"
        )
        for name, share in distribution.top:
            lines.append(f"* {name}: {share:.2%}")
        lines.append(f"* (other): {distribution.other_share:.2%}")
    if figure.notes and not figure.series:
        lines.append("")
        for key, value in sorted(figure.notes.items()):
            lines.append(f"* `{key}` = {value:g}")
    return lines


def _events_section(halves: tuple[ChainStudy, ...]) -> str:
    from repro.analysis.events import coincident_events

    lines = [
        "## Multi-metric events",
        "",
        "Dates flagged by at least two metrics simultaneously (outlier or "
        "trend shift):",
        "",
    ]
    found_any = False
    for half in halves:
        for group in coincident_events(half.events, min_metrics=2):
            found_any = True
            metrics = ", ".join(
                f"{event.metric} ({event.kind})" for event in group
            )
            lines.append(f"* **{group[0].label}** ({group[0].chain}): {metrics}")
    if not found_any:
        lines.append("* none detected")
    return "\n".join(lines)


def _anomaly_section(halves: tuple[ChainStudy, ...]) -> str:
    lines = [
        "## Anomaly scan (IQR rule, daily series)",
        "",
        "| chain | metric | anomalous windows | examples |",
        "|---|---|---|---|",
    ]
    for half in halves:
        for metric in PAPER_METRICS:
            report = iqr_anomalies(half.daily[metric])
            examples = ", ".join(report.labels[:3]) if report else "—"
            lines.append(
                f"| {half.name} | {metric} | {report.count} | {examples} |"
            )
    return "\n".join(lines)

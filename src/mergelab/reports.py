"""Report emission: every analysis writes one CSV and one JSON file with a
fixed column schema, and every row carries the manifest hash of the run
that produced it. `csv` and `json` load when a report is written or read."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

# Every analysis `mergelab analyze` runs, in order: its report columns after
# `manifest_hash`, whether it reads a merge's coefficients (`analyze --coeffs`)
# and the fewest classification tasks it scores; `analyze` checks both needs
# before it builds any report. `config` and `cli` take their names from here.
ANALYSIS_TABLE = {
    "eval": (("task", "metric", "value"), False, 0),
    "cross_matrix": (("encoder_task", "head_task", "accuracy"), False, 1),
    "cross_merge": (("row_type", "encoder_task", "head_task", "cross_accuracy",
                     "merge_accuracy", "spearman_rho"), False, 2),
    "transfer": (("heads", "merged_score", "cross_score"), True, 2),
    "correlation": (("task", "proxy", "stage", "spearman_rho", "status"), True, 1),
    "discrepancy": (("task", "fails", "gains", "net", "n"), True, 1),
    "sparsity": (("scope", "threshold", "fraction"), True, 0),
    "prop1": (("instance", "family", "loss", "ctl_residual_max", "ctl_residual_mean",
               "loss_pre", "loss_i", "loss_j", "loss_merge", "jensen_bound", "jensen_slack",
               "jensen_holds", "eps", "bound_disentangled", "bound_synergy",
               "classification"), False, 0),
    "pilot": (("coeff", "encoder_task", "head_task", "gain"), False, 1),
}
SCHEMAS = {name: ["manifest_hash", *columns]
           for name, (columns, *_) in ANALYSIS_TABLE.items()}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_tables(out_dir, stem: str, analysis: str, rows: list) -> list:
    """<stem>.csv and <stem>.json of `rows` under the analysis' columns."""
    import csv
    import json
    columns = SCHEMAS[analysis]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
    json_path = out_dir / f"{stem}.json"
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump({"analysis": analysis, "columns": columns, "rows": rows},
                  f, sort_keys=True, indent=2, ensure_ascii=False)
        f.write("\n")
    return [csv_path, json_path]


def write_report(out_dir, analysis: str, rows: Iterable[Mapping], manifest_hash: str) -> list:
    """Write <analysis>.csv and <analysis>.json under out_dir; returns the paths."""
    columns = SCHEMAS[analysis]
    rows = [dict(r, manifest_hash=manifest_hash) for r in rows]
    for row in rows:
        missing = set(columns) - set(row)
        if missing:
            raise ValueError(f"report row for '{analysis}' missing fields {sorted(missing)}")
    return _write_tables(out_dir, analysis, analysis,
                         [{c: row[c] for c in columns} for row in rows])


def aggregate_reports(root) -> dict:
    """Collect all <analysis>.json files under root, grouped by analysis.

    Files that are not readable UTF-8 JSON, or not a report, are skipped; a
    report whose rows are not a list of objects raises ValueError naming it.
    """
    import json
    combined = {}
    for path in sorted(Path(root).rglob("*.json")):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError):  # unreadable, not UTF-8, or not JSON
            continue
        name = doc.get("analysis") if isinstance(doc, dict) else None
        if not isinstance(name, str) or name not in SCHEMAS or "rows" not in doc:
            continue
        rows = doc["rows"]
        if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
            raise ValueError(f"{path}: field 'rows' is not a list of objects")
        combined.setdefault(name, []).extend(rows)
    return combined


def write_combined(out_dir, combined: Mapping[str, list]) -> list:
    paths = []
    for analysis in sorted(combined):
        paths += _write_tables(out_dir, f"combined_{analysis}", analysis, combined[analysis])
    return paths

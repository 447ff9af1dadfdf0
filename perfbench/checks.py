"""Checks of each op's outputs against the oracle's expectations.

A check reads the op's CSV/JSON (and NIfTI label map) with its own parsers
and returns the list of mismatches; an empty list means the outputs are
correct. Only numpy is needed here, so the measuring process does not pay
for importing scipy.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

import numpy as np

METRICS = ("dsc_vox", "sen_vox", "ppv_vox", "dsc_num", "sen_num", "ppv_num")
COUNT_COLUMNS = ("vol_manual_vox", "vol_algo_vox", "vol_overlap_vox",
                 "n_manual", "n_algo", "n_manual_hit", "n_algo_hit")
FDR_Q = 0.05  # the CLI's default --fdr-q
REL_TOL = 1e-9


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str):
    return None if text == "" else float(text)


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


def _compare_row(where: str, got: dict, want: dict) -> list[str]:
    problems = []
    for col in COUNT_COLUMNS:
        if int(got[col]) != want[col]:
            problems.append(f"{where} {col}: got {got[col]}, want {want[col]}")
    for col in METRICS:
        value = got[col] if not isinstance(got[col], str) else _num(got[col])
        if not _close(value, want[col]):
            problems.append(f"{where} {col}: got {got[col]!r}, want {want[col]!r}")
    flags = got["degenerate_flags"]
    flags = flags if isinstance(flags, str) else "|".join(flags)
    if flags != want["degenerate_flags"]:
        problems.append(f"{where} degenerate_flags: got {flags!r}, want {want['degenerate_flags']!r}")
    return problems


def check_subject_rows(rows: list[dict], expected: dict[str, dict], where: str,
                       subject_order: list[str] | None = None) -> list[str]:
    """rows must be one per (subject, region) in order, matching the oracle."""
    if subject_order is None:
        keys = [(None, region) for region in expected]
        lookup = {(None, region): want for region, want in expected.items()}
    else:
        keys = [(sid, region) for sid in subject_order for region in expected[sid]]
        lookup = {(sid, region): expected[sid][region] for sid, region in keys}
    got_keys = [(None if subject_order is None else r["subject_id"], r["region"]) for r in rows]
    if got_keys != keys:
        return [f"{where}: rows {got_keys[:4]}... do not match {keys[:4]}..."]
    problems = []
    for key, row in zip(keys, rows):
        problems += _compare_row(f"{where} {key}", row, lookup[key])
    return problems


def check_metrics(out: Path, expected: dict) -> list[str]:
    problems = check_subject_rows(_read_csv(out / "metrics.csv"), expected, "metrics.csv")
    records = json.loads((out / "metrics.json").read_text())["records"]
    return problems + check_subject_rows(records, expected, "metrics.json")


def check_contrast(out: Path, expected: tuple[float, float, float]) -> list[str]:
    rows = _read_csv(out / "contrast.csv")
    payload = json.loads((out / "contrast.json").read_text())["rows"]
    problems = []
    for where, row in (("contrast.csv", rows[0]), ("contrast.json", payload[0])):
        got = [float(row[k]) for k in ("mask_mean", "shell_mean", "abs_contrast")]
        if not all(_close(g, w) for g, w in zip(got, expected)):
            problems.append(f"{where}: got {got}, want {list(expected)}")
    return problems


def read_label_map(path: Path) -> np.ndarray:
    """Decode a little-endian int32 single-file NIfTI-1 written by the CLI."""
    raw = gzip.decompress(path.read_bytes())
    dims = np.frombuffer(raw, dtype="<i2", count=4, offset=40)[1:]
    offset = int(np.frombuffer(raw, dtype="<f4", count=1, offset=108)[0])
    count = int(np.prod(dims))
    return np.frombuffer(raw, dtype="<i4", count=count, offset=offset)


def check_clusters(out: Path, expected: dict) -> list[str]:
    sizes = expected["sizes"]
    payload = json.loads((out / "clusters.json").read_text())
    problems = []
    if payload["component_count"] != sizes.size:
        problems.append(f"component_count: got {payload['component_count']}, want {sizes.size}")
    if not np.array_equal(np.sort(payload["sizes_voxels"]), np.sort(sizes)):
        problems.append("clusters.json sizes_voxels differ from the oracle's size multiset")
    csv_sizes = [int(r["size_voxels"]) for r in _read_csv(out / "cluster_sizes.csv")]
    if not np.array_equal(np.sort(csv_sizes), np.sort(sizes)):
        problems.append("cluster_sizes.csv differs from the oracle's size multiset")

    lo, hi = int(sizes.min()), int(sizes.max())
    want_counts = np.bincount(sizes, minlength=hi + 1)[lo:]
    want_density = want_counts / sizes.size
    bins = payload.get("histogram", [])
    if not np.array_equal([b["lo"] for b in bins], np.arange(lo, hi + 1)):
        problems.append(f"clusters.json histogram: bins are not unit bins over [{lo}, {hi}]")
    # size_histogram.csv is checked on count and density only: at this
    # commit the CLI writes its bin_lo/bin_hi columns empty (see NOTES.md)
    for where, rows in (("clusters.json histogram", bins),
                        ("size_histogram.csv", _read_csv(out / "size_histogram.csv"))):
        counts = np.array([int(b["count"]) for b in rows])
        density = np.array([float(b["density"]) for b in rows])
        if not (np.array_equal(counts, want_counts) and np.allclose(density, want_density)):
            problems.append(f"{where}: counts or densities differ from the oracle's")

    flat = read_label_map(out / "labels.nii.gz")
    idx = np.flatnonzero(flat)
    if not (np.array_equal(idx, expected["index"])
            and np.array_equal(flat[idx], expected["labels"])):
        problems.append("labels.nii.gz is not the oracle's partition in scan-order ids")
    return problems


def check_per_subject(out: Path, expected: dict, model: str) -> list[str]:
    want = expected["per_subject"][model]
    problems = check_subject_rows(_read_csv(out / "per_subject.csv"), want,
                                  "per_subject.csv", expected["subjects"])
    for row in _read_csv(out / "aggregate.csv"):
        cell = expected["aggregate"][model].get((row["region"], row["site"]))
        if cell is None or int(row["n_subjects"]) != cell["n_subjects"]:
            problems.append(f"aggregate.csv: unexpected row {row['region']}/{row['site']}")
            continue
        for m in METRICS:
            if (int(row[f"{m}_n"]) != cell[m]["n"]
                    or not _close(_num(row[f"{m}_mean"]), cell[m]["mean"])):
                problems.append(f"aggregate.csv {row['region']}/{row['site']} {m}_mean")
    if len(_read_csv(out / "aggregate.csv")) != len(expected["aggregate"][model]):
        problems.append("aggregate.csv: wrong number of rows")
    for row in _read_csv(out / "losocv_table.csv"):
        pooled = expected["aggregate"][model][(row["region"], "All Sites")][row["metric"]]
        if not _close(_num(row["average_mean"]), pooled["mean"]):
            problems.append(f"losocv_table.csv {row['region']}/{row['metric']} average_mean")
        for site in sorted(set(expected["sites"].values())):
            cell = expected["aggregate"][model][(row["region"], site)][row["metric"]]
            if not _close(_num(row[f"{site}_mean"]), cell["mean"]):
                problems.append(f"losocv_table.csv {row['region']}/{row['metric']} {site}_mean")
    return problems


def check_compare(out: Path, expected: dict) -> list[str]:
    rows = _read_csv(out / "compare.csv")
    want_keys = [(region, m) for region in expected["compare"] for m in METRICS]
    if [(r["region"], r["metric"]) for r in rows] != want_keys:
        return ["compare.csv: rows differ from region x metric order"]
    problems = []
    for row in rows:
        want = expected["compare"][row["region"]][row["metric"]]
        where = f"compare.csv {row['region']}/{row['metric']}"
        if int(row["n"]) != want["n"]:
            problems.append(f"{where} n: got {row['n']}, want {want['n']}")
        for col in ("median_a", "median_b", "median_diff", "p_fdr", "r"):
            if not _close(_num(row[col]), want[col]):
                problems.append(f"{where} {col}: got {row[col]!r}, want {want[col]!r}")
        sig = "Yes" if want["p_fdr"] is not None and want["p_fdr"] <= FDR_Q else "No"
        if row["sig"] != sig:
            problems.append(f"{where} sig: got {row['sig']}, want {sig}")
    return problems


def check_folds(out: Path, expected: dict) -> list[str]:
    spec = json.loads((out / "foldspec.json").read_text())
    assignments = spec["assignments"]
    if spec["scheme"] != "5fcv" or sorted(assignments) != sorted(expected["subjects"]):
        return ["foldspec.json: wrong scheme or subject set"]
    problems = []
    folds = [f"fold{i}" for i in range(5)]
    groups = {"all": expected["subjects"]}
    for site in set(expected["sites"].values()):
        groups[site] = [s for s in expected["subjects"] if expected["sites"][s] == site]
    for name, members in groups.items():
        counts = [sum(assignments[s] == f for s in members) for f in folds]
        if sum(counts) != len(members) or max(counts) - min(counts) > 1:
            problems.append(f"foldspec.json: {name} fold sizes {counts} not balanced")
    return problems


def check(kind: str, out: Path, expected) -> list[str]:
    """Dispatch an op's check by kind; see the op table in run.py."""
    if kind == "metrics":
        return check_metrics(out, expected)
    if kind == "contrast":
        return check_contrast(out, expected)
    if kind == "clusters":
        return check_clusters(out, expected)
    if kind in ("aggregate_a", "aggregate_b"):
        return check_per_subject(out, expected, kind[-1].upper())
    if kind == "compare":
        return check_compare(out, expected)
    if kind == "folds":
        return check_folds(out, expected)
    raise ValueError(f"no check for op kind {kind!r}")

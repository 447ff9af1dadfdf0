"""CSV input and output, manifest handling, fold construction, and report aggregation.

Folds exist so external training pipelines and this evaluator share one
deterministic split definition; no training happens here. Aggregation
averages per-subject metrics over defined values only, reporting exclusion
counts; the leave-one-site-out matrix is read off the per-site and All
Sites reports, so its pooled average is subject-weighted. A subject whose
file cannot be read is returned by evaluate_record as a SubjectFailure whose
message names the subject id and then the file, each once: the nifti reader
names the file, and evaluate_record adds the subject. evaluate_manifest
collects such failures and goes on with the other subjects.
"""

from __future__ import annotations

import csv
import io
import random
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, astuple, dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import EmptyManifestError, InputError, TooFewSitesError
from .metrics import METRIC_NAMES, RoiMask, SubjectMetrics, evaluate_subject, pearson_r
from .nifti import BinaryMask, read_mask_voxels, read_volume

N_FOLDS = 5
ALL_SITES = "All Sites"  # the site of each region's pooled report


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    site: str
    pred_path: str
    ref_path: str
    roi_wm_path: str = ""
    roi_bg_path: str = ""


# a manifest's columns are SubjectRecord's fields; those with no default are required
MANIFEST_COLUMNS = tuple(f.name for f in fields(SubjectRecord))
_REQUIRED_COLUMNS = [f.name for f in fields(SubjectRecord) if f.default is MISSING]


@dataclass
class FoldSpec:
    scheme: str  # "5fcv" or "losocv"
    assignments: dict[str, str]  # subject_id -> fold label
    seed: int


@dataclass(frozen=True)
class SubjectFailure:
    """A subject that could not be scored, and why."""

    subject_id: str
    site: str
    error: str  # the InputError's class name
    message: str  # "<subject_id>: <file>: <reason>"


@dataclass(frozen=True)
class MetricSummary:
    mean: float | None
    sd: float | None
    n_used: int
    n_excluded: int


@dataclass
class AggregateReport:
    region: str
    site: str  # a site name or ALL_SITES
    scheme: str
    n_subjects: int
    metrics: dict[str, MetricSummary]
    r_vox: float | None  # r(manual volume, algo volume), voxel counts
    r_vox_mm3: float | None
    r_num: float | None  # r(manual count, algo count)


def read_text(path: str | Path) -> str:
    """The text of a small input file (a manifest, a CSV, a config), read
    as UTF-8, a leading byte-order mark dropped; bytes that are not UTF-8
    are an InputError naming the file, the line and the byte, counted from
    the file's first byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line}: not UTF-8 text "
                         f"({exc.reason} at byte {exc.start})") from None


def read_csv(path: str | Path, required, known=None) -> Iterator[tuple[int, dict[str, str]]]:
    """(row number, {column: stripped cell}) of each data row of the CSV at
    `path`, the header being row 1. An InputError naming the file rejects,
    in this order: text read_text rejects, no header, a column named twice,
    a `required` column missing, one outside `known` (if given), then per
    row a cell count other than the header's and a cell with a NUL byte or a line break."""
    rows = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(rows, None)
    if header is None:
        raise InputError(f"{path}: empty CSV")
    repeated = [c for c in dict.fromkeys(header) if header.count(c) > 1]
    if repeated:  # a row's dict would keep only the last of its cells
        raise InputError(f"{path}: header names {repeated} more than once")
    missing = [c for c in required if c not in header]
    if missing:
        raise InputError(f"{path}: missing columns {missing}")
    unknown = [c for c in header if known is not None and c not in known]
    if unknown:
        raise InputError(f"{path}: unknown columns {unknown}")
    for i, cells in enumerate(filter(None, rows), start=2):  # blank lines skipped, uncounted
        if len(cells) != len(header):
            raise InputError(f"{path}: row {i}: {len(cells)} cells, the header has {len(header)}")
        for column, cell in zip(header, cells):
            if "\x00" in cell:  # no path or name holds one; open() fails on it
                raise InputError(f"{path}: row {i}, column {column}: holds a NUL byte")
            if "\n" in cell or "\r" in cell:  # a message quoting it would span lines
                raise InputError(f"{path}: row {i}, column {column}: holds a line break")
        yield i, {column: cell.strip() for column, cell in zip(header, cells)}


def write_csv(path: str | Path, header, rows) -> None:
    """`header`, then each of `rows`, as a UTF-8 CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_manifest(path: str | Path) -> list[SubjectRecord]:
    """Parse a manifest CSV; unknown columns are rejected by name.

    An image_path column, written by older versions, is accepted and ignored.
    """
    path = Path(path)
    records = []
    seen = set()
    for i, row in read_csv(path, _REQUIRED_COLUMNS, (*MANIFEST_COLUMNS, "image_path")):
        cells = {c: row.get(c, "") for c in MANIFEST_COLUMNS}
        for column in _REQUIRED_COLUMNS:
            if not cells[column]:
                raise InputError(f"{path}: row {i}: empty {column}")
        sid = cells["subject_id"]
        if sid in seen:
            raise InputError(f"{path}: row {i}: duplicate subject_id {sid!r}")
        seen.add(sid)
        records.append(SubjectRecord(**cells))
    if not records:
        raise EmptyManifestError(f"{path}: no subjects")
    return records


def write_manifest(records: list[SubjectRecord], path: str | Path) -> None:
    write_csv(path, MANIFEST_COLUMNS, map(astuple, records))


def make_folds(manifest: list[SubjectRecord], scheme: str, seed: int = 0) -> FoldSpec:
    """Deterministic fold assignment.

    5fcv stratifies by site: each site's subjects are shuffled and dealt
    round-robin, with the dealing pointer carried across sites so overall
    fold sizes stay balanced within 1.
    """
    if not manifest:
        raise EmptyManifestError("manifest is empty")
    if scheme == "losocv":
        sites = sorted({r.site for r in manifest})
        if len(sites) < 2:
            raise TooFewSitesError(f"LOSOCV needs >= 2 sites, got {sites}")
        return FoldSpec("losocv", {r.subject_id: r.site for r in manifest}, seed)
    if scheme != "5fcv":
        raise InputError(f"scheme must be '5fcv' or 'losocv', got {scheme!r}")

    rng = random.Random(seed)
    by_site: dict[str, list[str]] = {}
    for rec in manifest:
        by_site.setdefault(rec.site, []).append(rec.subject_id)
    assignments: dict[str, str] = {}
    pointer = 0
    for site in sorted(by_site):
        ids = sorted(by_site[site])
        rng.shuffle(ids)
        for sid in ids:
            assignments[sid] = f"fold{pointer % N_FOLDS}"
            pointer += 1
    return FoldSpec("5fcv", assignments, seed)


def read_subject(pred_path: str, ref_path: str, roi_wm_path: str = "", roi_bg_path: str = "",
                 strict: bool = False):
    """(pred, ref, rois) of one subject, read in that order: the prediction,
    the reference, then the WM and BG ROIs, an empty ROI path skipped. A
    failed read is an InputError that starts with the file's path.

    The prediction sets the grid that every later file is checked against
    as it is read. Both masks are held as their foreground indices. Each
    ROI file is gathered in one pass only at their union, which is all that
    restriction reads: its RoiMask holds the ROI's voxels there and whether
    the whole file has any foreground. So no grid is built.
    """
    pred = read_volume(pred_path)
    ref = read_volume(ref_path, pred, strict)
    # their union: a merge of two sorted runs, then repeats dropped
    # (np.union1d's hashing unique is ~8x slower on this)
    at = np.sort(np.concatenate((pred.fg_index, ref.fg_index)), kind="stable")
    first = np.ones(at.size, dtype=bool)
    first[1:] = at[1:] != at[:-1]
    at = at[first]
    rois = []
    for path, region in ((roi_wm_path, "WM"), (roi_bg_path, "BG")):
        if path:
            inside, found = read_mask_voxels(path, at, pred, strict)
            mask = BinaryMask.from_index(at[inside], pred.dims, pred.spacing, pred.affine)
            rois.append(RoiMask(mask, region, empty=not found))
    return pred, ref, rois


def evaluate_record(record: SubjectRecord, connectivity: int = 26,
                    strict: bool = False) -> list[SubjectMetrics] | SubjectFailure:
    """Metrics of one manifest row, read by read_subject, or, if a file
    cannot be read, a SubjectFailure whose message starts with the subject
    id, then the file. Returned as data, so that one bad subject does not
    end the other subjects' run."""
    sid = record.subject_id
    try:
        pred, ref, rois = read_subject(record.pred_path, record.ref_path, record.roi_wm_path,
                                       record.roi_bg_path, strict)
    except InputError as exc:  # the reader has named the file
        return SubjectFailure(sid, record.site, type(exc).__name__, f"{sid}: {exc}")
    return evaluate_subject(pred, ref, rois, connectivity, subject_id=sid)


def evaluate_manifest(
    manifest: list[SubjectRecord],
    connectivity: int = 26,
    workers: int = 1,
    strict: bool = False,
) -> tuple[list[SubjectMetrics], list[SubjectFailure]]:
    """(the metrics of every subject scored, the subjects whose files could
    not be read), each in manifest order. Subjects are evaluated in parallel
    in no more worker processes than subjects, so serially when that is at
    most one; any error but an InputError of a read is raised."""
    # a fork pool starts all its workers up front; more than subjects would idle
    workers = min(workers, len(manifest))
    if workers <= 1:
        results = [evaluate_record(r, connectivity, strict) for r in manifest]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate_record, manifest,
                                    repeat(connectivity), repeat(strict)))
    failures = [r for r in results if isinstance(r, SubjectFailure)]
    per_subject = [m for r in results if not isinstance(r, SubjectFailure) for m in r]
    return per_subject, failures


def summarize_metric(values) -> MetricSummary:
    """Mean and sample SD over defined values (None and NaN are not);
    single value gets SD 0."""
    values = np.array(values, dtype=np.float64)
    defined = values[~np.isnan(values)]
    n_used, n_excluded = defined.size, values.size - defined.size
    if n_used == 0:
        return MetricSummary(None, None, 0, n_excluded)
    sd = float(defined.std(ddof=1)) if n_used > 1 else 0.0
    return MetricSummary(float(defined.mean()), sd, n_used, n_excluded)


def _group_report(region: str, site: str, scheme: str,
                  records: list[SubjectMetrics]) -> AggregateReport:
    metrics = {
        name: summarize_metric([getattr(r, name) for r in records])
        for name in METRIC_NAMES
    }
    return AggregateReport(
        region=region,
        site=site,
        scheme=scheme,
        n_subjects=len(records),
        metrics=metrics,
        r_vox=pearson_r([r.vol_manual_vox for r in records],
                        [r.vol_algo_vox for r in records]),
        r_vox_mm3=pearson_r([r.vol_manual_mm3 for r in records],
                            [r.vol_algo_mm3 for r in records]),
        r_num=pearson_r([r.n_manual for r in records],
                        [r.n_algo for r in records]),
    )


def aggregate(
    per_subject: list[SubjectMetrics],
    site_by_subject: dict[str, str] | None = None,
    scheme: str = "",
) -> list[AggregateReport]:
    """Table-2-shaped aggregation: per region, the All Sites row and, given
    a subject->site mapping, one row per site, in first-appearance order."""
    regions = list(dict.fromkeys(r.region for r in per_subject))
    reports = []
    for region in regions:
        rows = [r for r in per_subject if r.region == region]
        reports.append(_group_report(region, ALL_SITES, scheme, rows))
        if site_by_subject is not None:
            sites = sorted({site_by_subject.get(r.subject_id, "") for r in rows})
            for site in sites:
                site_rows = [r for r in rows
                             if site_by_subject.get(r.subject_id, "") == site]
                reports.append(_group_report(region, site, scheme, site_rows))
    return reports


@dataclass(frozen=True)
class LosocvRow:
    region: str
    metric: str
    external: dict[str, MetricSummary]  # site -> cell
    average: MetricSummary  # the region's All Sites cell


def losocv_table(reports: list[AggregateReport], sites: list[str]) -> list[LosocvRow]:
    """Leave-one-site-out matrix read off aggregate's per-site reports: one
    external column per left-out site of `sites`, that site's cell, and the
    region's All Sites cell as the subject-weighted pooled average. A site
    with no record in a region, as one whose every subject failed, gets an
    empty cell."""
    cells = {(r.region, r.site): r.metrics for r in reports}
    no_records = dict.fromkeys(METRIC_NAMES, MetricSummary(None, None, 0, 0))
    return [
        LosocvRow(
            region=region,
            metric=metric,
            external={site: cells.get((region, site), no_records)[metric] for site in sites},
            average=cells[region, ALL_SITES][metric],
        )
        for region in dict.fromkeys(r.region for r in reports)
        for metric in METRIC_NAMES
    ]

"""Manifest handling, fold construction, and report aggregation.

Folds exist so external training pipelines and this evaluator share one
deterministic split definition; no training happens here. Aggregation
averages per-subject metrics over defined values only, reporting exclusion
counts; the leave-one-site-out matrix is read off the per-site and All
Sites reports, so its pooled average is subject-weighted.
"""

from __future__ import annotations

import csv
import functools
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, asdict
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import EmptyManifestError, InputError, TooFewSitesError
from .metrics import METRIC_NAMES, RoiMask, SubjectMetrics, evaluate_subject, pearson_r
from .nifti import BinaryMask, read_mask_voxels, read_volume

MANIFEST_COLUMNS = (
    "subject_id",
    "site",
    "pred_path",
    "ref_path",
    "roi_wm_path",
    "roi_bg_path",
)

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


@dataclass
class FoldSpec:
    scheme: str  # "5fcv" or "losocv"
    assignments: dict[str, str]  # subject_id -> fold label
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "FoldSpec":
        return cls(
            scheme=d["scheme"],
            assignments=dict(d["assignments"]),
            seed=int(d["seed"]),
        )


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


def read_manifest(path: str | Path) -> list[SubjectRecord]:
    """Parse a manifest CSV; unknown columns are rejected by name.

    An image_path column, written by older versions, is accepted and ignored.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyManifestError(f"{path}: empty manifest")
        missing = [c for c in ("subject_id", "site", "pred_path", "ref_path")
                   if c not in reader.fieldnames]
        if missing:
            raise InputError(f"{path}: manifest header missing columns {missing}")
        unknown = [c for c in reader.fieldnames
                   if c not in MANIFEST_COLUMNS and c != "image_path"]
        if unknown:
            raise InputError(f"{path}: unknown manifest columns {unknown}")
        records = []
        seen = set()
        for i, row in enumerate(reader, start=2):
            sid = (row.get("subject_id") or "").strip()
            if not sid:
                raise InputError(f"{path}: row {i}: empty subject_id")
            if sid in seen:
                raise InputError(f"{path}: row {i}: duplicate subject_id {sid!r}")
            seen.add(sid)
            records.append(
                SubjectRecord(
                    subject_id=sid,
                    site=(row.get("site") or "").strip(),
                    pred_path=(row.get("pred_path") or "").strip(),
                    ref_path=(row.get("ref_path") or "").strip(),
                    roi_wm_path=(row.get("roi_wm_path") or "").strip(),
                    roi_bg_path=(row.get("roi_bg_path") or "").strip(),
                )
            )
    if not records:
        raise EmptyManifestError(f"{path}: no subjects")
    return records


def write_manifest(records: list[SubjectRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))


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
                 strict: bool = False, reading=nullcontext):
    """(pred, ref, rois) of one subject, read in that order: the prediction,
    the reference, then the WM and BG ROIs, an empty ROI path skipped. Each
    read runs inside reading(path).

    The prediction sets the grid that every later file is checked against
    as it is read. Both masks are held as their foreground indices. Each
    ROI file is gathered in one pass only at their union, which is all that
    restriction reads: its RoiMask holds the ROI's voxels there and whether
    the whole file has any foreground. So no grid is built.
    """
    with reading(pred_path):
        pred = read_volume(pred_path, "mask")
    with reading(ref_path):
        ref = read_volume(ref_path, "mask", pred, strict)
    # their union: a merge of two sorted runs, then repeats dropped
    # (np.union1d's hashing unique is ~8x slower on this)
    at = np.sort(np.concatenate((pred.fg_index, ref.fg_index)), kind="stable")
    first = np.ones(at.size, dtype=bool)
    first[1:] = at[1:] != at[:-1]
    at = at[first]
    rois = []
    for path, region in ((roi_wm_path, "WM"), (roi_bg_path, "BG")):
        if path:
            with reading(path):
                inside, found = read_mask_voxels(path, at, pred, strict)
            mask = BinaryMask.from_index(at[inside], pred.dims, pred.spacing, pred.affine)
            rois.append(RoiMask(mask, region, empty=not found))
    return pred, ref, rois


@contextmanager
def _naming_subject(subject_id: str, path: str):
    """Re-raise a read error as InputError starting with the subject id and
    the file."""
    try:
        yield
    except OSError as exc:  # strerror leaves out the path already named
        raise InputError(f"{subject_id}: {path}: {exc.strerror or exc}") from exc
    except InputError as exc:  # the reader has already named the file
        raise InputError(f"{subject_id}: {exc}") from exc


def evaluate_record(
    record: SubjectRecord, connectivity: int = 26, strict: bool = False
) -> list[SubjectMetrics]:
    """Metrics of one manifest row, read by read_subject. Read and grid
    errors are re-raised as InputError with a message that starts with the
    subject id and the file."""
    pred, ref, rois = read_subject(record.pred_path, record.ref_path, record.roi_wm_path,
                                   record.roi_bg_path, strict,
                                   functools.partial(_naming_subject, record.subject_id))
    return evaluate_subject(pred, ref, rois, connectivity,
                            subject_id=record.subject_id, strict=strict)


def evaluate_manifest(
    manifest: list[SubjectRecord],
    connectivity: int = 26,
    workers: int = 1,
    strict: bool = False,
) -> list[SubjectMetrics]:
    """Per-subject evaluation, parallel across subjects, manifest order."""
    if workers <= 1 or len(manifest) <= 1:
        nested = [evaluate_record(r, connectivity, strict) for r in manifest]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(evaluate_record, manifest,
                                   repeat(connectivity), repeat(strict)))
    return [m for sub in nested for m in sub]


def _is_defined(value) -> bool:
    return value is not None and not (isinstance(value, float) and np.isnan(value))


def summarize_metric(values) -> MetricSummary:
    """Mean and sample SD over defined values; single value gets SD 0."""
    defined = [v for v in values if _is_defined(v)]
    n_used, n_excluded = len(defined), len(values) - len(defined)
    if n_used == 0:
        return MetricSummary(None, None, 0, n_excluded)
    arr = np.asarray(defined, dtype=np.float64)
    sd = float(arr.std(ddof=1)) if n_used > 1 else 0.0
    return MetricSummary(float(arr.mean()), sd, n_used, n_excluded)


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
    per_site: bool = False,
    scheme: str = "",
) -> list[AggregateReport]:
    """Table-2-shaped aggregation: per region, all sites plus optional
    per-site rows, in first-appearance order."""
    regions = list(dict.fromkeys(r.region for r in per_subject))
    reports = []
    for region in regions:
        rows = [r for r in per_subject if r.region == region]
        reports.append(_group_report(region, ALL_SITES, scheme, rows))
        if per_site:
            if site_by_subject is None:
                raise InputError("per-site aggregation needs a subject->site mapping")
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


def losocv_table(reports: list[AggregateReport]) -> list[LosocvRow]:
    """Leave-one-site-out matrix read off aggregate's per-site reports: one
    external column per left-out site, that site's cell, and the region's
    All Sites cell as the subject-weighted pooled average. A site with no
    record in a region gets an empty cell."""
    cells = {(r.region, r.site): r.metrics for r in reports}
    sites = sorted({r.site for r in reports if r.site != ALL_SITES})
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

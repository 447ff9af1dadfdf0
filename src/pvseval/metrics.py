"""Voxel- and cluster-level overlap metrics for one subject.

Voxel level works on foreground counts: dice = 2*overlap/(manual+algo),
sensitivity = overlap/manual, precision = overlap/algo. Cluster level works
on connected components with the any-voxel overlap rule: a predicted
cluster counts as a true positive if any of its voxels touches the
reference, and vice versa. An ROI restricts both masks first
(`intersect`). Both levels read the masks' sorted foreground indices and
test overlap with BinaryMask.contains, so the cost scales with the
foreground, not the grid. The masks are scored as given: harness.read_subject
has checked every file's grid (affines too, under --strict-grid), recorded
whether each ROI file is empty, held the masks as their indices and
gathered each ROI file only at the prediction's and reference's voxels, so
scoring a subject builds no grid. Degenerate cases (either side empty) are
reported as undefined rather than forced to 0 or 1, with flags so
aggregation can exclude and count them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ccl import label_components
from .errors import LengthMismatchError
from .nifti import BinaryMask, ensure_same_grid

METRIC_NAMES = ("dsc_vox", "sen_vox", "ppv_vox", "dsc_num", "sen_num", "ppv_num")


@dataclass(eq=False, frozen=True)
class RoiMask:
    """A region-of-interest mask tagged with its anatomical name.

    mask need be right only at the voxels it restricts, the foreground of
    the masks it is intersected with; harness.read_subject keeps just those
    of an ROI file. empty says whether the whole region is empty, which
    such a mask cannot tell.
    """

    mask: BinaryMask
    region: str  # conventionally "WM", "BG", or a free-form tag
    empty: bool


def intersect(a: BinaryMask, b: BinaryMask) -> BinaryMask:
    """Voxelwise AND; spacing/affine inherited from a. Only dims are checked.

    The result is held as its foreground index: a's, kept where b contains
    it. The work scales with a's foreground, not the grid, and no grid is
    painted.
    """
    ensure_same_grid(a, b)
    return BinaryMask.from_index(a.fg_index[b.contains(a.fg_index)], a.dims, a.spacing,
                                 a.affine)


@dataclass(frozen=True)
class VoxelCounts:
    overlap: int
    manual: int
    algo: int


@dataclass(frozen=True)
class ClusterCounts:
    n_manual: int
    n_algo: int
    n_manual_hit: int  # manual clusters touched by >=1 predicted voxel
    n_algo_hit: int  # predicted clusters touching >=1 manual voxel


@dataclass
class SubjectMetrics:
    """One subject-region metric record; the unit that gets averaged."""

    subject_id: str
    region: str
    connectivity: int
    dsc_vox: float | None
    sen_vox: float | None
    ppv_vox: float | None
    dsc_num: float | None
    sen_num: float | None
    ppv_num: float | None
    vol_manual_vox: int
    vol_algo_vox: int
    vol_overlap_vox: int
    vol_manual_mm3: float
    vol_algo_mm3: float
    n_manual: int
    n_algo: int
    n_manual_hit: int
    n_algo_hit: int
    degenerate_flags: tuple[str, ...] = field(default_factory=tuple)


def _ratios(hit_ref: int, hit_pred: int, manual: int, algo: int):
    """(dsc, sen, ppv, flags) under the exclusion conventions.

    hit_ref of the manual units touch the prediction and hit_pred of the
    algo units touch the reference; at voxel level both are the overlap.
    """
    if manual == 0 and algo == 0:
        return None, None, None, ("both_empty",)
    if manual == 0:
        return 0.0, None, 0.0, ("ref_empty",)
    if algo == 0:
        return 0.0, 0.0, None, ("pred_empty",)
    return (
        (hit_ref + hit_pred) / (manual + algo),
        hit_ref / manual,
        hit_pred / algo,
        (),
    )


def voxel_metrics(
    pred: BinaryMask, ref: BinaryMask
) -> tuple[VoxelCounts, float | None, float | None, float | None]:
    """Voxel-level (counts, dice, sensitivity, precision)."""
    ensure_same_grid(pred, ref)
    overlap = int(np.count_nonzero(pred.contains(ref.fg_index)))
    counts = VoxelCounts(overlap, ref.foreground_count, pred.foreground_count)
    dsc, sen, ppv, _ = _ratios(overlap, overlap, counts.manual, counts.algo)
    return counts, dsc, sen, ppv


def cluster_metrics(
    pred: BinaryMask, ref: BinaryMask, connectivity: int
) -> tuple[ClusterCounts, float | None, float | None, float | None]:
    """Cluster-level (counts, dice, sensitivity, precision).

    The dice numerator is the sum of both hit counts,
    (n_manual_hit + n_algo_hit)/(n_manual + n_algo), which reduces to
    2n/(n_manual + n_algo) whenever the hit counts agree.
    """
    ensure_same_grid(pred, ref)
    ref_lm = label_components(ref, connectivity)
    pred_lm = label_components(pred, connectivity)
    counts = ClusterCounts(
        n_manual=ref_lm.component_count,
        n_algo=pred_lm.component_count,
        n_manual_hit=np.unique(ref_lm.fg_labels[pred.contains(ref.fg_index)]).size,
        n_algo_hit=np.unique(pred_lm.fg_labels[ref.contains(pred.fg_index)]).size,
    )
    dsc, sen, ppv, _ = _ratios(counts.n_manual_hit, counts.n_algo_hit,
                               counts.n_manual, counts.n_algo)
    return counts, dsc, sen, ppv


def pearson_r(xs, ys) -> float | None:
    """Sample Pearson correlation; None when n < 3 or a variance is 0."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise LengthMismatchError(f"length mismatch: {xs.shape} vs {ys.shape}")
    n = xs.size
    if n < 3:
        return None
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    return float((dx @ dy) / math.sqrt(sxx * syy))


def evaluate_subject(
    pred: BinaryMask,
    ref: BinaryMask,
    rois: list[RoiMask] | None = None,
    connectivity: int = 26,
    subject_id: str = "",
) -> list[SubjectMetrics]:
    """One SubjectMetrics per ROI; a single whole-volume record if none.

    Labeling happens after ROI restriction. The dims of pred, ref and every
    ROI must match; their affines are taken as read_subject checked them.
    """
    ensure_same_grid(pred, ref)
    # (region, restricted pred, restricted ref, whether the region is empty)
    targets = ([(roi.region, intersect(pred, roi.mask), intersect(ref, roi.mask), roi.empty)
                for roi in rois] if rois else [("ALL", pred, ref, False)])
    out = []
    for region, p, r, empty in targets:
        vox, dsc_v, sen_v, ppv_v = voxel_metrics(p, r)
        clus, dsc_n, sen_n, ppv_n = cluster_metrics(p, r, connectivity)
        flags = list(_ratios(vox.overlap, vox.overlap, vox.manual, vox.algo)[3])
        if empty:
            flags.append("empty_region")
        voxel_mm3 = ref.voxel_volume_mm3
        out.append(
            SubjectMetrics(
                subject_id=subject_id,
                region=region,
                connectivity=connectivity,
                dsc_vox=dsc_v,
                sen_vox=sen_v,
                ppv_vox=ppv_v,
                dsc_num=dsc_n,
                sen_num=sen_n,
                ppv_num=ppv_n,
                vol_manual_vox=vox.manual,
                vol_algo_vox=vox.algo,
                vol_overlap_vox=vox.overlap,
                vol_manual_mm3=vox.manual * voxel_mm3,
                vol_algo_mm3=vox.algo * voxel_mm3,
                n_manual=clus.n_manual,
                n_algo=clus.n_algo,
                n_manual_hit=clus.n_manual_hit,
                n_algo_hit=clus.n_algo_hit,
                degenerate_flags=tuple(flags),
            )
        )
    return out

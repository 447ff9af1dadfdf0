"""Independent expectations for every benchmark op.

Expectations are computed from the in-memory ground truth with scipy.ndimage
(26-connectivity structure), scipy.stats and plain numpy; nothing here calls
pvseval. checks.py compares each op's outputs with them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage, stats

from checks import METRICS

STRUCTURE = ndimage.generate_binary_structure(3, 3)  # 26-connectivity
EXACT_LIMIT = 25  # the CLI's Wilcoxon uses the exact null up to this many pairs, if tie-free
NEIGHBOURS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
              if (dx, dy, dz) != (0, 0, 0)]


def label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    labels, n = ndimage.label(mask, structure=STRUCTURE)
    return labels, int(n)


def canonical_labels(labels: np.ndarray, n: int) -> dict:
    """Foreground flat indices (x fastest) with ids renumbered 1..K by first
    voxel in x-fastest scan order, plus the cluster sizes by id."""
    flat = labels.ravel(order="F")
    idx = np.flatnonzero(flat)
    lab = flat[idx]
    uniq, first = np.unique(lab, return_index=True)
    remap = np.zeros(n + 1, dtype=np.int64)
    remap[uniq[np.argsort(first)]] = np.arange(1, n + 1)
    canon = remap[lab]
    return {"index": idx, "labels": canon, "sizes": np.bincount(canon, minlength=n + 1)[1:]}


def _ratios(overlap, manual, algo):
    if manual == 0 and algo == 0:
        return None, None, None
    if manual == 0:
        return 0.0, None, 0.0
    if algo == 0:
        return 0.0, 0.0, None
    return 2.0 * overlap / (manual + algo), overlap / manual, overlap / algo


def _bounding_box(mask: np.ndarray) -> tuple[slice, ...]:
    box = []
    for axis in range(3):
        hits = np.flatnonzero(mask.any(axis=tuple(a for a in range(3) if a != axis)))
        box.append(slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0))
    return tuple(box)


def region_record(pred: np.ndarray, ref: np.ndarray, roi: np.ndarray | None) -> dict:
    """Expected per-subject row for one region (roi None means the whole grid)."""
    if roi is not None:
        # no cluster of mask & roi reaches outside the ROI's bounding box
        box = _bounding_box(roi)
        roi = roi[box]
        pred, ref = pred[box] & roi, ref[box] & roi
    both = pred & ref
    overlap, manual, algo = (int(np.count_nonzero(a)) for a in (both, ref, pred))
    ref_labels, n_manual = label(ref)
    pred_labels, n_algo = label(pred)
    manual_hit = np.unique(ref_labels[both]).size
    algo_hit = np.unique(pred_labels[both]).size
    dsc_v, sen_v, ppv_v = _ratios(overlap, manual, algo)
    if n_manual == 0 and n_algo == 0:
        dsc_n = sen_n = ppv_n = None
    elif n_manual == 0:
        dsc_n, sen_n, ppv_n = 0.0, None, 0.0
    elif n_algo == 0:
        dsc_n, sen_n, ppv_n = 0.0, 0.0, None
    else:
        dsc_n = (manual_hit + algo_hit) / (n_manual + n_algo)
        sen_n, ppv_n = manual_hit / n_manual, algo_hit / n_algo
    flags = []
    if manual == 0 and algo == 0:
        flags.append("both_empty")
    elif manual == 0:
        flags.append("ref_empty")
    elif algo == 0:
        flags.append("pred_empty")
    if roi is not None and not roi.any():
        flags.append("empty_region")
    return {
        "vol_manual_vox": manual, "vol_algo_vox": algo, "vol_overlap_vox": overlap,
        "n_manual": n_manual, "n_algo": n_algo,
        "n_manual_hit": manual_hit, "n_algo_hit": algo_hit,
        "dsc_vox": dsc_v, "sen_vox": sen_v, "ppv_vox": ppv_v,
        "dsc_num": dsc_n, "sen_num": sen_n, "ppv_num": ppv_n,
        "degenerate_flags": "|".join(flags),
    }


def subject_records(pred, ref, rois: dict[str, np.ndarray]) -> dict[str, dict]:
    """region -> expected row, in the CLI's region order."""
    if not rois:
        return {"ALL": region_record(pred, ref, None)}
    return {region: region_record(pred, ref, roi) for region, roi in rois.items()}


def _ring_pairs(mask: np.ndarray, fg_labels: np.ndarray, coords: np.ndarray):
    """(ring voxel flat index, cluster id) pairs: background voxels inside the
    grid that are 26-adjacent to a cluster, each pair listed once."""
    dims = np.array(mask.shape)
    keys = []
    n_ids = int(fg_labels.max()) + 1 if fg_labels.size else 1
    for offset in NEIGHBOURS:
        nb = coords + np.array(offset)
        inside = np.all((nb >= 0) & (nb < dims), axis=1)
        nb, lab = nb[inside], fg_labels[inside]
        bg = ~mask[nb[:, 0], nb[:, 1], nb[:, 2]]
        flat = np.ravel_multi_index(tuple(nb[bg].T), mask.shape, order="F")
        keys.append(flat.astype(np.int64) * n_ids + lab[bg])
    keys = np.unique(np.concatenate(keys))
    return keys // n_ids, keys % n_ids


def contrast(image: np.ndarray, mask: np.ndarray, labels: np.ndarray, n: int) -> dict:
    """Global and per-cluster mask/shell means of a float32 image; labels
    and n are label(mask)."""
    image = image.astype(np.float64)
    coords = np.argwhere(mask)
    flat_image = image.ravel(order="F")
    ring, _ = _ring_pairs(mask, np.zeros(len(coords), dtype=np.int64), coords)
    mask_mean = float(image[mask].mean())
    shell_mean = float(flat_image[ring].mean())
    expected = {"global": (mask_mean, shell_mean, abs(mask_mean - shell_mean))}

    fg_labels = labels[mask].astype(np.int64)  # same C order as argwhere
    ring_idx, ring_lab = _ring_pairs(mask, fg_labels, coords)
    sizes = np.bincount(fg_labels, minlength=n + 1)
    mask_sums = np.bincount(fg_labels, weights=image[mask], minlength=n + 1)
    ring_counts = np.bincount(ring_lab, minlength=n + 1)
    ring_sums = np.bincount(ring_lab, weights=flat_image[ring_idx], minlength=n + 1)
    keep = ring_counts[1:] > 0
    cluster_means = mask_sums[1:][keep] / sizes[1:][keep]
    ring_means = ring_sums[1:][keep] / ring_counts[1:][keep]
    expected["per_cluster"] = (float(cluster_means.mean()), float(ring_means.mean()),
                               float(np.abs(cluster_means - ring_means).mean()))
    return expected


def summary(values) -> dict:
    defined = [v for v in values if v is not None]
    mean = float(np.mean(defined)) if defined else None
    return {"mean": mean, "n": len(defined)}


def cohort_expectations(cohort) -> dict:
    """Per-model per-subject rows, aggregate/LOSOCV summaries and the A-vs-B
    comparison for the cohort study."""
    subjects = list(cohort.refs)
    per_model = {}
    for model, preds in cohort.preds.items():
        per_model[model] = {sid: subject_records(preds[sid], cohort.refs[sid], cohort.rois[sid])
                            for sid in subjects}
    regions = list(next(iter(per_model["A"].values())))
    sites = sorted(set(cohort.sites.values()))
    out = {"subjects": subjects, "sites": cohort.sites, "per_subject": per_model,
           "aggregate": {}, "compare": {}}
    for model, rows in per_model.items():
        agg = {}
        for region in regions:
            groups = {"All Sites": subjects}
            groups.update({s: [sid for sid in subjects if cohort.sites[sid] == s] for s in sites})
            for group, members in groups.items():
                agg[(region, group)] = {
                    "n_subjects": len(members),
                    **{m: summary([rows[sid][region][m] for sid in members]) for m in METRICS},
                }
        out["aggregate"][model] = agg
    for region in regions:
        out["compare"][region] = _compare_region(
            {sid: per_model["A"][sid][region] for sid in subjects},
            {sid: per_model["B"][sid][region] for sid in subjects})
    return out


def _compare_region(a: dict, b: dict) -> dict:
    """Expected compare.csv rows for one FDR family (one region)."""
    rows, p_raw = {}, {}
    for metric in METRICS:
        pairs = [(a[s][metric], b[s][metric]) for s in sorted(a)
                 if a[s][metric] is not None and b[s][metric] is not None]
        if not pairs:
            rows[metric] = {"n": 0, "median_a": math.nan, "median_b": math.nan,
                            "median_diff": math.nan, "p_fdr": None, "r": None}
            continue
        av, bv = np.array(pairs).T
        d = av - bv
        row = {"median_a": float(np.median(av)), "median_b": float(np.median(bv)),
               "median_diff": float(np.median(d)), "p_fdr": None, "r": None, "n": 0}
        d = d[d != 0]
        if d.size:
            ranks = stats.rankdata(np.abs(d))
            w_plus, w_minus = ranks[d > 0].sum(), ranks[d < 0].sum()
            ties = np.unique(np.abs(d)).size < d.size
            method = "exact" if d.size <= EXACT_LIMIT and not ties else "approx"
            p_raw[metric] = float(stats.wilcoxon(d, method=method, correction=True).pvalue)
            row.update(n=int(d.size), r=float((w_plus - w_minus) / (w_plus + w_minus)))
        rows[metric] = row
    if p_raw:
        adjusted = stats.false_discovery_control(list(p_raw.values()), method="bh")
        for metric, p in zip(p_raw, adjusted):
            rows[metric]["p_fdr"] = float(p)
    return rows

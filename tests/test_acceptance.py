"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each test prints a PASS line via the conftest terminal-summary hook; run
with `pytest tests/test_acceptance.py -v` for the per-criterion report.
"""

import math
import time

import numpy as np
import pytest

from pvseval.ccl import label_components
from pvseval.harness import (
    SubjectRecord,
    aggregate,
    evaluate_manifest,
    losocv_table,
    make_folds,
    write_manifest,
)
from pvseval.metrics import cluster_metrics, evaluate_subject, voxel_metrics
from pvseval.morphology import contrast_stat, shell
from pvseval.nifti import DATATYPES, Volume3D, read_volume, write_volume
from pvseval.phantom import Perturbation, PhantomSpec, generate, perturb
from pvseval.stats import bh_fdr, wilcoxon_signed_rank

from conftest import make_mask
from oracles import bfs_label, random_mask, wilcoxon_enum_p
from test_nifti import byteswap_file
from test_stats import diffs_with_w_plus


def test_ccl_oracle_equivalence():
    """50 seeded masks per size {8,12,16}^3 per connectivity; < 5 s."""
    start = time.perf_counter()
    for size in (8, 12, 16):
        for conn in (6, 18, 26):
            for seed in range(50):
                rng = np.random.default_rng(1_000_000 + 1000 * size + 10 * conn + seed)
                arr = random_mask(rng, (size, size, size), 0.3)
                lm = label_components(make_mask(arr), conn)
                assert np.array_equal(lm.data, bfs_label(arr, conn)), (size, conn, seed)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"CCL oracle sweep took {elapsed:.2f}s"


def test_metric_identities():
    """200 seeded random pairs: harmonic identity, range, symmetry."""
    for seed in range(200):
        rng = np.random.default_rng(2_000_000 + seed)
        shape = (10, 10, 10)
        pred = make_mask(random_mask(rng, shape, 0.3))
        ref = make_mask(random_mask(rng, shape, 0.3))
        _, dsc, sen, ppv = voxel_metrics(pred, ref)
        if sen and ppv:
            assert abs(dsc - 2 * sen * ppv / (sen + ppv)) < 1e-12
        for v in (dsc, sen, ppv):
            if v is not None:
                assert 0.0 <= v <= 1.0
        _, dsc_ba, sen_ba, ppv_ba = voxel_metrics(ref, pred)
        assert dsc == dsc_ba
        assert sen == ppv_ba and ppv == sen_ba
        _, dsc_n, sen_n, ppv_n = cluster_metrics(pred, ref, 26)
        for v in (dsc_n, sen_n, ppv_n):
            if v is not None:
                assert 0.0 <= v <= 1.0


def test_analytic_perturbation():
    """100 (phantom, f) deletion cases at 1e-12; exact drop_clusters rates."""
    rng = np.random.default_rng(42)
    for case in range(100):
        spec = PhantomSpec(dims=(28, 28, 28), n_tubes=2,
                           length_range=(6.0, 10.0), seed=3_000_000 + case)
        _, truth, _ = generate(spec)
        total = truth.foreground_count
        k = int(rng.integers(0, total + 1))
        f = k / total
        pred = perturb(truth, Perturbation(kind="delete_fraction", fraction=f),
                       seed=case)
        deleted = total - pred.foreground_count
        assert deleted == round(f * total)
        f_actual = deleted / total
        _, dsc, _, _ = voxel_metrics(pred, truth)
        if deleted == total:
            assert dsc == 0.0
        else:
            assert abs(dsc - 2 * (1 - f_actual) / (2 - f_actual)) < 1e-12

    big = PhantomSpec(dims=(48, 48, 48), n_tubes=5, length_range=(8.0, 14.0), seed=77)
    _, truth, n_clusters = generate(big)
    assert n_clusters == 5
    for k in range(6):
        pred = perturb(truth, Perturbation(kind="drop_clusters", k=k), seed=k)
        counts, _, sen_num, _ = cluster_metrics(pred, truth, 26)
        if k == 5:
            assert sen_num == 0.0
        else:
            assert sen_num == (5 - k) / 5  # identical division, exact


def test_wilcoxon_exactness():
    """All no-tie classes n<=12 vs enumeration; n=5 tail; approx at n=20."""
    for n in range(1, 13):
        for w in range(n * (n + 1) // 2 + 1):
            d = diffs_with_w_plus(n, w)
            res = wilcoxon_signed_rank(d, np.zeros(n))
            assert res.method == "exact"
            assert abs(res.p_value - wilcoxon_enum_p(d, np.zeros(n))) < 1e-12

    res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert res.p_value == 0.0625

    rng = np.random.default_rng(4_000_000)
    for _ in range(100):
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        approx = wilcoxon_signed_rank(a, b, method="approx")
        assert abs(approx.p_value - wilcoxon_enum_p(a, b)) < 0.01


def test_bh_correctness_and_null_calibration():
    """Hand case; dominance on 1000 vectors; null calibration; < 60 s."""
    start = time.perf_counter()
    assert bh_fdr([0.01, 0.02, 0.03]) == pytest.approx([0.03, 0.03, 0.03], abs=1e-15)

    rng = np.random.default_rng(5_000_000)
    for _ in range(1000):
        ps = rng.uniform(1e-9, 1.0, size=int(rng.integers(1, 30)))
        adjusted = bh_fdr(ps)
        assert all(q >= p for p, q in zip(ps, adjusted))
        assert all(q <= 1.0 for q in adjusted)

    rejections = 0
    n_datasets = 1000
    for _ in range(n_datasets):
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        if wilcoxon_signed_rank(a, b).p_value < 0.05:
            rejections += 1
    fraction = rejections / n_datasets
    half_width = 2.576 * math.sqrt(0.05 * 0.95 / n_datasets)
    assert abs(fraction - 0.05) <= half_width, fraction
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"BH/null-calibration block took {elapsed:.2f}s"


def test_nifti_round_trip_all_datatypes(tmp_path):
    """Exact voxel and header round-trip; byte-swapped copies parse alike."""
    rng = np.random.default_rng(6_000_000)
    for code in sorted(DATATYPES):
        dtype, _ = DATATYPES[code]
        if dtype.kind == "f":
            data = rng.normal(size=(7, 6, 5)).astype(dtype).astype(np.float64)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, size=(7, 6, 5)).astype(np.float64)
        vol = Volume3D(data=data, spacing=(0.8, 0.9, 1.1), affine=np.eye(3, 4))
        path = tmp_path / f"dt{code}.nii"
        write_volume(vol, path, datatype=code)
        back = read_volume(path, "intensity")
        assert np.array_equal(back.data, data)
        assert back.dims == (7, 6, 5)
        assert back.spacing == tuple(np.float32(s) for s in vol.spacing)

        swapped = tmp_path / f"dt{code}_be.nii"
        swapped.write_bytes(byteswap_file(path.read_bytes(), dtype.itemsize))
        other = read_volume(swapped, "intensity")
        assert np.array_equal(other.data, back.data)
        assert other.spacing == back.spacing


def test_contrast_sanity():
    """Offset 6, noise SD 1: contrast within 3 SE of 6 for 20 seeds."""
    for seed in range(20):
        spec = PhantomSpec(dims=(40, 40, 40), n_tubes=3, length_range=(8.0, 12.0),
                           tube_offset=6.0, bg_sd=1.0, seed=7_000_000 + seed)
        image, truth, _ = generate(spec)
        _, _, contrast = contrast_stat(image, truth, 26)
        n_mask = truth.foreground_count
        n_shell = shell(truth, 26).foreground_count
        se = math.sqrt(1.0 / n_mask + 1.0 / n_shell)
        assert abs(contrast - 6.0) <= 3 * se, (seed, contrast)


SITE_SIZES = {"ADNI": 10, "AF": 10, "ASC": 4, "HBA": 5, "FTD": 4, "MCIS": 7}


def test_harness_shapes():
    """6-site/40-subject LOSOCV matrix, hand pooling, balanced 5FCV."""
    from test_harness import cohort_manifest, metric_record, site_records

    manifest = cohort_manifest()
    assert len(manifest) == 40

    # per-subject records with dyadic metric values so sums are exact
    per_site = {}
    site_values = {}
    i = 0
    for record in manifest:
        value = (i % 29) / 32.0
        i += 1
        per_site.setdefault(record.site, []).append(
            metric_record(record.subject_id, dsc_vox=value))
        site_values.setdefault(record.site, []).append(value)

    sites = sorted(SITE_SIZES)
    records, site_of = site_records(per_site)
    rows = losocv_table(aggregate(records, site_of))
    row = next(r for r in rows if r.metric == "dsc_vox")
    assert sorted(row.external) == sites  # 6 external columns
    pooled = [v for site in sites for v in site_values[site]]
    hand_mean = sum(pooled) / len(pooled)
    assert row.average.mean == hand_mean
    assert row.average.n_used == 40
    hand_sd = math.sqrt(sum((v - hand_mean) ** 2 for v in pooled) / 39)
    assert row.average.sd == pytest.approx(hand_sd, abs=1e-12)
    for site in sites:
        cell_mean = sum(site_values[site]) / len(site_values[site])
        assert row.external[site].mean == pytest.approx(cell_mean, abs=1e-15)

    spec = make_folds(manifest, "5fcv", seed=5)
    from collections import Counter

    sizes = sorted(Counter(spec.assignments.values()).values())
    assert sizes == [8, 8, 8, 8, 8]
    assert make_folds(manifest, "5fcv", seed=5).assignments == spec.assignments
    for site in sites:
        per_fold = Counter(f for sid, f in spec.assignments.items()
                           if sid.startswith(site))
        counts = [per_fold.get(f"fold{k}", 0) for k in range(5)]
        assert max(counts) - min(counts) <= 1


def test_performance_single_pair():
    """Metrics + CCL for one 320x300x208 pair in under 2 s."""
    spec = PhantomSpec(dims=(320, 300, 208), n_tubes=30, length_range=(12.0, 30.0),
                       bg_sd=1.0, seed=8_000_000)
    _, truth, count = generate(spec)
    assert count == 30
    pred = perturb(truth, Perturbation(kind="delete_fraction", fraction=0.3), seed=1)

    start = time.perf_counter()
    (record,) = evaluate_subject(pred, truth, None, 26, "perf")
    elapsed = time.perf_counter() - start
    assert record.n_manual == 30
    assert elapsed < 2.0, f"single-pair evaluation took {elapsed:.2f}s"


def test_performance_manifest(tmp_path):
    """40-subject manifest evaluated with 4 workers in under 30 s."""
    records = []
    base = tmp_path / "vols"
    base.mkdir()
    seed = 0
    for site, count in SITE_SIZES.items():
        for i in range(count):
            sid = f"{site}{i:02d}"
            spec = PhantomSpec(dims=(96, 96, 96), n_tubes=6,
                               length_range=(8.0, 20.0), seed=9_000_000 + seed)
            _, truth, _ = generate(spec)
            pred = perturb(truth, Perturbation(kind="delete_fraction", fraction=0.2),
                           seed=seed)
            write_volume(truth, base / f"{sid}_ref.nii.gz", datatype=2)
            write_volume(pred, base / f"{sid}_pred.nii.gz", datatype=2)
            records.append(SubjectRecord(sid, site,
                                         str(base / f"{sid}_pred.nii.gz"),
                                         str(base / f"{sid}_ref.nii.gz")))
            seed += 1
    write_manifest(records, tmp_path / "manifest.csv")

    start = time.perf_counter()
    per_subject, failures = evaluate_manifest(records, connectivity=26, workers=4)
    elapsed = time.perf_counter() - start
    assert len(per_subject) == 40 and failures == []
    reports = aggregate(per_subject, {r.subject_id: r.site for r in records})
    assert reports[0].n_subjects == 40
    assert elapsed < 30.0, f"manifest evaluation took {elapsed:.2f}s"

import csv

import numpy as np
import pytest

from pvseval.cli import main
from pvseval.errors import DimMismatchError, LengthMismatchError
from pvseval.metrics import (
    RoiMask,
    cluster_metrics,
    evaluate_subject,
    pearson_r,
    voxel_metrics,
)
from pvseval.nifti import write_volume

from conftest import make_mask
from oracles import bfs_label, pearson_two_pass


def blank(shape=(16, 16, 16)):
    return np.zeros(shape, bool)


def cluster_metrics_26(pred, ref):
    """cluster_metrics under 26-connectivity, called as voxel_metrics is."""
    return cluster_metrics(pred, ref, 26)


LEVELS = (voxel_metrics, cluster_metrics_26)


def seeded_pair(seed, shape=(10, 10, 10), density=0.25):
    rng = np.random.default_rng(seed)
    return (make_mask(rng.random(shape) < density),
            make_mask(rng.random(shape) < density))


class TestVoxelMetrics:
    def test_constructed_counts(self):
        ref = blank()
        ref[0:10, 2, 2] = True  # 10 voxels
        pred = blank()
        pred[0:6, 2, 2] = True  # 6 overlapping
        pred[12, 12, 12] = pred[12, 12, 13] = True  # 2 false positives
        counts, dsc, sen, ppv = voxel_metrics(make_mask(pred), make_mask(ref))
        assert (counts.overlap, counts.manual, counts.algo) == (6, 10, 8)
        assert dsc == pytest.approx(2 * 6 / 18, abs=1e-15)
        assert sen == pytest.approx(0.6, abs=1e-15)
        assert ppv == pytest.approx(0.75, abs=1e-15)

    def test_identical_masks(self):
        m, _ = seeded_pair(1)
        _, dsc, sen, ppv = voxel_metrics(m, m)
        assert dsc == sen == ppv == 1.0

    def test_disjoint_masks(self):
        a = blank(); a[0, 0, 0] = True
        b = blank(); b[5, 5, 5] = True
        _, dsc, sen, ppv = voxel_metrics(make_mask(a), make_mask(b))
        assert dsc == sen == ppv == 0.0

    # the degenerate cases run at both levels, which share one convention
    def test_both_empty_undefined(self):
        empty = make_mask(blank())
        for level in LEVELS:
            _, dsc, sen, ppv = level(empty, empty)
            assert dsc is None and sen is None and ppv is None, level.__name__

    def test_ref_empty(self):
        pred = blank(); pred[1, 1, 1] = True
        for level in LEVELS:
            _, dsc, sen, ppv = level(make_mask(pred), make_mask(blank()))
            assert dsc == 0.0 and sen is None and ppv == 0.0, level.__name__

    def test_pred_empty(self):
        ref = blank(); ref[1, 1, 1] = True
        for level in LEVELS:
            _, dsc, sen, ppv = level(make_mask(blank()), make_mask(ref))
            assert dsc == 0.0 and sen == 0.0 and ppv is None, level.__name__

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            voxel_metrics(make_mask(blank((4, 4, 4))), make_mask(blank((5, 4, 4))))

    def test_symmetry_and_role_swap(self):
        for seed in range(20):
            pred, ref = seeded_pair(seed)
            _, dsc_ab, sen_ab, ppv_ab = voxel_metrics(pred, ref)
            _, dsc_ba, sen_ba, ppv_ba = voxel_metrics(ref, pred)
            assert dsc_ab == dsc_ba
            assert sen_ab == ppv_ba
            assert ppv_ab == sen_ba

    def test_harmonic_mean_identity(self):
        for seed in range(20):
            pred, ref = seeded_pair(seed, density=0.4)
            _, dsc, sen, ppv = voxel_metrics(pred, ref)
            if sen and ppv:
                assert abs(dsc - 2 * sen * ppv / (sen + ppv)) < 1e-12
            for v in (dsc, sen, ppv):
                if v is not None:
                    assert 0.0 <= v <= 1.0


class TestClusterMetrics:
    def test_handbuilt_scene(self):
        ref = blank()
        ref[0:3, 0, 0] = True   # M1
        ref[0:3, 4, 4] = True   # M2
        ref[0:3, 8, 8] = True   # M3, untouched
        pred = blank()
        pred[1, 0, 0] = True    # A1 hits M1
        pred[1, 4, 4] = True    # A2 hits M2
        pred[12, 0, 0] = True   # A3, false positive
        pred[12, 8, 8] = True   # A4, false positive
        counts, dsc, sen, ppv = cluster_metrics(make_mask(pred), make_mask(ref), 26)
        assert (counts.n_manual, counts.n_algo) == (3, 4)
        assert (counts.n_manual_hit, counts.n_algo_hit) == (2, 2)
        assert sen == pytest.approx(2 / 3, abs=1e-15)
        assert ppv == pytest.approx(0.5, abs=1e-15)
        assert dsc == pytest.approx(4 / 7, abs=1e-15)

    def test_identical_masks(self):
        m, _ = seeded_pair(2)
        _, dsc, sen, ppv = cluster_metrics(m, m, 26)
        assert dsc == sen == ppv == 1.0

    def test_many_to_one_spanning(self):
        ref = blank()
        ref[0:2, 0, 0] = True
        ref[6:8, 0, 0] = True
        pred = blank()
        pred[0:8, 0, 0] = True
        counts, dsc, sen, ppv = cluster_metrics(make_mask(pred), make_mask(ref), 26)
        assert (counts.n_manual, counts.n_algo) == (2, 1)
        assert (counts.n_manual_hit, counts.n_algo_hit) == (2, 1)
        assert dsc == sen == ppv == 1.0

    def test_hit_counts_against_enumeration(self):
        # brute-force: a cluster is hit iff any of its voxels is in the other mask
        from pvseval.ccl import label_components

        for seed in range(10):
            pred, ref = seeded_pair(seed, shape=(8, 8, 8), density=0.15)
            counts, _, sen, ppv = cluster_metrics(pred, ref, 26)
            ref_lm = label_components(ref, 26)
            pred_lm = label_components(pred, 26)
            manual_hits = 0
            for cid in range(1, ref_lm.component_count + 1):
                if pred.data[ref_lm.data == cid].any():
                    manual_hits += 1
            algo_hits = 0
            for cid in range(1, pred_lm.component_count + 1):
                if ref.data[pred_lm.data == cid].any():
                    algo_hits += 1
            assert counts.n_manual_hit == manual_hits
            assert counts.n_algo_hit == algo_hits
            if counts.n_manual:
                assert (sen == 1.0) == (manual_hits == counts.n_manual)
            if counts.n_algo:
                assert (ppv == 1.0) == (algo_hits == counts.n_algo)


def dense_hits(pred, ref, conn):
    """(n_manual_hit, n_algo_hit) from flood-fill labels on dense grids."""
    manual = np.unique(bfs_label(ref, conn)[pred])
    algo = np.unique(bfs_label(pred, conn)[ref])
    return int(np.count_nonzero(manual)), int(np.count_nonzero(algo))


@pytest.mark.parametrize("conn", [6, 18, 26])
@pytest.mark.parametrize("density", [0.03, 0.2, 0.45])
def test_hit_tests_match_dense_oracle(conn, density):
    rng = np.random.default_rng(int(density * 100) + conn)
    shape = (9, 10, 11)
    roi = np.zeros(shape, bool)
    roi[2:8, 1:9, 3:10] = True
    for _ in range(3):
        pred = rng.random(shape) < density
        ref = rng.random(shape) < density
        counts, *_ = cluster_metrics(make_mask(pred), make_mask(ref), conn)
        assert (counts.n_manual_hit, counts.n_algo_hit) == dense_hits(pred, ref, conn)
        vox, *_ = voxel_metrics(make_mask(pred), make_mask(ref))
        assert vox.overlap == np.count_nonzero(pred & ref)
        wm = [RoiMask(make_mask(roi), "WM", empty=False)]
        for rois, restrict in ((None, np.ones(shape, bool)), (wm, roi)):
            (record,) = evaluate_subject(make_mask(pred), make_mask(ref), rois, conn)
            p, r = pred & restrict, ref & restrict
            assert (record.n_manual_hit, record.n_algo_hit) == dense_hits(p, r, conn)
            assert (record.n_manual, record.n_algo) == (
                bfs_label(r, conn).max(), bfs_label(p, conn).max())
            assert record.vol_overlap_vox == np.count_nonzero(p & r)
            assert (record.vol_manual_vox, record.vol_algo_vox) == (r.sum(), p.sum())


class TestPearson:
    def test_perfect_correlation(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert pearson_r(xs, xs) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        ys = [-x + 3 for x in xs]
        assert pearson_r(xs, ys) == pytest.approx(-1.0, abs=1e-12)

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=100)
        ys = 0.3 * xs + rng.normal(size=100)
        assert abs(pearson_r(xs, ys) - pearson_two_pass(xs, ys)) < 1e-12

    def test_undefined_cases(self):
        assert pearson_r([1.0, 2.0], [3.0, 4.0]) is None
        assert pearson_r([1.0, 1.0, 1.0], [3.0, 4.0, 5.0]) is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pearson_r([1.0, 2.0, 3.0], [1.0, 2.0])


class TestEvaluateSubject:
    def test_two_rois_independent(self):
        ref = blank()
        ref[0:4, 2, 2] = True
        ref[10:12, 10, 10] = True
        pred = blank()
        pred[0:2, 2, 2] = True
        pred[10:14, 10, 10] = True
        left = blank(); left[:8] = True
        right = blank(); right[8:] = True
        rois = [RoiMask(make_mask(left), "WM", empty=False),
                RoiMask(make_mask(right), "BG", empty=False)]
        records = evaluate_subject(make_mask(pred), make_mask(ref), rois, 26, "s1")
        assert [r.region for r in records] == ["WM", "BG"]
        wm, bg = records
        assert (wm.vol_manual_vox, wm.vol_algo_vox, wm.vol_overlap_vox) == (4, 2, 2)
        assert (bg.vol_manual_vox, bg.vol_algo_vox, bg.vol_overlap_vox) == (2, 4, 2)
        assert wm.n_manual == wm.n_algo == 1
        assert bg.sen_num == 1.0

    def test_whole_volume_record(self):
        pred, ref = seeded_pair(6)
        records = evaluate_subject(pred, ref, None, 26, "s2")
        assert len(records) == 1
        assert records[0].region == "ALL"
        assert records[0].connectivity == 26

    def test_default_connectivity_is_26(self):
        # two voxels that touch only at a corner are one cluster under 26
        data = blank((4, 4, 4))
        data[1, 1, 1] = data[2, 2, 2] = True
        (record,) = evaluate_subject(make_mask(data), make_mask(data), subject_id="s2")
        assert record.connectivity == 26
        assert record.n_manual == record.n_algo == 1

    def test_empty_roi_flagged(self):
        pred, ref = seeded_pair(7)
        roi = RoiMask(make_mask(blank((10, 10, 10))), "WM", empty=True)
        (record,) = evaluate_subject(pred, ref, [roi], 26, "s3")
        assert record.dsc_vox is None
        assert record.dsc_num is None
        assert "both_empty" in record.degenerate_flags
        assert "empty_region" in record.degenerate_flags

    def test_roi_additivity_of_counts(self):
        pred, ref = seeded_pair(8, shape=(8, 8, 8), density=0.4)
        left = np.zeros((8, 8, 8), bool); left[:4] = True
        right = ~left
        rois = [RoiMask(make_mask(left), "L", empty=False),
                RoiMask(make_mask(right), "R", empty=False)]
        parts = evaluate_subject(pred, ref, rois, 26, "s4")
        (whole,) = evaluate_subject(pred, ref, None, 26, "s4")
        assert sum(p.vol_overlap_vox for p in parts) == whole.vol_overlap_vox
        assert sum(p.vol_manual_vox for p in parts) == whole.vol_manual_vox
        assert sum(p.vol_algo_vox for p in parts) == whole.vol_algo_vox

    def test_csv_row_shape(self, tmp_path):
        pred, ref = seeded_pair(9)
        (record,) = evaluate_subject(pred, ref, None, 26, "s5")
        write_volume(pred, tmp_path / "pred.nii", datatype=2)
        write_volume(ref, tmp_path / "ref.nii", datatype=2)
        assert main(["metrics", "--pred", str(tmp_path / "pred.nii"),
                     "--ref", str(tmp_path / "ref.nii"), "--subject-id", "s5",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "metrics.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["subject_id"] == "s5"
        assert row["connectivity"] == "26"
        assert row["degenerate_flags"] == ""
        assert float(row["dsc_vox"]) == record.dsc_vox

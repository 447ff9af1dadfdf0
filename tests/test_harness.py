import json
import math
import tracemalloc
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from pvseval import harness
from pvseval.errors import (
    EmptyManifestError,
    InputError,
    TooFewSitesError,
)
from pvseval.harness import (
    FoldSpec,
    SubjectRecord,
    aggregate,
    evaluate_manifest,
    evaluate_record,
    losocv_table,
    make_folds,
    read_manifest,
    read_subject,
    summarize_metric,
    write_manifest,
)
from pvseval.metrics import METRIC_NAMES, SubjectMetrics
from pvseval.nifti import BinaryMask, write_volume

# site sizes of a 40-subject, 6-site cohort
SITE_SIZES = {"ADNI": 10, "AF": 10, "ASC": 4, "HBA": 5, "FTD": 4, "MCIS": 7}


def cohort_manifest():
    records = []
    for site, count in SITE_SIZES.items():
        for i in range(count):
            sid = f"{site}_{i:02d}"
            records.append(SubjectRecord(sid, site, f"{sid}_pred.nii", f"{sid}_ref.nii"))
    return records


def metric_record(subject_id, region="WM", **overrides) -> SubjectMetrics:
    values = dict(
        dsc_vox=0.5, sen_vox=0.5, ppv_vox=0.5, dsc_num=0.5, sen_num=0.5, ppv_num=0.5,
        vol_manual_vox=100, vol_algo_vox=90, vol_overlap_vox=50,
        vol_manual_mm3=100.0, vol_algo_mm3=90.0,
        n_manual=10, n_algo=9, n_manual_hit=5, n_algo_hit=5,
        degenerate_flags=(),
    )
    values.update(overrides)
    return SubjectMetrics(subject_id=subject_id, region=region, connectivity=26, **values)


def site_records(per_site):
    """(records, subject_id -> site) of a site -> records mapping."""
    records = [r for site_rows in per_site.values() for r in site_rows]
    return records, {r.subject_id: site for site, rows in per_site.items() for r in rows}


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.csv"
        records = cohort_manifest()
        write_manifest(records, path)
        assert read_manifest(path) == records

    def test_missing_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("subject_id,site\ns1,A\n")
        with pytest.raises(InputError, match="pred_path"):
            read_manifest(path)

    def test_duplicate_subject(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "subject_id,site,pred_path,ref_path\ns1,A,p,r\ns1,B,p,r\n"
        )
        with pytest.raises(InputError, match="row 3.*duplicate"):
            read_manifest(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("subject_id,site,pred_path,ref_path\n")
        with pytest.raises(EmptyManifestError):
            read_manifest(path)

    def test_no_header(self, tmp_path):
        # read_csv's message, as a per-subject CSV gives; not EmptyManifestError
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(InputError) as got:
            read_manifest(path)
        assert type(got.value) is InputError
        assert str(got.value) == f"{path}: empty CSV"

    def test_not_utf8_line_counts_a_leading_newline(self, tmp_path):
        # lines are counted from the file's first byte, here a newline
        path = tmp_path / "m.csv"
        path.write_bytes(b"\nsubject_id,site,pred\xff_path,ref_path\n")
        with pytest.raises(InputError) as got:
            read_manifest(path)
        assert str(got.value) == f"{path}: line 2: not UTF-8 text (invalid start byte at byte 21)"

    def test_image_path_column_ignored(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "subject_id,site,pred_path,ref_path,roi_wm_path,roi_bg_path,image_path\n"
            "s1,A,p1,r1,wm1,,t1.nii.gz\ns2,B,p2,r2,,,\n"
        )
        assert read_manifest(path) == [
            SubjectRecord("s1", "A", "p1", "r1", roi_wm_path="wm1"),
            SubjectRecord("s2", "B", "p2", "r2"),
        ]


class TestMakeFolds:
    def test_losocv_folds_are_sites(self):
        spec = make_folds(cohort_manifest(), "losocv")
        assert spec.scheme == "losocv"
        assert set(spec.assignments.values()) == set(SITE_SIZES)
        for record in cohort_manifest():
            assert spec.assignments[record.subject_id] == record.site

    def test_losocv_needs_two_sites(self):
        records = [SubjectRecord(f"s{i}", "only", "p", "r") for i in range(4)]
        with pytest.raises(TooFewSitesError):
            make_folds(records, "losocv")

    def test_5fcv_balanced_overall(self):
        spec = make_folds(cohort_manifest(), "5fcv", seed=3)
        sizes = Counter(spec.assignments.values())
        assert sorted(sizes.values()) == [8, 8, 8, 8, 8]

    def test_5fcv_stratified_within_site(self):
        spec = make_folds(cohort_manifest(), "5fcv", seed=3)
        for site, total in SITE_SIZES.items():
            per_fold = Counter(
                fold for sid, fold in spec.assignments.items() if sid.startswith(site)
            )
            counts = [per_fold.get(f"fold{k}", 0) for k in range(5)]
            assert max(counts) - min(counts) <= 1
            assert sum(counts) == total

    def test_replay_deterministic(self):
        a = make_folds(cohort_manifest(), "5fcv", seed=11)
        b = make_folds(cohort_manifest(), "5fcv", seed=11)
        assert a.assignments == b.assignments
        c = make_folds(cohort_manifest(), "5fcv", seed=12)
        assert a.assignments != c.assignments

    def test_empty_manifest(self):
        with pytest.raises(EmptyManifestError):
            make_folds([], "5fcv")

    def test_unknown_scheme(self):
        with pytest.raises(InputError) as got:
            make_folds(cohort_manifest(), "loso")
        assert str(got.value) == "scheme must be '5fcv' or 'losocv', got 'loso'"

    def test_foldspec_json_round_trip(self):
        spec = make_folds(cohort_manifest(), "5fcv", seed=1)
        assert FoldSpec(**json.loads(json.dumps(asdict(spec)))) == spec


class TestAggregate:
    def test_single_subject(self):
        reports = aggregate([metric_record("s1", dsc_vox=0.7)])
        (report,) = reports
        cell = report.metrics["dsc_vox"]
        assert cell.mean == 0.7
        assert cell.sd == 0.0
        assert cell.n_used == 1

    def test_two_subject_mean_sd(self):
        reports = aggregate(
            [metric_record("s1", dsc_vox=0.4), metric_record("s2", dsc_vox=0.6)]
        )
        cell = reports[0].metrics["dsc_vox"]
        assert cell.mean == pytest.approx(0.5, abs=1e-15)
        assert cell.sd == pytest.approx(math.sqrt(0.02), abs=1e-12)

    def test_undefined_excluded_and_counted(self):
        records = [metric_record(f"s{i}", dsc_vox=0.5) for i in range(4)]
        records.append(metric_record("s4", dsc_vox=None, degenerate_flags=("both_empty",)))
        cell = aggregate(records)[0].metrics["dsc_vox"]
        assert cell.n_used == 4
        assert cell.n_excluded == 1
        assert cell.mean == 0.5

    def test_permutation_invariant(self):
        records = [metric_record(f"s{i}", dsc_vox=v)
                   for i, v in enumerate([0.2, 0.9, 0.4, 0.6])]
        forward = aggregate(records)[0].metrics["dsc_vox"]
        backward = aggregate(records[::-1])[0].metrics["dsc_vox"]
        assert forward == backward

    def test_per_site_rows(self):
        records = [metric_record("s1", dsc_vox=0.4), metric_record("s2", dsc_vox=0.8)]
        site_of = {"s1": "A", "s2": "B"}
        reports = aggregate(records, site_of)
        assert [(r.region, r.site) for r in reports] == [
            ("WM", "All Sites"), ("WM", "A"), ("WM", "B")]
        assert reports[1].metrics["dsc_vox"].mean == 0.4
        assert reports[2].metrics["dsc_vox"].mean == 0.8

    def test_correlations(self):
        records = [
            metric_record("s1", vol_manual_vox=10, vol_algo_vox=11, n_manual=3, n_algo=4),
            metric_record("s2", vol_manual_vox=20, vol_algo_vox=19, n_manual=6, n_algo=5),
            metric_record("s3", vol_manual_vox=30, vol_algo_vox=33, n_manual=9, n_algo=10),
        ]
        (report,) = aggregate(records)
        assert report.r_vox == pytest.approx(
            np.corrcoef([10, 20, 30], [11, 19, 33])[0, 1], abs=1e-12
        )
        assert report.r_num is not None

    def test_summarize_all_undefined(self):
        cell = summarize_metric([None, None])
        assert cell.mean is None and cell.n_used == 0 and cell.n_excluded == 2


class TestLosocvTable:
    def test_two_site_hand_pooling(self):
        per_site = {
            "A": [metric_record("a1", dsc_vox=0.2), metric_record("a2", dsc_vox=0.4)],
            "B": [metric_record("b1", dsc_vox=0.9)],
        }
        records, site_of = site_records(per_site)
        rows = losocv_table(aggregate(records, site_of), ["A", "B"])
        row = next(r for r in rows if r.metric == "dsc_vox")
        assert row.external["A"].mean == pytest.approx(0.3, abs=1e-15)
        assert row.external["B"].mean == 0.9
        # subject-weighted: (0.2 + 0.4 + 0.9)/3, not the mean of cell means
        assert row.average.mean == pytest.approx(1.5 / 3, abs=1e-15)
        assert row.average.n_used == 3
        values = [0.2, 0.4, 0.9]
        hand_sd = math.sqrt(sum((v - 0.5) ** 2 for v in values) / 2)
        assert row.average.sd == pytest.approx(hand_sd, abs=1e-12)

    def test_row_shape(self):
        per_site = {
            "A": [metric_record("a1"), metric_record("a1b", region="BG")],
            "B": [metric_record("b1"), metric_record("b1b", region="BG")],
        }
        records, site_of = site_records(per_site)
        rows = losocv_table(aggregate(records, site_of), ["A", "B"])
        assert len(rows) == 2 * len(METRIC_NAMES)
        assert {r.region for r in rows} == {"WM", "BG"}


def test_scoring_a_subject_holds_no_mask_grid(tmp_path):
    """evaluate_record on a sparse 128^3 subject with two box ROIs peaks
    below one bool grid of traced memory. The masks are held as their
    foreground indices, and each ROI is gathered at their voxels, so only
    a few decoder blocks are ever held. Reading the four files into grids
    peaks at about seven grids."""
    dims = (128, 128, 128)
    grid_bytes = math.prod(dims)  # one bool grid
    rng = np.random.default_rng(12)
    ref = rng.random(dims) < 0.001
    pred = (ref & (rng.random(dims) < 0.7)) | (rng.random(dims) < 0.0003)
    wm, bg = np.zeros(dims, bool), np.zeros(dims, bool)
    wm[6:122, 6:122, 25:97] = True  # ~45 % of the grid
    bg[38:77, 38:96, 102:122] = True
    paths = {}
    for name, data in (("pred", pred), ("ref", ref), ("wm", wm), ("bg", bg)):
        paths[name] = str(tmp_path / f"{name}.nii.gz")
        write_volume(BinaryMask(data, (1.0, 1.0, 1.0), np.eye(3, 4)), paths[name], datatype=2)
    record = SubjectRecord("s", "A", paths["pred"], paths["ref"], paths["wm"], paths["bg"])
    del pred, ref, wm, bg
    tracemalloc.start()
    try:
        rows = evaluate_record(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.region for r in rows] == ["WM", "BG"] and rows[0].vol_manual_vox > 0
    assert peak < grid_bytes, peak / grid_bytes


def test_read_subject_holds_indices_and_gathers_each_roi_at_the_union(tmp_path, monkeypatch):
    dims = (20, 18, 16)
    rng = np.random.default_rng(5)
    ref = rng.random(dims) < 0.05
    pred = (ref & (rng.random(dims) < 0.6)) | (rng.random(dims) < 0.02)
    wm = np.zeros(dims, bool)
    wm[:, :9, :] = True
    pred[19, 17, 15] = ref[19, 17, 15] = False
    bg = np.zeros(dims, bool)
    bg[19, 17, 15] = True  # its only foreground, off both masks
    paths = []
    for name, data in (("pred", pred), ("ref", ref), ("wm", wm), ("bg", bg)):
        paths.append(str(tmp_path / f"{name}.nii.gz"))
        write_volume(BinaryMask(data, (1.0, 1.0, 1.0), np.eye(3, 4)), paths[-1], datatype=2)
    read = []
    for name in ("read_volume", "read_mask_voxels"):
        def recording(path, *args, _read=getattr(harness, name)):
            read.append(path)
            return _read(path, *args)
        monkeypatch.setattr(harness, name, recording)
    got_pred, got_ref, rois = read_subject(*paths)
    assert read == paths
    for mask, data in ((got_pred, pred), (got_ref, ref)):
        assert "data" not in vars(mask)
        assert np.array_equal(mask.fg_index, np.flatnonzero(data.ravel("F")))
    assert [r.region for r in rois] == ["WM", "BG"]
    for roi, data in zip(rois, (wm, bg)):
        assert "data" not in vars(roi.mask) and roi.mask.dims == dims
        index = roi.mask.fg_index
        assert np.array_equal(index, np.flatnonzero((data & (pred | ref)).ravel("F")))
        assert (np.diff(index) > 0).all()
        assert roi.empty is (not data.any())
    assert rois[1].mask.foreground_count == 0 and rois[1].empty is False


def pool_sizes(monkeypatch, manifest, workers):
    """The worker count of each pool evaluate_manifest builds, recorded by a
    fake pool that forks none; every subject must still be scored."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    scored = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "evaluate_record",
                        lambda record, connectivity, strict: scored.append(record) or [])
    assert evaluate_manifest(manifest, workers=workers) == ([], [])
    assert scored == manifest
    return sizes


@pytest.mark.parametrize("workers, expected", [(5000, 3), (3, 3), (2, 2)])
def test_pool_has_no_more_workers_than_subjects(monkeypatch, workers, expected):
    """A fork pool starts every worker it is given up front, so the count is
    capped at the manifest's size."""
    assert pool_sizes(monkeypatch, cohort_manifest()[:3], workers) == [expected]


@pytest.mark.parametrize("workers, subjects", [(1, 3), (4, 1)])
def test_no_pool_for_one_worker_or_one_subject(monkeypatch, workers, subjects):
    """One worker, or one subject, is scored in process."""
    assert pool_sizes(monkeypatch, cohort_manifest()[:subjects], workers) == []

import math

import numpy as np
import pytest

import oracles
from pvseval import phantom
from pvseval.ccl import label_components
from pvseval.errors import BadParameterError, InfeasiblePackingError
from pvseval.metrics import cluster_metrics, evaluate_subject, voxel_metrics
from pvseval.morphology import contrast_stat, shell
from pvseval.nifti import BinaryMask
from pvseval.phantom import Perturbation, PhantomSpec, generate, perturb


def small_spec(**overrides):
    defaults = dict(dims=(40, 40, 40), n_tubes=3, length_range=(8.0, 14.0), seed=1)
    defaults.update(overrides)
    return PhantomSpec(**defaults)


class TestGenerate:
    def test_deterministic(self):
        image_a, truth_a, _ = generate(small_spec())
        image_b, truth_b, _ = generate(small_spec())
        assert np.array_equal(image_a.data, image_b.data)
        assert np.array_equal(truth_a.data, truth_b.data)

    def test_zero_tubes(self):
        image, truth, count = generate(small_spec(n_tubes=0))
        assert count == 0
        assert truth.foreground_count == 0
        assert image.data.std() > 0.5  # still pure noise

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cluster_count_guarantee(self, seed):
        spec = small_spec(dims=(48, 48, 48), n_tubes=5, seed=seed)
        _, truth, count = generate(spec)
        assert count == 5
        assert label_components(truth, 26).component_count == 5

    def test_self_evaluation_is_perfect(self):
        _, truth, _ = generate(small_spec())
        (record,) = evaluate_subject(truth, truth, None, 26, "phantom")
        assert record.dsc_vox == record.sen_vox == record.ppv_vox == 1.0
        assert record.dsc_num == record.sen_num == record.ppv_num == 1.0

    def test_contrast_near_offset(self):
        spec = small_spec(dims=(48, 48, 48), tube_offset=6.0, bg_sd=1.0, seed=4)
        image, truth, _ = generate(spec)
        _, _, contrast = contrast_stat(image, truth, 26)
        n_mask = truth.foreground_count
        n_shell = shell(truth, 26).foreground_count
        se = spec.bg_sd * math.sqrt(1 / n_mask + 1 / n_shell)
        assert abs(contrast - 6.0) <= 3 * se

    def test_negative_offset(self):
        spec = small_spec(tube_offset=-6.0, seed=5)
        image, truth, _ = generate(spec)
        assert image.data[truth.data].mean() < image.data[~truth.data].mean()

    def test_infeasible_packing(self):
        spec = PhantomSpec(dims=(16, 16, 16), n_tubes=40, clearance=6.0,
                           length_range=(8.0, 10.0), seed=0)
        with pytest.raises(InfeasiblePackingError):
            generate(spec)

    def test_validation(self):
        with pytest.raises(BadParameterError):
            generate(small_spec(clearance=1.0))
        with pytest.raises(BadParameterError):
            generate(small_spec(radius_range=(2.0, 1.0)))
        with pytest.raises(BadParameterError):
            generate(small_spec(n_tubes=-1))

    def test_clearance_of_exactly_two_keeps_tubes_apart(self):
        spec = small_spec(dims=(32, 32, 32), n_tubes=6, clearance=2.0, seed=2)
        _, truth, count = generate(spec)
        assert count == 6
        assert label_components(truth, 26).component_count == 6

    def test_grid_extent_of_exactly_eight(self):
        spec = small_spec(dims=(8, 24, 24), n_tubes=1, radius_range=(0.5, 1.0),
                          length_range=(4.0, 6.0))
        _, truth, count = generate(spec)
        assert count == 1 and truth.dims == (8, 24, 24)

    def test_polyline_samples_lie_at_most_a_step_apart(self):
        spec = small_spec(bend_amplitude=0.0, length_range=(0.6, 12.0))
        rng = np.random.default_rng(3)
        for _ in range(200):
            points, _ = phantom._polyline(rng, spec)
            steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
            assert len(points) >= 3 and steps.max() <= phantom._SAMPLE_STEP + 1e-12

    def test_polyline_no_longer_than_a_step_is_its_two_end_points(self):
        spec = small_spec(length_range=(0.1, 0.5))
        rng = np.random.default_rng(4)
        for _ in range(50):
            points, _ = phantom._polyline(rng, spec)
            assert len(points) == 2
            assert np.linalg.norm(points[1] - points[0]) <= phantom._SAMPLE_STEP

    def test_placed_tubes_keep_the_padded_clearance(self, monkeypatch):
        # a crowded grid: some placed pairs' point boxes come within the
        # prefilter's reach, so only the point distance test keeps them apart
        spec = PhantomSpec(dims=(32, 32, 32), n_tubes=8, clearance=2.0, seed=5)
        tubes = []
        rasterize = phantom._rasterize

        def recording(mask, points, radius):
            tubes.append((points, max(radius, phantom._BACKBONE_REACH)))
            rasterize(mask, points, radius)

        monkeypatch.setattr(phantom, "_rasterize", recording)
        generate(spec)
        assert len(tubes) == spec.n_tubes
        near = 0
        for i, (a, ra) in enumerate(tubes):
            for b, rb in tubes[:i]:
                bound = ra + rb + spec.clearance + phantom._SAMPLE_STEP
                assert phantom._min_point_distance(a, b) >= bound
                gap = np.maximum(np.maximum(a.min(axis=0) - b.max(axis=0),
                                            b.min(axis=0) - a.max(axis=0)), 0.0)
                near += np.sqrt((gap**2).sum()) < bound
        assert near > 0

    def test_tubes_have_tubular_extent(self):
        _, truth, _ = generate(small_spec(seed=6))
        lm = label_components(truth, 26)
        for cid in range(1, lm.component_count + 1):
            coords = np.argwhere(lm.data == cid)
            extent = coords.max(axis=0) - coords.min(axis=0) + 1
            # longest axis span at least the minimum tube length * ~1/sqrt(3)
            assert extent.max() >= 8.0 / math.sqrt(3) - 1


# generate's inputs the rasterizer must get right: the cohort shape, radii
# below the backbone reach up to 3, straight tubes, both offset signs, no
# noise (also at a bg_mean of -0.0), and padded boxes clipped at the grid
RASTER_CORPUS = {
    "cohort-a": PhantomSpec(dims=(80, 80, 80), n_tubes=6, seed=1101),
    "cohort-b": PhantomSpec(dims=(80, 80, 80), n_tubes=6, seed=1102),
    "thin": PhantomSpec(dims=(40, 40, 40), n_tubes=5, radius_range=(0.3, 0.87), seed=3),
    "radius-half": PhantomSpec(dims=(40, 40, 40), n_tubes=4, radius_range=(0.5, 0.5), seed=4),
    "thick": PhantomSpec(dims=(48, 48, 48), n_tubes=3, radius_range=(2.5, 3.0), seed=5),
    "straight": PhantomSpec(dims=(40, 40, 40), n_tubes=4, bend_amplitude=0.0, seed=6),
    "dark": PhantomSpec(dims=(40, 40, 40), n_tubes=4, tube_offset=-6.0, seed=7),
    "flat": PhantomSpec(dims=(40, 40, 40), n_tubes=4, bg_sd=0.0, seed=8),
    "flat-negzero": PhantomSpec(dims=(32, 32, 32), n_tubes=3, bg_mean=-0.0, bg_sd=0.0, seed=9),
    "flat-negzero-dark": PhantomSpec(dims=(32, 32, 32), n_tubes=3, bg_mean=-0.0, bg_sd=0.0,
                                     tube_offset=-6.0, seed=9),
    "edge": PhantomSpec(dims=(28, 24, 20), n_tubes=2, radius_range=(2.0, 3.0),
                        length_range=(6.0, 12.0), seed=0),
}


class _RecordingRng:
    """A Generator that keeps what each normal() call returned."""

    def __init__(self, rng):
        self._rng, self.normals = rng, []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def normal(self, *args, **kwargs):
        out = self._rng.normal(*args, **kwargs)
        self.normals.append(np.copy(out))
        return out


class TestRasterizeOracle:
    """generate is byte-identical to its dense form: every candidate tube
    checked against every placed one (no box pad can clear it), every tube
    rasterized over its whole box (tests/oracles.py), and the image built
    as noise + offset * mask, then copied to Fortran order."""

    @staticmethod
    def dense_generate(spec, monkeypatch):
        rngs = []
        default_rng = np.random.default_rng

        def recording(seed):
            rngs.append(_RecordingRng(default_rng(seed)))
            return rngs[-1]

        with monkeypatch.context() as m:
            m.setattr(phantom, "_BOX_PAD", np.inf)
            m.setattr(phantom, "_rasterize", oracles.dense_rasterize)
            m.setattr(phantom.np.random, "default_rng", recording)
            _, truth, count = generate(spec)
        noise = rngs[0].normals[-1]  # the image noise is the last draw
        return np.asfortranarray(noise + spec.tube_offset * truth.data), truth.data, count

    @pytest.mark.parametrize("name", sorted(RASTER_CORPUS))
    def test_generate_matches_the_dense_form(self, name, monkeypatch):
        spec = RASTER_CORPUS[name]
        image, truth, count = generate(spec)
        want_image, want_truth, want_count = self.dense_generate(spec, monkeypatch)
        assert count == want_count == spec.n_tubes
        for got, want in ((image.data, want_image), (truth.data, want_truth)):
            assert got.flags.f_contiguous and want.flags.f_contiguous
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes(order="A") == want.tobytes(order="A")

    # polylines generate never draws: on integer coordinates with an
    # integer radius, voxels lie exactly radius away along one axis; a
    # repeated point makes a zero-length segment
    POLYLINES = {
        "axis": ([5.0, 5.0, 5.0], [5.0, 5.0, 12.0], 2.0),
        "diagonal": ([3.0, 4.0, 5.0], [9.0, 10.0, 11.0], 3.0),
        "corner": ([0.0, 1.0, 0.0], [4.0, 1.0, 0.0], 1.0),
        "far-corner": ([15.0, 13.0, 11.0], [11.0, 13.0, 9.0], 2.0),
    }

    @pytest.mark.parametrize("name", sorted(POLYLINES))
    @pytest.mark.parametrize("repeat", [False, True])
    def test_rasterize_matches_on_exact_ties(self, name, repeat):
        start, end, radius = self.POLYLINES[name]
        ts = np.linspace(0.0, 1.0, 15)[:, None]
        points = np.array(start) + ts * (np.array(end) - np.array(start))
        if repeat:
            points = np.insert(points, 7, points[7], axis=0)
        got = np.zeros((16, 14, 13), dtype=bool, order="F")
        want = np.zeros((16, 14, 13), dtype=bool, order="F")
        phantom._rasterize(got, points, radius)
        oracles.dense_rasterize(want, points, radius)
        assert np.array_equal(got, want)

    def test_corpus_clips_padded_boxes_at_both_grid_ends(self, monkeypatch):
        calls = []
        rasterize = phantom._rasterize

        def recording(mask, points, radius):
            calls.append((points, radius, np.array(mask.shape) - 1))
            rasterize(mask, points, radius)

        monkeypatch.setattr(phantom, "_rasterize", recording)
        generate(RASTER_CORPUS["edge"])
        assert any((np.floor(p.min(axis=0) - r - 1) < 0).any() for p, r, _ in calls)
        assert any((np.ceil(p.max(axis=0) + r + 1) > top).any() for p, r, top in calls)

    def test_infeasible_packing_places_as_many_tubes_as_the_dense_form(self, monkeypatch):
        # 2,400 candidates, most of them rejected: the box-gap prefilter
        # skips only placed tubes the point test would pass, so the draws agree
        spec = PhantomSpec(dims=(16, 16, 16), n_tubes=8, clearance=6.0,
                           length_range=(8.0, 10.0), seed=0)
        with pytest.raises(InfeasiblePackingError) as got:
            generate(spec)
        with pytest.raises(InfeasiblePackingError) as want:
            self.dense_generate(spec, monkeypatch)
        assert str(got.value) == str(want.value)

    def test_corpus_holds_a_signed_zero_off_the_tubes(self, monkeypatch):
        image, truth, _ = self.dense_generate(RASTER_CORPUS["flat-negzero-dark"], monkeypatch)
        off = image[~truth]
        assert (off == 0).all() and np.signbit(off).any() and not np.signbit(off).all()


class TestValidateFinite:
    @pytest.mark.parametrize("field, value", [
        ("spacing", (1.0, float("nan"), 1.0)),
        ("spacing", (float("inf"), 1.0, 1.0)),
        ("radius_range", (1.0, float("nan"))),
        ("radius_range", (float("-inf"), 1.0)),
        ("length_range", (float("inf"), float("inf"))),
        ("clearance", float("nan")),
        ("clearance", float("inf")),
        ("bend_amplitude", float("nan")),
        ("bg_mean", float("inf")),
        ("bg_mean", float("-inf")),
        ("bg_sd", float("nan")),
        ("tube_offset", float("nan")),
        ("tube_offset", float("-inf")),
    ])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(BadParameterError, match=f"^{field} must be finite"):
            generate(small_spec(**{field: value}))


def _dense_perturb(data: np.ndarray, p: Perturbation, seed: int) -> np.ndarray:
    """perturb on a bool grid: argwhere and the same draw for deletions, a
    slice shift for translations, np.isin on the label grid for drops, and
    the brute-force dilation."""
    rng = np.random.default_rng(seed)
    out = np.array(data, order="F")
    if p.kind == "dilate_once":
        out = oracles.brute_dilate(data, p.connectivity)
    elif p.kind == "delete_fraction":
        coords = np.argwhere(data)
        n_delete = int(round(p.fraction * coords.shape[0]))
        if n_delete:
            sel = coords[rng.choice(coords.shape[0], size=n_delete, replace=False)]
            out[sel[:, 0], sel[:, 1], sel[:, 2]] = False
    elif p.kind == "translate":
        out[...] = False
        if all(abs(d) < n for d, n in zip(p.offset, data.shape)):
            src = tuple(slice(max(-d, 0), n - max(d, 0)) for d, n in zip(p.offset, data.shape))
            dst = tuple(slice(max(d, 0), n - max(-d, 0)) for d, n in zip(p.offset, data.shape))
            out[dst] = data[src]
    else:
        lm = label_components(BinaryMask(data, (1.0, 1.0, 1.0), np.eye(3, 4)), p.connectivity)
        if p.k:
            drop = rng.choice(lm.component_count, size=p.k, replace=False) + 1
            out[np.isin(lm.data, drop)] = False
    return out


def _perturbations(dims):
    nx, ny, nz = dims
    yield from (Perturbation("delete_fraction", fraction=f) for f in (0.0, 0.2, 0.5, 1.0))
    yield from (Perturbation("drop_clusters", k=k, connectivity=c)
                for k in (0, 1, 3) for c in (6, 26))
    yield from (Perturbation("dilate_once", connectivity=c) for c in (6, 26))
    for offset in ((0, 0, 0), (-2, 1, -3), (3, -1, 2), (nx, 0, 0), (0, -ny, 0),
                   (0, 0, nz + 4), (nx - 1, 1 - ny, 0), (-nx - 1, 2, 1)):
        yield Perturbation("translate", offset=offset)


class TestPerturbIndexOracle:
    """perturb builds its result from truth's foreground index; it equals
    the dense reference byte for byte, and no grid is painted for it."""

    @pytest.mark.parametrize("truth", ["phantom", "random"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equals_dense_reference(self, truth, seed):
        if truth == "phantom":
            _, mask, _ = generate(small_spec(dims=(30, 26, 22), n_tubes=4, seed=3))
        else:
            data = np.random.default_rng(17).random((13, 11, 9)) < 0.08
            mask = BinaryMask(data, (0.5, 1.0, 2.0), np.eye(3, 4))
        assert label_components(mask, 26).component_count >= 3
        for p in _perturbations(mask.dims):
            out = perturb(mask, p, seed=seed)
            assert "data" not in vars(out), p
            want = _dense_perturb(mask.data, p, seed)
            assert np.array_equal(out.fg_index, np.flatnonzero(want.ravel("F"))), p
            assert out.data.tobytes("F") == want.tobytes("F"), p
            assert out.spacing == mask.spacing and np.array_equal(out.affine, mask.affine)

    def test_index_built_truth(self):
        # a truth read from a file holds only its index
        data = np.random.default_rng(4).random((12, 10, 8)) < 0.1
        dense = BinaryMask(data, (1.0, 1.0, 1.0), np.eye(3, 4))
        sparse = BinaryMask.from_index(dense.fg_index, dense.dims, dense.spacing, dense.affine)
        for p in _perturbations(dense.dims):
            out = perturb(sparse, p, seed=2)
            assert np.array_equal(out.fg_index, perturb(dense, p, seed=2).fg_index), p
        assert "data" not in vars(sparse)


class TestPerturb:
    def test_zero_fraction_identity(self):
        _, truth, _ = generate(small_spec())
        out = perturb(truth, Perturbation(kind="delete_fraction", fraction=0.0))
        assert np.array_equal(out.data, truth.data)
        _, dsc, _, _ = voxel_metrics(out, truth)
        assert dsc == 1.0

    def test_half_deletion_dice(self):
        _, truth, _ = generate(small_spec(seed=7))
        total = truth.foreground_count
        out = perturb(truth, Perturbation(kind="delete_fraction", fraction=0.5), seed=3)
        deleted = total - out.foreground_count
        assert deleted == round(0.5 * total)
        _, dsc, sen, ppv = voxel_metrics(out, truth)
        f_actual = deleted / total
        assert abs(dsc - 2 * (1 - f_actual) / (2 - f_actual)) < 1e-12
        assert ppv == 1.0

    def test_deletion_deterministic(self):
        _, truth, _ = generate(small_spec(seed=8))
        p = Perturbation(kind="delete_fraction", fraction=0.3)
        assert np.array_equal(perturb(truth, p, seed=5).data, perturb(truth, p, seed=5).data)
        assert not np.array_equal(perturb(truth, p, seed=5).data, perturb(truth, p, seed=6).data)

    def test_drop_clusters_metrics(self):
        spec = small_spec(dims=(48, 48, 48), n_tubes=5, seed=9)
        _, truth, _ = generate(spec)
        out = perturb(truth, Perturbation(kind="drop_clusters", k=2), seed=1)
        counts, dsc, sen, ppv = cluster_metrics(out, truth, 26)
        assert counts.n_manual == 5
        assert counts.n_algo == 3
        assert sen == pytest.approx(3 / 5, abs=1e-15)
        assert ppv == 1.0
        assert dsc == pytest.approx((3 + 3) / (5 + 3), abs=1e-15)

    def test_drop_too_many(self):
        _, truth, _ = generate(small_spec())
        with pytest.raises(BadParameterError):
            perturb(truth, Perturbation(kind="drop_clusters", k=99))

    def test_dilate_contains_original(self):
        _, truth, _ = generate(small_spec(seed=10))
        out = perturb(truth, Perturbation(kind="dilate_once"))
        _, _, sen, _ = voxel_metrics(out, truth)
        assert sen == 1.0
        assert out.foreground_count > truth.foreground_count

    def test_translate(self):
        _, truth, _ = generate(small_spec(seed=11))
        out = perturb(truth, Perturbation(kind="translate", offset=(1, 0, 0)))
        assert out.foreground_count <= truth.foreground_count
        assert np.array_equal(out.data[1:], truth.data[:-1])

    def test_bad_parameters(self):
        _, truth, _ = generate(small_spec())
        with pytest.raises(BadParameterError):
            perturb(truth, Perturbation(kind="delete_fraction", fraction=1.5))
        with pytest.raises(BadParameterError):
            perturb(truth, Perturbation(kind="warp"))
        with pytest.raises(BadParameterError):
            perturb(truth, Perturbation(kind="drop_clusters", k=-1))

    def test_bad_connectivity(self):
        with pytest.raises(BadParameterError) as got:
            Perturbation(kind="translate", connectivity=7).validate()
        assert str(got.value) == "connectivity must be one of (6, 18, 26)"

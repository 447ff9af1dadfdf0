import math

import numpy as np
import pytest

from pvseval.ccl import label_components
from pvseval.errors import BadParameterError, InfeasiblePackingError
from pvseval.metrics import cluster_metrics, evaluate_subject, voxel_metrics
from pvseval.morphology import contrast_stat, shell
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

    def test_tubes_have_tubular_extent(self):
        _, truth, _ = generate(small_spec(seed=6))
        lm = label_components(truth, 26)
        for cid in range(1, lm.component_count + 1):
            coords = np.argwhere(lm.data == cid)
            extent = coords.max(axis=0) - coords.min(axis=0) + 1
            # longest axis span at least the minimum tube length * ~1/sqrt(3)
            assert extent.max() >= 8.0 / math.sqrt(3) - 1


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

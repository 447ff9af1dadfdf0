import numpy as np
import pytest

from pvseval.ccl import label_components
from pvseval.errors import DimMismatchError, EmptyMaskError, EmptyShellError, InputError
from pvseval.morphology import (
    contrast_stat,
    contrast_stat_per_cluster,
    dilate_once,
    shell,
)
from pvseval.nifti import Volume3D

from conftest import make_mask
from oracles import brute_contrast, brute_dilate, offsets_for, random_mask


def make_image(data, spacing=(1.0, 1.0, 1.0)):
    affine = np.zeros((3, 4))
    affine[0, 0], affine[1, 1], affine[2, 2] = spacing
    return Volume3D(data=np.asarray(data, float), spacing=spacing, affine=affine)


def exact_cases():
    """(name, image, mask) cases for the exact contrast oracle.

    Image values span nine orders of magnitude (float64, plus one float32
    copy), so any change in summation order shows up in the last bits of a
    mean.
    """
    rng = np.random.default_rng(2024)

    def image(shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 6, size=shape)

    cases = []
    for shape in [(9, 8, 7), (7, 1, 6), (1, 6, 5)]:
        arr = random_mask(rng, shape, 0.3)
        # one foreground voxel on every face of the grid
        for axis in range(3):
            for end in (0, -1):
                at = [n // 2 for n in shape]
                at[axis] = end
                arr[tuple(at)] = True
        cases.append((f"faces{shape}", image(shape), arr))
    blocks = np.zeros((12, 10, 9), bool)
    blocks[1:4, 1:4, 1:4] = True    # 27 voxels
    blocks[6:8, 1:3, 2:6] = True    # 16 voxels
    blocks[2, 6, 3:7] = True        # two 4-voxel rows, one empty voxel
    blocks[4, 6, 3:7] = True        # apart: their rings share voxels
    blocks[11, 9, 8] = True         # a corner voxel
    cases.append(("blocks", image(blocks.shape), blocks))
    cases.append(("blocks_float32", image(blocks.shape).astype(np.float32), blocks))
    # a ring can only be empty when its cluster fills the grid
    cases.append(("full", image((4, 3, 5)), np.ones((4, 3, 5), bool)))
    cases.append(("one_voxel_grid", image((1, 1, 1)), np.ones((1, 1, 1), bool)))
    return cases


class TestExactContrast:
    @pytest.mark.parametrize("conn", [6, 18, 26])
    @pytest.mark.parametrize("name,img,arr", exact_cases(),
                             ids=[c[0] for c in exact_cases()])
    def test_equals_brute_contrast(self, name, img, arr, conn):
        image, mask = Volume3D(img, (1.0, 1.0, 1.0), np.eye(3, 4)), make_mask(arr)
        for fn, per_cluster in ((contrast_stat, False), (contrast_stat_per_cluster, True)):
            expected = brute_contrast(img, arr, conn, per_cluster)
            if expected is None:
                with pytest.raises(EmptyShellError):
                    fn(image, mask, conn)
            else:
                assert fn(image, mask, conn) == expected

    @pytest.mark.parametrize("conn", [6, 18, 26])
    def test_shell_and_dilation_on_edge_cases(self, conn):
        for _, _, arr in exact_cases():
            grown = brute_dilate(arr, conn)
            for fn, want in ((dilate_once, grown), (shell, grown & ~arr)):
                out = fn(make_mask(arr), conn)
                assert "data" not in vars(out)  # built as its index, no grid painted
                assert np.array_equal(out.fg_index, np.flatnonzero(want.ravel("F")))
                assert np.array_equal(out.data, want)


class TestDilate:
    def test_center_voxel_fills_cube(self):
        data = np.zeros((3, 3, 3), bool)
        data[1, 1, 1] = True
        grown = dilate_once(make_mask(data), 26)
        assert grown.foreground_count == 27

    def test_center_voxel_conn6(self):
        data = np.zeros((3, 3, 3), bool)
        data[1, 1, 1] = True
        assert dilate_once(make_mask(data), 6).foreground_count == 7

    def test_empty(self):
        assert dilate_once(make_mask(np.zeros((4, 4, 4), bool)), 26).foreground_count == 0

    @pytest.mark.parametrize("conn", [6, 18, 26])
    def test_matches_brute_force(self, conn):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            arr = random_mask(rng, (10, 10, 10), 0.15)
            grown = dilate_once(make_mask(arr), conn)
            assert np.array_equal(grown.data, brute_dilate(arr, conn))

    def test_monotone(self):
        rng = np.random.default_rng(30)
        arr = random_mask(rng, (8, 8, 8), 0.2)
        grown = dilate_once(make_mask(arr), 26)
        assert np.all(grown.data[arr])
        assert grown.foreground_count >= arr.sum()


class TestShell:
    def test_single_voxel_shell(self):
        data = np.zeros((3, 3, 3), bool)
        data[1, 1, 1] = True
        ring = shell(make_mask(data), 26)
        assert ring.foreground_count == 26
        assert not ring.data[1, 1, 1]

    def test_saturated_grid(self):
        ring = shell(make_mask(np.ones((3, 3, 3), bool)), 26)
        assert ring.foreground_count == 0

    @pytest.mark.parametrize("conn", [6, 18, 26])
    def test_invariants_on_random_masks(self, conn):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            arr = random_mask(rng, (9, 9, 9), 0.2)
            ring = shell(make_mask(arr), conn)
            assert not (ring.data & arr).any()
            assert np.array_equal(ring.data, brute_dilate(arr, conn) & ~arr)
            for x, y, z in np.argwhere(ring.data):
                adjacent = any(
                    0 <= x + dx < 9 and 0 <= y + dy < 9 and 0 <= z + dz < 9
                    and arr[x + dx, y + dy, z + dz]
                    for dx, dy, dz in offsets_for(conn)
                )
                assert adjacent


class TestContrast:
    def test_constant_shell(self):
        img = np.full((3, 3, 3), 4.0)
        img[1, 1, 1] = 10.0
        data = np.zeros((3, 3, 3), bool)
        data[1, 1, 1] = True
        mask_mean, shell_mean, contrast = contrast_stat(make_image(img), make_mask(data))
        assert (mask_mean, shell_mean, contrast) == (10.0, 4.0, 6.0)

    def test_constant_image(self):
        img = np.full((4, 4, 4), 2.5)
        data = np.zeros((4, 4, 4), bool)
        data[1:3, 1:3, 1:3] = True
        assert contrast_stat(make_image(img), make_mask(data))[2] == 0.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(11)
        img = rng.normal(size=(8, 8, 8))
        arr = random_mask(rng, (8, 8, 8), 0.2)
        if not arr.any():
            pytest.skip("empty mask draw")
        mask_mean, shell_mean, contrast = contrast_stat(make_image(img), make_mask(arr))
        ring = brute_dilate(arr, 26) & ~arr
        direct_mask = sum(img[tuple(c)] for c in np.argwhere(arr)) / arr.sum()
        direct_shell = sum(img[tuple(c)] for c in np.argwhere(ring)) / ring.sum()
        assert abs(mask_mean - direct_mask) < 1e-10
        assert abs(shell_mean - direct_shell) < 1e-10
        assert abs(contrast - abs(direct_mask - direct_shell)) < 1e-10

    def test_constant_offset_cancels_in_difference(self):
        # exact on representable means
        img = np.full((3, 3, 3), 4.0)
        img[1, 1, 1] = 10.0
        data = np.zeros((3, 3, 3), bool)
        data[1, 1, 1] = True
        mask_mean, shell_mean, contrast = contrast_stat(make_image(img), make_mask(data))
        for c in (2.5, -8.0, 1024.0):
            assert abs((mask_mean + c) - (shell_mean + c)) == contrast
        # within rounding on arbitrary means
        rng = np.random.default_rng(12)
        img = rng.normal(size=(6, 6, 6))
        arr = random_mask(rng, (6, 6, 6), 0.25)
        mask_mean, shell_mean, contrast = contrast_stat(make_image(img), make_mask(arr))
        assert abs((mask_mean + 2.5) - (shell_mean + 2.5)) == pytest.approx(contrast, abs=1e-12)

    def test_errors(self):
        # both modes run one path; only the empty-shell message is their own
        img = make_image(np.zeros((4, 4, 4)))
        for contrast, no_shell in ((contrast_stat, "mask saturates the grid; shell is empty"),
                                   (contrast_stat_per_cluster, "no cluster has a non-empty shell")):
            for error, data, message in (
                (EmptyMaskError, np.zeros((4, 4, 4), bool), "contrast needs a non-empty mask"),
                (EmptyShellError, np.ones((4, 4, 4), bool), no_shell),
                (DimMismatchError, np.ones((5, 4, 4), bool), "grid mismatch: (4, 4, 4) vs (5, 4, 4)"),
            ):
                with pytest.raises(error) as got:
                    contrast(img, make_mask(data))
                assert str(got.value) == message

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_value_is_counted(self, bad):
        # at a mask voxel and a ring voxel, in both modes and both image
        # forms; one that neither reads is not looked at
        data = np.zeros((6, 6, 6), bool)
        data[2, 2, 2] = data[2, 2, 3] = True
        img = np.zeros((6, 6, 6))
        img[2, 2, 2] = img[3, 3, 3] = img[5, 5, 5] = bad
        image, m = make_image(img), make_mask(data)
        for contrast in (contrast_stat, contrast_stat_per_cluster):
            for form in (image, image.data.ravel("F").__getitem__):
                with pytest.raises(InputError) as got:
                    contrast(form, m, 26)
                assert str(got.value) == "image is NaN or infinite at 2 of the mask and ring voxels"
        img[3, 3, 3] = 0.0
        img[2, 2, 2] = 1.0
        assert contrast_stat(make_image(img), m, 26)[0] == 0.5

    @pytest.mark.parametrize("conn", [6, 18, 26])
    def test_one_cluster_per_cluster_equals_global(self, conn):
        # a 6-connected random walk is one cluster at every connectivity, and
        # the mean of one value is that value, so the two modes agree exactly
        rng = np.random.default_rng(conn)
        data, at = np.zeros((10, 10, 10), bool), np.array([5, 5, 5])
        for axis, step in zip(rng.integers(0, 3, 60), rng.choice([-1, 1], 60)):
            at[axis] = np.clip(at[axis] + step, 1, 8)
            data[tuple(at)] = True
        img, m = make_image(rng.normal(size=data.shape)), make_mask(data)
        assert label_components(m, conn).component_count == 1
        assert contrast_stat_per_cluster(img, m, conn) == contrast_stat(img, m, conn)
        if conn == 26:  # the default of both modes
            assert contrast_stat_per_cluster(img, m) == contrast_stat(img, m) == \
                contrast_stat(img, m, conn)

    def test_per_cluster_mode_two_clusters(self):
        img = np.zeros((9, 3, 3))
        data = np.zeros((9, 3, 3), bool)
        data[1, 1, 1] = True   # cluster at intensity 10, surroundings 0
        data[7, 1, 1] = True   # cluster at intensity 2, surroundings 0
        img[1, 1, 1] = 10.0
        img[7, 1, 1] = 2.0
        mask_mean, shell_mean, contrast = contrast_stat_per_cluster(
            make_image(img), make_mask(data), 26
        )
        assert mask_mean == 6.0   # mean of 10 and 2
        assert shell_mean == 0.0
        assert contrast == 6.0    # mean of |10-0| and |2-0|

    def test_per_cluster_excludes_other_foreground(self):
        # two adjacentish clusters: each ring must not sample the other tube
        img = np.zeros((10, 3, 3))
        data = np.zeros((10, 3, 3), bool)
        data[2, 1, 1] = True
        data[5, 1, 1] = True  # 2 gap voxels away: inside the other's 1-ring? no,
        img[2, 1, 1] = 100.0  # but keep values distinctive anyway
        img[5, 1, 1] = -100.0
        _, shell_mean, _ = contrast_stat_per_cluster(make_image(img), make_mask(data), 26)
        assert shell_mean == 0.0

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvseval.errors import DimMismatchError
from pvseval.metrics import intersect

from conftest import make_mask


def seeded_pair(seed, shape=(8, 8, 8), density=0.4):
    rng = np.random.default_rng(seed)
    return (make_mask(rng.random(shape) < density),
            make_mask(rng.random(shape) < density))


class TestIntersect:
    def test_identity_element(self):
        a = make_mask(np.ones((3, 3, 3), bool))
        b = np.zeros((3, 3, 3), bool)
        b[1, 1, 1] = True
        out = intersect(a, make_mask(b))
        assert out.foreground_count == 1
        assert out.data[1, 1, 1]

    def test_disjoint(self):
        a = np.zeros((3, 3, 3), bool); a[0, 0, 0] = True
        b = np.zeros((3, 3, 3), bool); b[2, 2, 2] = True
        assert intersect(make_mask(a), make_mask(b)).foreground_count == 0

    def test_against_voxel_loop(self):
        a, b = seeded_pair(11)
        expected = sum(
            1
            for x in range(8) for y in range(8) for z in range(8)
            if a.data[x, y, z] and b.data[x, y, z]
        )
        assert intersect(a, b).foreground_count == expected

    @pytest.mark.parametrize("shape, density", [((8, 8, 8), 0.4), ((7, 1, 5), 0.9),
                                                ((9, 6, 4), 0.02), ((4, 4, 4), 0.0)])
    def test_equals_the_dense_and(self, shape, density):
        # the result's grid and its preset, read-only foreground index are
        # those of a & b, for C- and F-ordered inputs alike
        rng = np.random.default_rng(len(shape) + int(100 * density))
        a, b = rng.random(shape) < density, rng.random(shape) < 0.5
        out = intersect(make_mask(a), make_mask(np.ascontiguousarray(b)))
        assert np.array_equal(out.data, a & b)
        assert out.data.flags.f_contiguous and not out.data.flags.writeable
        assert np.array_equal(out.fg_index, np.flatnonzero((a & b).ravel("F")))
        assert not out.fg_index.flags.writeable

    def test_dim_mismatch(self):
        a = make_mask(np.zeros((3, 3, 3), bool))
        b = make_mask(np.zeros((4, 3, 3), bool))
        with pytest.raises(DimMismatchError, match=r"\(3, 3, 3\).*\(4, 3, 3\)"):
            intersect(a, b)

    def test_strict_affine(self):
        a = make_mask(np.zeros((3, 3, 3), bool))
        b = make_mask(np.zeros((3, 3, 3), bool), spacing=(2.0, 2.0, 2.0))
        intersect(a, b)  # lenient default
        with pytest.raises(DimMismatchError):
            intersect(a, b, strict=True)


@given(st.integers(0, 2**31 - 1))
def test_intersect_algebra(seed):
    a, b = seeded_pair(seed, shape=(5, 5, 5))
    ab = intersect(a, b)
    assert np.array_equal(ab.data, intersect(b, a).data)
    assert np.array_equal(intersect(a, a).data, a.data)
    c = seeded_pair(seed + 1, shape=(5, 5, 5))[0]
    assert np.array_equal(
        intersect(intersect(a, b), c).data, intersect(a, intersect(b, c)).data
    )
    assert ab.foreground_count <= min(a.foreground_count, b.foreground_count)


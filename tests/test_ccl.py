import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvseval.ccl import (
    label_components,
    neighbor_offsets,
    size_histogram,
)
from pvseval.errors import EmptyInputError

from conftest import make_mask
from oracles import bfs_label, random_mask, read_nifti_grid


def test_empty_mask():
    lm = label_components(make_mask(np.zeros((4, 4, 4), bool)))
    assert lm.component_count == 0
    assert lm.component_sizes.size == 0
    assert not lm.data.any()


def test_corner_pair_connectivity():
    data = np.zeros((3, 3, 3), bool)
    data[0, 0, 0] = data[1, 1, 1] = True
    m = make_mask(data)
    assert label_components(m, 26).component_count == 1
    assert label_components(m, 18).component_count == 2
    assert label_components(m, 6).component_count == 2


def test_edge_pair_connectivity():
    data = np.zeros((3, 3, 3), bool)
    data[0, 0, 0] = data[0, 1, 1] = True
    m = make_mask(data)
    assert label_components(m, 26).component_count == 1
    assert label_components(m, 18).component_count == 1
    assert label_components(m, 6).component_count == 2


def test_bad_connectivity():
    # neighbor_offsets raises it, on an empty mask as on any other
    for data in (np.zeros((2, 2, 2), bool), np.ones((2, 2, 2), bool)):
        with pytest.raises(ValueError) as got:
            label_components(make_mask(data), 10)
        assert str(got.value) == "connectivity must be one of (6, 18, 26)"


def test_neighbor_offsets_bad_connectivity():
    with pytest.raises(ValueError) as got:
        neighbor_offsets(7)
    assert str(got.value) == "connectivity must be one of (6, 18, 26)"


def test_neighbor_offsets_symmetric():
    for conn in (6, 18, 26):
        offsets = set(neighbor_offsets(conn))
        assert len(offsets) == conn
        for d in offsets:
            assert (-d[0], -d[1], -d[2]) in offsets


@pytest.mark.parametrize("conn", [6, 18, 26])
def test_matches_bfs_oracle(conn):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        arr = random_mask(rng, (12, 12, 12), 0.3)
        lm = label_components(make_mask(arr), conn)
        assert np.array_equal(lm.data, bfs_label(arr, conn))


def test_partition_and_dense_ids():
    rng = np.random.default_rng(5)
    arr = random_mask(rng, (10, 10, 10), 0.4)
    lm = label_components(make_mask(arr), 26)
    assert np.array_equal(lm.data != 0, arr)
    present = np.unique(lm.data)
    assert np.array_equal(present, np.arange(lm.component_count + 1))
    assert lm.component_sizes.sum() == arr.sum()


def test_scan_order_ids():
    rng = np.random.default_rng(8)
    arr = random_mask(rng, (9, 9, 9), 0.35)
    lm = label_components(make_mask(arr), 26)
    seen = set()
    for z in range(9):
        for y in range(9):
            for x in range(9):
                label = lm.data[x, y, z]
                if label and label not in seen:
                    # ids appear for the first time in increasing order
                    assert label == len(seen) + 1
                    seen.add(label)


def test_axis_permutation_invariance():
    rng = np.random.default_rng(21)
    arr = random_mask(rng, (7, 8, 9), 0.3)
    base = label_components(make_mask(arr), 26).component_count
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        permuted = np.transpose(arr, perm)
        assert label_components(make_mask(permuted), 26).component_count == base


@given(st.integers(0, 10**6))
def test_remove_voxel_monotonicity(seed):
    rng = np.random.default_rng(seed)
    arr = random_mask(rng, (6, 6, 6), 0.4)
    if not arr.any():
        return
    before = label_components(make_mask(arr), 26).component_count
    coords = np.argwhere(arr)
    x, y, z = coords[rng.integers(coords.shape[0])]
    arr2 = arr.copy()
    arr2[x, y, z] = False
    after = label_components(make_mask(arr2), 26).component_count
    assert before - 1 <= after <= before + 25


def test_component_sizes_listing():
    data = np.zeros((5, 5, 5), bool)
    data[1:4, 2, 2] = True  # one 3-voxel line
    lm = label_components(make_mask(data), 26)
    assert lm.component_sizes.tolist() == [3]
    assert label_components(make_mask(np.zeros((3, 3, 3), bool))).component_sizes.tolist() == []


@pytest.mark.parametrize("conn", [6, 18, 26])
@pytest.mark.parametrize("nx", [1, 2, 3])
def test_runs_break_at_line_wrap(conn, nx):
    # x = nx-1 of one line and x = 0 of the next are consecutive flat
    # indices; they must still fall into separate runs
    arr = np.zeros((nx, 6, 4), bool)
    arr[nx - 1, 0::2, :] = True
    arr[0, 1::2, :] = True
    lm = label_components(make_mask(arr), conn)
    assert np.array_equal(lm.data, bfs_label(arr, conn))
    for seed in range(5):
        arr = random_mask(np.random.default_rng(seed), (nx, 7, 5), 0.5)
        arr[nx - 1, :-1:2, ::2] = arr[0, 1::2, ::2] = True
        lm = label_components(make_mask(arr), conn)
        assert np.array_equal(lm.data, bfs_label(arr, conn))


def serpentine(nx, ny):
    """One-voxel-wide chain over the z = 0 plane: full x-runs on even y,
    joined by one voxel on odd y at alternating ends. The chain starts at
    the lowest flat index and ends at the highest."""
    arr = np.zeros((nx, ny, 2), bool)
    arr[:, 0::2, 0] = True
    arr[nx - 1, 1::4, 0] = True
    arr[0, 3::4, 0] = True
    return arr


@pytest.mark.parametrize("conn", [6, 18, 26])
def test_serpentine_is_one_component(conn):
    for arr in (serpentine(7, 41), serpentine(1, 61).transpose(2, 0, 1),
                serpentine(5, 33).transpose(1, 0, 2)[::-1]):
        arr = np.ascontiguousarray(arr)
        lm = label_components(make_mask(arr), conn)
        assert lm.component_count == 1
        assert lm.component_sizes.tolist() == [int(arr.sum())]
        assert np.array_equal(lm.data, bfs_label(arr, conn))


@pytest.mark.parametrize("conn", [6, 18, 26])
def test_empty_and_full_grid(conn):
    empty = label_components(make_mask(np.zeros((3, 4, 5), bool)), conn)
    assert empty.component_count == 0
    assert empty.fg_labels.size == empty.fg_index.size == 0
    assert not empty.data.any()
    full = label_components(make_mask(np.ones((3, 4, 5), bool)), conn)
    assert full.component_count == 1
    assert full.component_sizes.tolist() == [60]
    assert (full.data == 1).all()


@pytest.mark.parametrize("conn", [6, 18, 26])
def test_painted_grid_matches_fg_labels(conn):
    arr = random_mask(np.random.default_rng(13), (6, 7, 8), 0.35)
    mask = make_mask(arr)
    lm = label_components(mask, conn)
    # fg_index lists the foreground x-fastest: x + nx * (y + ny * z)
    xs, ys, zs = np.nonzero(arr)
    assert np.array_equal(lm.fg_index, np.sort(xs + 6 * (ys + 7 * zs)))
    assert lm.fg_index is mask.fg_index
    x, y, z = lm.fg_index % 6, lm.fg_index // 6 % 7, lm.fg_index // 42
    assert np.array_equal(lm.fg_labels, bfs_label(arr, conn)[x, y, z])
    expected = np.zeros(arr.shape, np.int32)
    expected[x, y, z] = lm.fg_labels
    assert lm.data.dtype == np.int32 and lm.data.flags.f_contiguous
    assert np.array_equal(lm.data, expected)


def test_painted_grid_is_read_only(tmp_path):
    """A write into the cached grid would reach write_volume, which writes a
    painted grid as it is, and the file would disagree with fg_labels."""
    from pvseval.nifti import write_volume

    arr = random_mask(np.random.default_rng(5), (6, 7, 8), 0.35)
    lm = label_components(make_mask(arr), 26)
    painted = lm.data.copy()
    with pytest.raises(ValueError, match="read-only"):
        lm.data[0, 0, 0] = 7
    write_volume(lm, tmp_path / "labels.nii", datatype=8)
    assert np.array_equal(read_nifti_grid(tmp_path / "labels.nii"), painted)


def bins_of(hist):
    """(lo, hi, count, density) of each bin, as Python scalars."""
    return list(zip(hist.lo.tolist(), hist.hi.tolist(), hist.count.tolist(),
                    hist.density.tolist()))


class TestSizeHistogram:
    def test_small_linear(self):
        hist = size_histogram([1, 1, 2])
        assert [(lo, count) for lo, _, count, _ in bins_of(hist)] == [(1.0, 2), (2.0, 1)]
        assert hist.density[0] == pytest.approx(2 / 3)
        assert hist.density[1] == pytest.approx(1 / 3)

    def test_single_value(self):
        hist = size_histogram([7, 7, 7])
        assert bins_of(hist) == [(7.0, 8.0, 3, 1.0)]

    def test_log_bins_are_powers_of_two(self):
        hist = size_histogram([1, 2, 3, 4, 9], log_binning=True)
        assert [(lo, hi) for lo, hi, _, _ in bins_of(hist)] == [(1, 2), (2, 4), (4, 8), (8, 16)]
        assert hist.count.tolist() == [1, 2, 1, 1]

    def test_log_bins_at_powers_of_two(self):
        sizes = [2**k for k in range(41)] + [2**k - 1 for k in range(1, 41)]
        hist = size_histogram(sizes, log_binning=True)
        bins = bins_of(hist)
        assert [(lo, hi) for lo, hi, _, _ in bins] == [(2.0**i, 2.0 ** (i + 1))
                                                       for i in range(41)]
        # 2^k - 1 belongs to the bin below 2^k
        assert hist.count.tolist() == [2] * 40 + [1]
        for lo, hi, count, density in bins:
            assert count == sum(1 for s in sizes if lo <= s < hi)
            assert density == count / len(sizes)

    def test_columns_equal_their_scalar_forms(self):
        # each edge is float(v), each density the Python quotient, bit for bit
        sizes = [3, 3, 5, 12, 12, 12, 40]
        for log_binning in (False, True):
            hist = size_histogram(sizes, log_binning=log_binning)
            assert (hist.lo.dtype, hist.hi.dtype, hist.count.dtype, hist.density.dtype) == (
                np.float64, np.float64, np.int64, np.float64)
            assert hist.lo.size == hist.hi.size == hist.count.size == hist.density.size
            for lo, hi, count, density in bins_of(hist):
                assert (type(lo), type(hi), type(count), type(density)) == (
                    float, float, int, float)
                assert repr(density) == repr(count / len(sizes))
                if not log_binning:
                    assert (lo, hi) == (float(int(lo)), float(int(lo) + 1))
        assert size_histogram(sizes).lo.tolist() == [float(v) for v in range(3, 41)]

    def test_random_counts_match_direct(self):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 200, size=1000).tolist()
        for log_binning in (False, True):
            hist = size_histogram(sizes, log_binning=log_binning)
            assert abs(sum(hist.density.tolist()) - 1.0) < 1e-12
            for lo, hi, count, density in bins_of(hist):
                direct = sum(1 for s in sizes if lo <= s < hi)
                assert count == direct
                assert density == count / len(sizes)
        assert sum(hist.count.tolist()) == 1000

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            size_histogram([])

    def test_size_below_one(self):
        with pytest.raises(ValueError) as got:
            size_histogram([0, 3])
        assert str(got.value) == "cluster sizes must be >= 1"

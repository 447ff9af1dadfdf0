"""3D connected-component labeling on the sorted foreground index.

Foreground voxels are grouped into clusters under 6/18/26 connectivity in
time proportional to the foreground, not the grid. The input is the mask's
fg_index, the sorted x-fastest flat indices of its foreground. A maximal
x-run ends wherever the index sequence jumps or a new x-line begins.
Adjacent runs in neighboring lines, the line pairs and x-reach taken from
neighbor_offsets, are found by a sorted interval join and merged by a
vectorized union-find: hooking of roots plus pointer jumping, iterated to
a fixed point (the two-pass run scheme of Wu, Otoo & Suzuki
2009; hooking as in Shiloach & Vishkin 1982). Labels are kept per
foreground voxel and painted onto a dense grid only on request. Ids are
dense 1..K and assigned by first-encountered voxel in x-fastest scan
order, so outputs are reproducible across runs and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyInputError
from .nifti import BinaryMask

CONNECTIVITIES = (6, 18, 26)

def neighbor_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    """Full symmetric 3D neighbor offsets for the connectivity class."""
    if connectivity not in CONNECTIVITIES:
        raise ValueError(f"connectivity must be one of {CONNECTIVITIES}")
    max_manhattan = {6: 1, 18: 2, 26: 3}[connectivity]
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                manhattan = abs(dx) + abs(dy) + abs(dz)
                if 0 < manhattan <= max_manhattan:
                    offsets.append((dx, dy, dz))
    return offsets


@dataclass(eq=False)
class LabelMap:
    """Component ids of a mask's foreground: 0 background, 1..K dense ids.

    fg_labels[i] is the id of the voxel at flat x-fastest index fg_index[i];
    the dense grid is painted from them on first access of data.
    """

    fg_index: np.ndarray  # int64, the source mask's fg_index
    fg_labels: np.ndarray  # int32, aligned with fg_index
    dims: tuple[int, int, int]
    component_count: int
    component_sizes: np.ndarray  # int64, length K, indexed by id-1
    connectivity: int
    spacing: tuple[float, float, float]
    affine: np.ndarray

    @cached_property
    def data(self) -> np.ndarray:
        """int32 label grid in Fortran order, same dims as the source mask;
        read-only, as it must keep matching fg_index and fg_labels."""
        flat = np.zeros(int(np.prod(self.dims)), dtype=np.int32)
        flat[self.fg_index] = self.fg_labels
        grid = flat.reshape(self.dims, order="F")
        grid.setflags(write=False)
        return grid


def _run_edges(line_id, run_s, run_e, nx: int, ny: int, connectivity: int):
    """Every pair (later run, earlier run) of adjacent runs, as two arrays.

    Runs are sorted by (line, x) and disjoint within a line, so keys on a
    line stride of nx + 2 keep both run starts and run ends sorted, and a
    one-voxel reach never wraps onto the next line; the runs adjacent to a
    given run in one earlier line are then a contiguous block.
    """
    base = nx + 2
    key_s = line_id * base + run_s
    key_e = line_id * base + run_e
    run_y = line_id % ny
    run_index = np.arange(line_id.size, dtype=np.int64)
    offsets = neighbor_offsets(connectivity)
    lefts, rights = [], []
    # each earlier line (dy, dz) holding a neighbor; voxels one apart in x
    # touch across it iff (1, dy, dz) is a neighbor too, else only aligned ones
    for dy, dz in dict.fromkeys((dy, dz) for _, dy, dz in offsets if (dz, dy) < (0, 0)):
        reach = int((1, dy, dz) in offsets)
        nb_line = line_id + dy + dz * ny
        ok = (run_y + dy >= 0) & (run_y + dy < ny) & (nb_line >= 0)
        cand = run_index[ok]
        target = nb_line[ok]
        lo = np.searchsorted(key_e, target * base + (run_s[cand] - reach), side="left")
        hi = np.searchsorted(key_s, target * base + (run_e[cand] + reach), side="right")
        counts = hi - lo  # key_s <= key_e, so lo <= hi
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        lefts.append(np.repeat(cand, counts))
        rights.append(np.repeat(lo - starts, counts) + np.arange(total))
    return np.concatenate(lefts), np.concatenate(rights)


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Root of every node of the graph (range(n), edges a-b): the lowest
    node of its component.

    Each round hooks every root to the smallest root it shares an edge
    with, then pointer-jumps until every node points at its root; edges
    inside one component are dropped (Shiloach & Vishkin 1982).
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        a, b = parent[a], parent[b]
        apart = a != b
        if not apart.any():
            return parent
        a, b = a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def label_components(mask: BinaryMask, connectivity: int = 26) -> LabelMap:
    """Label connected foreground clusters of a binary mask.

    Two voxels share an id iff a path of connectivity-adjacent foreground
    voxels joins them.
    """
    nx, ny, _ = mask.dims
    idx = mask.fg_index
    # a run starts at a new x-line or a jump in the index (from -2 before the first voxel)
    first = np.flatnonzero((idx % nx == 0) | (np.diff(idx, prepend=-2) != 1))
    lengths = np.diff(np.append(first, idx.size))
    line_id = idx[first] // nx
    run_s = idx[first] - line_id * nx
    run_e = run_s + lengths - 1

    left, right = _run_edges(line_id, run_s, run_e, nx, ny, connectivity)
    root = _components(first.size, left, right)
    # roots are the lowest run of each component, so counting them in run
    # order numbers components by first voxel in scan order
    is_root = root == np.arange(first.size)
    run_label = np.cumsum(is_root, dtype=np.int32)[root]
    k = int(np.count_nonzero(is_root))
    sizes = np.bincount(run_label, weights=lengths)[1:].astype(np.int64)  # ids are 1..k
    return LabelMap(idx, np.repeat(run_label, lengths), mask.dims, k, sizes,
                    connectivity, mask.spacing, mask.affine)


@dataclass(frozen=True, eq=False)
class SizeHistogram:
    """Normalized cluster-size histogram as columns, one entry per bin."""

    lo: np.ndarray  # float64, inclusive
    hi: np.ndarray  # float64, exclusive
    count: np.ndarray  # int64
    density: np.ndarray  # float64, count / number of sizes


def size_histogram(sizes, log_binning: bool = False) -> SizeHistogram:
    """Normalized density of cluster sizes.

    Linear mode uses unit-width integer bins over [min, max]; log mode uses
    base-2 geometric bin edges starting at 1. Densities sum to 1. Every
    value equals its scalar Python form: float(v) for an edge v, and
    count / len(sizes) for a density.
    """
    sizes = np.asarray(list(sizes), dtype=np.int64)
    if sizes.size == 0:
        raise EmptyInputError("size_histogram needs at least one cluster size")
    if sizes.min() < 1:
        raise ValueError("cluster sizes must be >= 1")
    if log_binning:
        # bin i holds [2^i, 2^(i+1)): the bit length of the size, less one
        _, bit_length = np.frexp(sizes)
        counts = np.bincount(bit_length - 1)
        lo = np.ldexp(1.0, np.arange(counts.size))
        hi = 2.0 * lo
    else:
        low = int(sizes.min())
        counts = np.bincount(sizes - low)
        edges = np.arange(low, low + counts.size + 1).astype(np.float64)
        lo, hi = edges[:-1], edges[1:]
    return SizeHistogram(lo, hi, counts.astype(np.int64, copy=False), counts / sizes.size)

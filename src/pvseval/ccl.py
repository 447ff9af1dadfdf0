"""3D connected-component labeling.

Foreground voxels are grouped into clusters under 6/18/26 connectivity by a
two-pass union-find over contiguous x-runs: runs are extracted in one
vectorized sweep, adjacent runs in neighboring lines are merged through a
sorted interval join, and labels are painted back in a second vectorized
pass. Ids are dense 1..K and assigned by first-encountered voxel in
x-fastest scan order, so outputs are reproducible across runs and thread
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError
from .nifti import BinaryMask

CONNECTIVITIES = (6, 18, 26)

# per connectivity: earlier-line neighbor offsets as (dy, dz, dx_reach),
# dx_reach 1 when |dx|<=1 voxels may touch across the line pair, 0 when
# only aligned voxels (dx=0) are adjacent
_LINE_OFFSETS = {
    6: ((-1, 0, 0), (0, -1, 0)),
    18: ((-1, 0, 1), (0, -1, 1), (-1, -1, 0), (1, -1, 0)),
    26: ((-1, 0, 1), (0, -1, 1), (-1, -1, 1), (1, -1, 1)),
}


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
    """Per-voxel component ids: 0 background, 1..K dense cluster ids."""

    data: np.ndarray  # int32, same dims as the source mask
    component_count: int
    component_sizes: np.ndarray  # int64, length K, indexed by id-1
    connectivity: int
    spacing: tuple[float, float, float]
    affine: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


def _extract_runs(lines: np.ndarray, nx: int):
    """Maximal foreground runs per line: (line_id, start, end_inclusive)."""
    padded = np.zeros((lines.shape[0], nx + 2), dtype=np.int8)
    padded[:, 1:-1] = lines
    edges = np.diff(padded, axis=1)
    start_line, start_x = np.nonzero(edges == 1)
    end_line, end_x = np.nonzero(edges == -1)
    # nonzero yields row-major order, so starts and ends pair up per line
    assert start_line.shape == end_line.shape
    return start_line.astype(np.int64), start_x.astype(np.int64), end_x.astype(np.int64) - 1


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def label_components(mask: BinaryMask, connectivity: int = 26) -> LabelMap:
    """Label connected foreground clusters of a binary mask.

    Two voxels share an id iff a path of connectivity-adjacent foreground
    voxels joins them.
    """
    if connectivity not in CONNECTIVITIES:
        raise ValueError(f"connectivity must be one of {CONNECTIVITIES}")
    nx, ny, nz = mask.dims
    # lines along x, ordered (z, y) to match the x-fastest voxel scan order
    lines = mask.data.transpose(2, 1, 0).reshape(nz * ny, nx)
    line_id, run_s, run_e = _extract_runs(lines, nx)
    n_runs = line_id.shape[0]

    out = np.zeros(nz * ny * nx, dtype=np.int32)
    if n_runs == 0:
        data = np.asfortranarray(out.reshape(nz, ny, nx).transpose(2, 1, 0))
        return LabelMap(data, 0, np.zeros(0, dtype=np.int64), connectivity,
                        mask.spacing, mask.affine)

    base = nx + 2
    key_s = line_id * base + run_s
    key_e = line_id * base + run_e
    run_y = line_id % ny

    parent = list(range(n_runs))
    run_index = np.arange(n_runs, dtype=np.int64)
    for dy, dz, reach in _LINE_OFFSETS[connectivity]:
        nb_line = line_id + dy + dz * ny
        ok = (run_y + dy >= 0) & (run_y + dy < ny) & (nb_line >= 0)
        if not ok.any():
            continue
        cand = run_index[ok]
        target = nb_line[ok]
        lo = np.searchsorted(key_e, target * base + (run_s[cand] - reach), side="left")
        hi = np.searchsorted(key_s, target * base + (run_e[cand] + reach), side="right")
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            continue
        left = np.repeat(cand, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        right = np.repeat(lo, counts) + offsets
        for a, b in zip(left.tolist(), right.tolist()):
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb

    # dense ids by first occurrence in run (scan) order
    run_label = np.empty(n_runs, dtype=np.int64)
    root_to_id: dict[int, int] = {}
    for i in range(n_runs):
        root = _find(parent, i)
        label = root_to_id.get(root)
        if label is None:
            label = len(root_to_id) + 1
            root_to_id[root] = label
        run_label[i] = label
    k = len(root_to_id)

    lengths = run_e - run_s + 1
    total = int(lengths.sum())
    flat_base = line_id * nx + run_s
    idx = np.repeat(flat_base, lengths) + (
        np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    )
    out[idx] = np.repeat(run_label, lengths)
    sizes = np.bincount(run_label, weights=lengths, minlength=k + 1)[1:].astype(np.int64)

    data = np.asfortranarray(out.reshape(nz, ny, nx).transpose(2, 1, 0))
    return LabelMap(data, k, sizes, connectivity, mask.spacing, mask.affine)


@dataclass(frozen=True)
class HistogramBin:
    lo: float  # inclusive
    hi: float  # exclusive
    count: int
    density: float


def size_histogram(sizes, log_binning: bool = False) -> list[HistogramBin]:
    """Normalized density of cluster sizes.

    Linear mode uses unit-width integer bins over [min, max]; log mode uses
    base-2 geometric bin edges starting at 1. Densities sum to 1.
    """
    sizes = np.asarray(list(sizes), dtype=np.int64)
    if sizes.size == 0:
        raise EmptyInputError("size_histogram needs at least one cluster size")
    if sizes.min() < 1:
        raise ValueError("cluster sizes must be >= 1")
    total = sizes.size
    bins: list[HistogramBin] = []
    if log_binning:
        n_bins = int(np.floor(np.log2(sizes.max()))) + 1
        for i in range(n_bins):
            lo, hi = 2.0**i, 2.0 ** (i + 1)
            count = int(np.count_nonzero((sizes >= lo) & (sizes < hi)))
            bins.append(HistogramBin(lo, hi, count, count / total))
    else:
        for v in range(int(sizes.min()), int(sizes.max()) + 1):
            count = int(np.count_nonzero(sizes == v))
            bins.append(HistogramBin(float(v), float(v + 1), count, count / total))
    return bins

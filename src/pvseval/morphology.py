"""One-voxel dilation, shell extraction, and mask-vs-surroundings contrast.

All of them take the ring of a group of foreground voxels from the mask's
fg_index: one lookup per neighbor offset in a grid padded with foreground,
so off-grid neighbors never join a ring. Ring and mask voxels are keyed
group * grid size + C-order index; one sort then groups them, drops
repeats, and puts each group in the order boolean indexing reads it, so
every mean equals image.data[bool].mean() bit for bit.
"""

from __future__ import annotations

import numpy as np

from .ccl import label_components, neighbor_offsets
from .errors import DimMismatchError, EmptyMaskError, EmptyShellError
from .nifti import BinaryMask, Volume3D


def _fg_keys(m: BinaryMask, group) -> np.ndarray:
    """Unsorted keys group * size + C-order index of the foreground voxels."""
    c_index = np.ravel_multi_index(np.unravel_index(m.fg_index, m.dims, order="F"), m.dims)
    return np.asarray(group, dtype=np.int64) * m.data.size + c_index


def _ring(m: BinaryMask, group, connectivity: int) -> np.ndarray:
    """Sorted keys, without repeats, of the background connectivity
    neighbors of each group's foreground voxels."""
    nx, ny, nz = m.dims
    padded = np.ones((nx + 2, ny + 2, nz + 2), dtype=bool, order="F")
    padded[1:-1, 1:-1, 1:-1] = m.data
    x, y, z = np.unravel_index(m.fg_index, m.dims, order="F")
    at = np.ravel_multi_index((x + 1, y + 1, z + 1), padded.shape, order="F")
    keys, flat, parts = _fg_keys(m, group), padded.ravel("F"), []
    for dx, dy, dz in neighbor_offsets(connectivity):
        background = ~flat[at + dx + (nx + 2) * (dy + (ny + 2) * dz)]
        parts.append(keys.compress(background) + (dx * ny + dy) * nz + dz)
    ring = np.sort(np.concatenate(parts))
    first = np.ones(ring.size, dtype=bool)
    first[1:] = ring[1:] != ring[:-1]
    return ring.compress(first)


def _group_means(image: Volume3D, keys: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """(group ids, mean image value of each group) over sorted keys."""
    group, c_index = np.divmod(keys, image.data.size)
    values = image.data[np.unravel_index(c_index, image.dims)]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    ends = np.append(starts[1:], keys.size)
    # not np.add.reduceat: it sums in another order than mean() on 8+ values
    return group[starts], [float(values[s:e].mean()) for s, e in zip(starts, ends)]


def dilate_once(m: BinaryMask, connectivity: int = 26) -> BinaryMask:
    """Union of the mask with all connectivity-neighbors of its foreground."""
    return BinaryMask(data=m.data | shell(m, connectivity).data, spacing=m.spacing,
                      affine=m.affine)


def shell(m: BinaryMask, connectivity: int = 26) -> BinaryMask:
    """Ring of background voxels adjacent to the mask: dilate(m) minus m."""
    data = np.zeros(m.dims, dtype=bool, order="F")
    data[np.unravel_index(_ring(m, 0, connectivity), m.dims)] = True
    return BinaryMask(data=data, spacing=m.spacing, affine=m.affine)


def contrast_stat(
    image: Volume3D, m: BinaryMask, connectivity: int = 26
) -> tuple[float, float, float]:
    """(mask_mean, shell_mean, |mask_mean - shell_mean|) over the whole mask."""
    if image.dims != m.dims:
        raise DimMismatchError(f"grid mismatch: {image.dims} vs {m.dims}")
    if m.foreground_count == 0:
        raise EmptyMaskError("contrast needs a non-empty mask")
    ring = _ring(m, 0, connectivity)
    if not ring.size:
        raise EmptyShellError("mask saturates the grid; shell is empty")
    (mask_mean,) = _group_means(image, np.sort(_fg_keys(m, 0)))[1]
    (shell_mean,) = _group_means(image, ring)[1]
    return mask_mean, shell_mean, abs(mask_mean - shell_mean)


def contrast_stat_per_cluster(
    image: Volume3D, m: BinaryMask, connectivity: int = 26
) -> tuple[float, float, float]:
    """Per-cluster contrast, averaged over clusters.

    Each cluster is contrasted against its own one-voxel ring; ring voxels
    belonging to any other cluster are excluded so surroundings never
    include foreground. Clusters with an empty ring are skipped. Returned
    means are averages of the per-cluster values.
    """
    if image.dims != m.dims:
        raise DimMismatchError(f"grid mismatch: {image.dims} vs {m.dims}")
    if m.foreground_count == 0:
        raise EmptyMaskError("contrast needs a non-empty mask")
    lm = label_components(m, connectivity)
    ringed, shell_means = _group_means(image, _ring(m, lm.fg_labels, connectivity))
    if not ringed.size:
        raise EmptyShellError("no cluster has a non-empty shell")
    mask_keys = np.sort(_fg_keys(m, lm.fg_labels))
    mask_means = np.array(_group_means(image, mask_keys)[1])[ringed - 1]
    contrasts = np.abs(mask_means - shell_means)
    return tuple(float(np.mean(v)) for v in (mask_means, shell_means, contrasts))

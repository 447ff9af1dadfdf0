"""One-voxel dilation, shell extraction, and mask-vs-surroundings contrast.

All of them take the ring of a group of foreground voxels from the mask's
fg_index: one lookup per neighbor offset in a grid padded with foreground,
so off-grid neighbors never join a ring. Ring and mask voxels are keyed
group * grid size + C-order index; one sort then groups them, drops
repeats, and puts each group in the order boolean indexing reads it, so
every mean equals image.data[bool].mean() bit for bit. shell and
dilate_once return the ring, and its union with the mask, as masks built
from sorted foreground indices: that padded lookup is the only grid they
paint. One path serves both contrast modes (group 0, or each cluster's
label) and reads the image only at the mask and ring voxels, once: a dense
Volume3D is indexed, and a function such as nifti.read_voxels bound to a
file gathers just those voxels while it streams the file.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .ccl import label_components, neighbor_offsets
from .errors import EmptyMaskError, EmptyShellError, InputError
from .nifti import BinaryMask, Volume3D, ensure_same_grid

# an image given as the function from sorted flat x-fastest indices of the
# mask's grid to the image values there
Gather = Callable[[np.ndarray], np.ndarray]


def _fg_keys(m: BinaryMask, group) -> np.ndarray:
    """Unsorted keys group * size + C-order index of the foreground voxels."""
    c_index = np.ravel_multi_index(np.unravel_index(m.fg_index, m.dims, order="F"), m.dims)
    return np.asarray(group, dtype=np.int64) * math.prod(m.dims) + c_index


def _ring(m: BinaryMask, group, connectivity: int) -> np.ndarray:
    """Sorted keys, without repeats, of the background connectivity
    neighbors of each group's foreground voxels."""
    nx, ny, nz = m.dims
    padded = np.ones((nx + 2, ny + 2, nz + 2), dtype=bool, order="F")
    padded[1:-1, 1:-1, 1:-1] = False
    x, y, z = np.unravel_index(m.fg_index, m.dims, order="F")
    at = np.ravel_multi_index((x + 1, y + 1, z + 1), padded.shape, order="F")
    keys, flat, parts = _fg_keys(m, group), padded.ravel("F"), []
    flat[at] = True  # the mask, painted from its index into the padded lookup grid
    for dx, dy, dz in neighbor_offsets(connectivity):
        background = ~flat[at + dx + (nx + 2) * (dy + (ny + 2) * dz)]
        parts.append(keys.compress(background) + (dx * ny + dy) * nz + dz)
    # sort, then drop repeats: np.unique's hashing is ~40x slower on this
    ring = np.sort(np.concatenate(parts))
    first = np.ones(ring.size, dtype=bool)
    first[1:] = ring[1:] != ring[:-1]
    return ring.compress(first)


def _group_means(gather: Gather, m: BinaryMask, *key_sets: np.ndarray):
    """For each array of sorted keys, the mean image value of each of its
    groups, in group order; the image is gathered once, at the voxels of all
    of them."""
    groups, wanted = [], []
    for keys in key_sets:
        group, c_index = np.divmod(keys, math.prod(m.dims))
        groups.append(group)
        wanted.append(np.ravel_multi_index(np.unravel_index(c_index, m.dims), m.dims, order="F"))
    wanted = np.concatenate(wanted)
    order = np.argsort(wanted)
    gathered = gather(wanted[order])
    bad = np.count_nonzero(~np.isfinite(gathered))
    if bad:  # a mean over it would be nan or infinite
        raise InputError(f"image is NaN or infinite at {bad} of the mask and ring voxels")
    values = np.empty_like(gathered)
    values[order] = gathered
    out, at = [], 0
    for group in groups:
        group_values, at = values[at:at + group.size], at + group.size
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        ends = np.append(starts[1:], group.size)
        # not np.add.reduceat: it sums in another order than mean() on 8+ values
        out.append(np.array([float(group_values[s:e].mean()) for s, e in zip(starts, ends)]))
    return out


def dilate_once(m: BinaryMask, connectivity: int) -> BinaryMask:
    """Union of the mask with all connectivity-neighbors of its foreground."""
    index = np.sort(np.concatenate((m.fg_index, shell(m, connectivity).fg_index)))
    return BinaryMask.from_index(index, m.dims, m.spacing, m.affine)


def shell(m: BinaryMask, connectivity: int) -> BinaryMask:
    """Ring of background voxels adjacent to the mask: dilate(m) minus m."""
    ring = np.unravel_index(_ring(m, 0, connectivity), m.dims)
    index = np.sort(np.ravel_multi_index(ring, m.dims, order="F"))
    return BinaryMask.from_index(index, m.dims, m.spacing, m.affine)


def _contrast(image: Volume3D | Gather, m: BinaryMask, group, connectivity: int,
              no_shell: str) -> tuple[float, float, float]:
    """(mask mean, shell mean, |difference|) of each group of foreground
    voxels, averaged over the groups. A group's ring is empty only when the
    group fills the grid, so each group has a ring and their means pair by
    position. A Volume3D image must be on m's grid; a function checks the
    grid itself."""
    if not callable(image):
        ensure_same_grid(image, m)
        image = image.data.ravel("F").__getitem__
    if m.foreground_count == 0:
        raise EmptyMaskError("contrast needs a non-empty mask")
    ring = _ring(m, group, connectivity)
    if not ring.size:
        raise EmptyShellError(no_shell)
    mask_means, shell_means = _group_means(image, m, np.sort(_fg_keys(m, group)), ring)
    contrasts = np.abs(mask_means - shell_means)
    return tuple(float(np.mean(v)) for v in (mask_means, shell_means, contrasts))


def contrast_stat(
    image: Volume3D | Gather, m: BinaryMask, connectivity: int = 26
) -> tuple[float, float, float]:
    """(mask_mean, shell_mean, |mask_mean - shell_mean|) over the whole mask.

    image is a Volume3D on m's grid, or a function from sorted flat
    x-fastest indices of m's grid to the image values there, such as
    nifti.read_voxels bound to a file, which checks the grid itself.
    """
    return _contrast(image, m, 0, connectivity, "mask saturates the grid; shell is empty")


def contrast_stat_per_cluster(
    image: Volume3D | Gather, m: BinaryMask, connectivity: int = 26
) -> tuple[float, float, float]:
    """Per-cluster contrast, averaged over clusters.

    Each cluster is contrasted against its own one-voxel ring; ring voxels
    belonging to any other cluster are excluded so surroundings never
    include foreground. Returned means are averages of the per-cluster
    values. image is as in contrast_stat.
    """
    return _contrast(image, m, label_components(m, connectivity).fg_labels, connectivity,
                     "no cluster has a non-empty shell")

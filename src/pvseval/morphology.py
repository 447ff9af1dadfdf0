"""One-voxel dilation, shell extraction, and mask-vs-surroundings contrast."""

from __future__ import annotations

import numpy as np

from .ccl import label_components, neighbor_offsets
from .errors import DimMismatchError, EmptyMaskError, EmptyShellError
from .nifti import BinaryMask, Volume3D


def _or_shifted(dst: np.ndarray, src: np.ndarray, offset: tuple[int, int, int]) -> None:
    """dst |= src translated by offset, zero-filled at the grid boundary."""
    src_sl, dst_sl = [], []
    for d, n in zip(offset, src.shape):
        if d >= 0:
            src_sl.append(slice(0, n - d))
            dst_sl.append(slice(d, n))
        else:
            src_sl.append(slice(-d, n))
            dst_sl.append(slice(0, n + d))
    dst[tuple(dst_sl)] |= src[tuple(src_sl)]


def _dilate(data: np.ndarray, connectivity: int) -> np.ndarray:
    """Boolean array grown by one voxel in every connectivity direction."""
    out = np.array(data, dtype=bool, order="F")
    for offset in neighbor_offsets(connectivity):
        _or_shifted(out, data, offset)
    return out


def dilate_once(m: BinaryMask, connectivity: int = 26) -> BinaryMask:
    """Union of the mask with all connectivity-neighbors of its foreground."""
    return BinaryMask(data=_dilate(m.data, connectivity), spacing=m.spacing,
                      affine=m.affine)


def shell(m: BinaryMask, connectivity: int = 26) -> BinaryMask:
    """Ring of background voxels adjacent to the mask: dilate(m) minus m."""
    grown = dilate_once(m, connectivity)
    return BinaryMask(data=grown.data & ~m.data, spacing=m.spacing, affine=m.affine)


def contrast_stat(
    image: Volume3D, m: BinaryMask, connectivity: int = 26
) -> tuple[float, float, float]:
    """(mask_mean, shell_mean, |mask_mean - shell_mean|) over the whole mask."""
    if image.dims != m.dims:
        raise DimMismatchError(f"grid mismatch: {image.dims} vs {m.dims}")
    # emptiness by any(): foreground_count would build the foreground index
    if not m.data.any():
        raise EmptyMaskError("contrast needs a non-empty mask")
    ring = shell(m, connectivity)
    if not ring.data.any():
        raise EmptyShellError("mask saturates the grid; shell is empty")
    mask_mean = float(image.data[m.data].mean())
    shell_mean = float(image.data[ring.data].mean())
    return mask_mean, shell_mean, abs(mask_mean - shell_mean)


def contrast_stat_per_cluster(
    image: Volume3D, m: BinaryMask, connectivity: int = 26
) -> tuple[float, float, float]:
    """Per-cluster contrast, averaged over clusters.

    Each cluster is contrasted against its own one-voxel ring; ring voxels
    belonging to any other cluster are excluded so surroundings never
    include foreground. Returned means are averages of the per-cluster
    values.
    """
    if image.dims != m.dims:
        raise DimMismatchError(f"grid mismatch: {image.dims} vs {m.dims}")
    if m.foreground_count == 0:
        raise EmptyMaskError("contrast needs a non-empty mask")
    lm = label_components(m, connectivity)
    nx, ny, nz = m.dims
    # foreground coordinates grouped by cluster id, cluster cid at
    # bounds[cid-1]:bounds[cid]
    order = np.argsort(lm.fg_labels, kind="stable")
    all_x, all_y, all_z = np.unravel_index(lm.fg_index[order], m.dims, order="F")
    bounds = np.concatenate(([0], np.cumsum(lm.component_sizes)))
    mask_means, shell_means, contrasts = [], [], []
    for cid in range(1, lm.component_count + 1):
        lo_i, hi_i = bounds[cid - 1], bounds[cid]
        xs, ys, zs = all_x[lo_i:hi_i], all_y[lo_i:hi_i], all_z[lo_i:hi_i]
        x0, x1 = max(xs.min() - 2, 0), min(xs.max() + 3, nx)
        y0, y1 = max(ys.min() - 2, 0), min(ys.max() + 3, ny)
        z0, z1 = max(zs.min() - 2, 0), min(zs.max() + 3, nz)
        box = (slice(x0, x1), slice(y0, y1), slice(z0, z1))
        cluster = np.zeros((x1 - x0, y1 - y0, z1 - z0), dtype=bool, order="F")
        cluster[xs - x0, ys - y0, zs - z0] = True
        ring = _dilate(cluster, connectivity) & ~m.data[box]
        if not ring.any():
            continue
        mask_means.append(float(image.data[box][cluster].mean()))
        shell_means.append(float(image.data[box][ring].mean()))
        contrasts.append(abs(mask_means[-1] - shell_means[-1]))
    if not contrasts:
        raise EmptyShellError("no cluster has a non-empty shell")
    return (
        float(np.mean(mask_means)),
        float(np.mean(shell_means)),
        float(np.mean(contrasts)),
    )

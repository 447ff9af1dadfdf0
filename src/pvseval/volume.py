"""Binary-mask algebra and ROI restriction.

All metric ratios downstream are computed on voxel counts (spacing cancels
in every ratio); mm^3 is offered only for report columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nifti import BinaryMask, ensure_same_grid


@dataclass(eq=False, frozen=True)
class RoiMask:
    """A region-of-interest mask tagged with its anatomical name."""

    mask: BinaryMask
    region: str  # conventionally "WM", "BG", or a free-form tag


def intersect(a: BinaryMask, b: BinaryMask, strict: bool = False) -> BinaryMask:
    """Voxelwise AND; spacing/affine inherited from a.

    The result's foreground is looked up from a's foreground index, so the
    work beyond painting the result grid scales with a's foreground, not
    the grid; that index is preset on the result.
    """
    ensure_same_grid(a, b, strict)
    index = a.fg_index[b.data.ravel("F")[a.fg_index]]
    data = np.zeros(a.dims, dtype=bool, order="F")
    data.ravel("F")[index] = True
    out = BinaryMask(data=data, spacing=a.spacing, affine=a.affine)
    index.setflags(write=False)
    out.fg_index = index
    return out


def subtract(a: BinaryMask, b: BinaryMask, strict: bool = False) -> BinaryMask:
    """Voxels true in a and false in b."""
    ensure_same_grid(a, b, strict)
    return BinaryMask(data=a.data & ~b.data, spacing=a.spacing, affine=a.affine)


def foreground_volume(m: BinaryMask, units: str = "voxels") -> float:
    """Foreground size, as a voxel count or in mm^3."""
    count = m.foreground_count
    if units == "voxels":
        return float(count)
    if units == "mm3":
        return count * m.voxel_volume_mm3
    raise ValueError(f"units must be 'voxels' or 'mm3', got {units!r}")

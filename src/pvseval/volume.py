"""Binary-mask algebra and ROI restriction.

All metric ratios downstream are computed on voxel counts (spacing cancels
in every ratio); mm^3 is offered only for report columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError
from .nifti import BinaryMask


@dataclass(eq=False, frozen=True)
class RoiMask:
    """A region-of-interest mask tagged with its anatomical name."""

    mask: BinaryMask
    region: str  # conventionally "WM", "BG", or a free-form tag


def ensure_same_grid(a: BinaryMask, b: BinaryMask, strict: bool = False) -> None:
    """Dims must match; strict mode also compares affines within 1e-4."""
    if a.dims != b.dims:
        raise DimMismatchError(f"grid mismatch: {a.dims} vs {b.dims}")
    if strict and not np.allclose(a.affine, b.affine, atol=1e-4):
        raise DimMismatchError("affines differ beyond 1e-4 in strict grid mode")


def intersect(a: BinaryMask, b: BinaryMask, strict: bool = False) -> BinaryMask:
    """Voxelwise AND; spacing/affine inherited from a."""
    ensure_same_grid(a, b, strict)
    return BinaryMask(data=a.data & b.data, spacing=a.spacing, affine=a.affine)


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

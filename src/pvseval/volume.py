"""ROI masks and the restriction of a binary mask to one.

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


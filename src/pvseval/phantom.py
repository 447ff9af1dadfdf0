"""Synthetic tubular phantoms with known ground truth.

Tubes are capsules around a straight or gently bent centerline, sampled as
a polyline every 0.5 voxels and rasterized by Euclidean distance in voxel
units: each segment tests only the voxels of its own box (its endpoints'
extent padded by radius + 1), so the cost follows the tube's volume, not
its bounding box times its length. Tubes are packed by rejection sampling
with a pairwise clearance that guarantees the tubes stay 26-disconnected
(so the cluster count of the truth mask equals the tube count by
construction); a candidate is rejected if any polyline point comes too
near the grid's edge, and its point distances are computed only to the
placed tubes whose boxes come near enough to matter.
Perturbations with analytically known metric values turn the truth into a
controlled "prediction"; they read the truth's sorted foreground index
and return a mask built from an index, so no grid is painted for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ccl import CONNECTIVITIES, label_components
from .errors import BadParameterError, InfeasiblePackingError
from .morphology import dilate_once
from .nifti import BinaryMask, Volume3D

# voxels marked around each polyline sample regardless of radius (keeps
# thin tubes non-empty and 26-connected); effective radius for clearance
_BACKBONE_REACH = 0.87
_SAMPLE_STEP = 0.5
# voxels; far above the rounding of a box gap or a point distance
_BOX_PAD = 1e-6


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    n_tubes: int = 5
    radius_range: tuple[float, float] = (1.0, 2.0)
    length_range: tuple[float, float] = (10.0, 25.0)
    clearance: float = 3.0  # min gap between tube surfaces, voxels
    bend_amplitude: float = 1.0  # peak sinusoidal deflection, voxels
    bg_mean: float = 0.0
    bg_sd: float = 1.0
    tube_offset: float = 6.0  # signed; negative mimics dark-on-bright tubes
    seed: int = 0

    def validate(self) -> None:
        for name in ("spacing", "radius_range", "length_range", "clearance",
                     "bend_amplitude", "bg_mean", "bg_sd", "tube_offset"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise BadParameterError(f"{name} must be finite, got {value}")
        if self.n_tubes < 0:
            raise BadParameterError("n_tubes must be >= 0")
        if self.radius_range[0] <= 0 or self.radius_range[0] > self.radius_range[1]:
            raise BadParameterError(f"bad radius range {self.radius_range}")
        if self.length_range[0] <= 0 or self.length_range[0] > self.length_range[1]:
            raise BadParameterError(f"bad length range {self.length_range}")
        if self.clearance < 2.0:
            raise BadParameterError("clearance below 2 voxels cannot guarantee "
                                    "distinct clusters under 26-connectivity")
        if self.bend_amplitude < 0:
            raise BadParameterError("bend_amplitude must be >= 0")
        if self.bg_sd < 0:
            raise BadParameterError("bg_sd must be >= 0")
        if any(d < 8 for d in self.dims):
            raise BadParameterError(f"grid too small for tubes: {self.dims}")


def _orthogonal_unit(rng: np.random.Generator, direction: np.ndarray) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        v -= (v @ direction) * direction
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def _polyline(rng: np.random.Generator, spec: PhantomSpec) -> tuple[np.ndarray, float]:
    """A candidate tube's centerline, sampled every _SAMPLE_STEP voxels, and
    radius."""
    radius = float(rng.uniform(*spec.radius_range))
    length = float(rng.uniform(*spec.length_range))
    direction = _orthogonal_unit(rng, np.zeros(3))
    perp = _orthogonal_unit(rng, direction)
    amplitude = float(rng.uniform(0.0, spec.bend_amplitude))
    start = np.array([rng.uniform(0, d - 1) for d in spec.dims])
    ts = np.linspace(0.0, 1.0, int(np.ceil(length / _SAMPLE_STEP)) + 1)
    points = (
        start[None, :]
        + ts[:, None] * length * direction[None, :]
        + (amplitude * np.sin(np.pi * ts))[:, None] * perp[None, :]
    )
    return points, radius


def _in_bounds(points: np.ndarray, radius: float, dims) -> bool:
    """Whether every centerline point keeps its least distance to the grid's
    edge voxels."""
    margin = max(radius, _BACKBONE_REACH) + 0.6
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    return bool(np.all(lo >= margin) and np.all(hi <= np.array(dims) - 1 - margin))


def _min_point_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).min())


def _rasterize(mask: np.ndarray, points: np.ndarray, radius: float) -> None:
    # Each segment tests only the voxels of its own box: its endpoints'
    # extent padded by radius + 1, clipped to the grid. A voxel outside that
    # box is farther than radius from the segment, so OR-ing the segments'
    # `dist <= radius` marks the voxels whose least distance is <= radius.
    # The arithmetic per voxel is that of the dense reference in
    # tests/oracles.py, so boundary voxels round the same way. grid holds
    # the coordinates of the tube's box; each segment takes its own from it.
    top = np.array(mask.shape) - 1
    lo = np.maximum(np.floor(points.min(axis=0) - radius - 1), 0).astype(int)
    hi = np.minimum(np.ceil(points.max(axis=0) + radius + 1), top).astype(int)
    xs = np.arange(lo[0], hi[0] + 1)
    ys = np.arange(lo[1], hi[1] + 1)
    zs = np.arange(lo[2], hi[2] + 1)
    grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).astype(np.float64)
    tube = mask[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1]
    for p0, p1 in zip(points[:-1], points[1:]):
        s_lo = np.maximum(np.floor(np.minimum(p0, p1) - radius - 1), 0).astype(int)
        s_hi = np.minimum(np.ceil(np.maximum(p0, p1) + radius + 1), top).astype(int)
        box = tuple(slice(a, b + 1) for a, b in zip(s_lo - lo, s_hi - lo))
        sub = grid[box]
        coords = sub.reshape(-1, 3)
        seg = p1 - p0
        denom = float(seg @ seg)
        if denom == 0.0:
            closest = p0[None, :]
        else:
            t = np.clip((coords - p0) @ seg / denom, 0.0, 1.0)
            closest = p0[None, :] + t[:, None] * seg[None, :]
        dist = np.sqrt(((coords - closest) ** 2).sum(axis=1))
        tube[box] |= (dist <= radius).reshape(sub.shape[:3])
    backbone = np.round(points).astype(int)
    mask[backbone[:, 0], backbone[:, 1], backbone[:, 2]] = True


def generate(spec: PhantomSpec) -> tuple[Volume3D, BinaryMask, int]:
    """(noisy image, truth mask, cluster count); deterministic per seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    mask = np.zeros(spec.dims, dtype=bool, order="F")
    placed: list[np.ndarray] = []  # the placed tubes' polylines
    # placed tubes' point boxes and reaches, one row per tube
    box_lo, box_hi, reach = np.empty((0, 3)), np.empty((0, 3)), np.empty(0)
    attempts_left = 300 * spec.n_tubes
    while len(placed) < spec.n_tubes:
        if attempts_left <= 0:
            raise InfeasiblePackingError(
                f"placed {len(placed)}/{spec.n_tubes} tubes in {spec.dims} "
                f"with clearance {spec.clearance}"
            )
        attempts_left -= 1
        points, radius = _polyline(rng, spec)
        if not _in_bounds(points, radius, spec.dims):
            continue
        r_eff = max(radius, _BACKBONE_REACH)
        lo, hi = points.min(axis=0), points.max(axis=0)
        # the gap between two point boxes never exceeds the least point
        # distance, so a tube whose box gap clears the test by the pad passes
        gap = np.maximum(np.maximum(box_lo - hi, lo - box_hi), 0.0)
        near = np.flatnonzero(np.sqrt((gap**2).sum(axis=1))
                              < r_eff + reach + spec.clearance + _SAMPLE_STEP + _BOX_PAD)
        # polylines are sampled every 0.5 voxels; pad for the gap
        if any(_min_point_distance(points, placed[i])
               < r_eff + reach[i] + spec.clearance + _SAMPLE_STEP for i in near):
            continue
        box_lo, box_hi = np.vstack((box_lo, lo)), np.vstack((box_hi, hi))
        reach = np.append(reach, r_eff)
        placed.append(points)
        _rasterize(mask, points, radius)

    affine = np.zeros((3, 4))
    affine[0, 0], affine[1, 1], affine[2, 2] = spec.spacing
    truth = BinaryMask(data=mask, spacing=spec.spacing, affine=affine)
    noise = rng.normal(spec.bg_mean, spec.bg_sd, size=spec.dims)
    # noise + offset * mask in Fortran order; adding offset * 0.0 off the
    # tubes too keeps that sum's signed zeros
    image_data = np.asfortranarray(noise)
    image_data += spec.tube_offset * 0.0
    np.add(image_data, spec.tube_offset, out=image_data, where=mask)
    image = Volume3D(data=image_data, spacing=spec.spacing, affine=affine)
    return image, truth, len(placed)


# each perturbation kind -> the Perturbation field that parametrizes it
PERTURBATION_PARAMS = {"delete_fraction": "fraction", "dilate_once": None,
                       "drop_clusters": "k", "translate": "offset"}


@dataclass(frozen=True)
class Perturbation:
    """A controlled degradation of a truth mask."""

    kind: str  # a key of PERTURBATION_PARAMS
    fraction: float = 0.0
    k: int = 0
    offset: tuple[int, int, int] = (0, 0, 0)
    connectivity: int = 26

    def validate(self) -> None:
        kinds = tuple(PERTURBATION_PARAMS)
        if self.kind not in kinds:
            raise BadParameterError(f"kind must be one of {kinds}, got {self.kind!r}")
        if self.kind == "delete_fraction" and not 0.0 <= self.fraction <= 1.0:
            raise BadParameterError(f"fraction {self.fraction} outside [0, 1]")
        if self.kind == "drop_clusters" and self.k < 0:
            raise BadParameterError("k must be >= 0")
        if self.connectivity not in CONNECTIVITIES:
            raise BadParameterError(f"connectivity must be one of {CONNECTIVITIES}")


def perturb(truth: BinaryMask, p: Perturbation, seed: int = 0) -> BinaryMask:
    """Apply a perturbation; deterministic for a fixed seed."""
    p.validate()
    rng = np.random.default_rng(seed)
    if p.kind == "dilate_once":
        return dilate_once(truth, p.connectivity)
    fg, dims = truth.fg_index, truth.dims
    if p.kind == "translate":
        # a shift that keeps a voxel on the grid moves its flat index by a
        # constant, so the kept indices stay sorted
        coords = np.add(np.unravel_index(fg, dims, order="F"), np.reshape(p.offset, (3, 1)))
        on_grid = ((coords >= 0) & (coords < np.reshape(dims, (3, 1)))).all(axis=0)
        fg = np.ravel_multi_index(tuple(coords[:, on_grid]), dims, order="F")
    elif p.kind == "delete_fraction":
        n_delete = int(round(p.fraction * fg.size))
        # draw positions in C order, the order np.argwhere lists voxels in,
        # so a seed deletes the voxels it always did
        by_rank = np.argsort(np.ravel_multi_index(np.unravel_index(fg, dims, order="F"), dims))
        keep = np.ones(fg.size, dtype=bool)
        keep[by_rank[rng.choice(fg.size, size=n_delete, replace=False)]] = False
        fg = fg[keep]
    else:  # drop_clusters
        lm = label_components(truth, p.connectivity)
        if p.k > lm.component_count:
            raise BadParameterError(
                f"cannot drop {p.k} of {lm.component_count} clusters"
            )
        drop = rng.choice(lm.component_count, size=p.k, replace=False) + 1
        fg = lm.fg_index[~np.isin(lm.fg_labels, drop)]
    return BinaryMask.from_index(fg, dims, truth.spacing, truth.affine)

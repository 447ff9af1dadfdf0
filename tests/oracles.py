"""Independent reference implementations used only by the test suite.

These deliberately use different algorithms from the package (breadth-first
flood fill instead of union-find, literal sign-assignment enumeration
instead of tabulated counts, explicit loops instead of vectorized shifts)
so agreement between the two routes is meaningful.
"""

import gzip
import math
import struct
from collections import deque
from pathlib import Path

import numpy as np

# NIfTI-1 datatype code -> (numpy type, bitpix), written out from nifti1.h
# rather than read off the package, so the test writer and the decoder below
# cannot agree with a wrong package table
NIFTI_DATATYPES = {
    2: (np.dtype("u1"), 8),
    4: (np.dtype("i2"), 16),
    8: (np.dtype("i4"), 32),
    16: (np.dtype("f4"), 32),
    64: (np.dtype("f8"), 64),
    256: (np.dtype("i1"), 8),
    512: (np.dtype("u2"), 16),
    768: (np.dtype("u4"), 32),
    1024: (np.dtype("i8"), 64),
    1280: (np.dtype("u8"), 64),
}


def read_nifti_grid(path) -> np.ndarray:
    """The float64 [x, y, z] grid of a single-file NIfTI-1 volume, decoded
    whole: gzip.decompress if the file starts with the gzip magic, struct
    for the header fields, then np.frombuffer and an x-fastest reshape. Each
    value is scaled as stored * scl_slope + scl_inter, with slope 0 or NaN
    read as 1 and a NaN intercept as 0."""
    blob = Path(path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    order = "<" if struct.unpack_from("<i", blob, 0)[0] == 348 else ">"
    dims = struct.unpack_from(order + "8h", blob, 40)[1:4]
    (code,) = struct.unpack_from(order + "h", blob, 70)
    vox_offset, slope, inter = struct.unpack_from(order + "3f", blob, 108)
    stored = np.frombuffer(blob, NIFTI_DATATYPES[code][0].newbyteorder(order),
                           count=math.prod(dims), offset=int(vox_offset))
    if slope == 0.0 or math.isnan(slope):
        slope = 1.0
    if math.isnan(inter):
        inter = 0.0
    return (stored.astype(np.float64) * slope + inter).reshape(dims, order="F")


def offsets_for(connectivity: int) -> list[tuple[int, int, int]]:
    """Neighbor offsets from the face/edge/corner description."""
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                changed = (dx != 0) + (dy != 0) + (dz != 0)
                if changed == 0:
                    continue
                if connectivity == 6 and changed > 1:
                    continue
                if connectivity == 18 and changed > 2:
                    continue
                out.append((dx, dy, dz))
    return out


def bfs_label(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Flood-fill labeling, ids by first-encountered voxel in x-fastest order.

    Runs on a padded flat list so the inner loop needs no bounds checks.
    """
    nx, ny, nz = mask.shape
    px, py = nx + 2, ny + 2

    def flat(x, y, z):
        return (x + 1) + px * ((y + 1) + py * (z + 1))

    fg = [False] * (px * py * (nz + 2))
    xs, ys, zs = np.nonzero(mask)
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        fg[flat(x, y, z)] = True
    flat_offsets = [dx + px * (dy + py * dz) for dx, dy, dz in offsets_for(connectivity)]

    labels = [0] * len(fg)
    next_id = 1
    queue = deque()
    for z in range(nz):
        for y in range(ny):
            base = flat(0, y, z)
            for x in range(nx):
                v = base + x
                if not fg[v] or labels[v]:
                    continue
                labels[v] = next_id
                queue.append(v)
                while queue:
                    cur = queue.popleft()
                    for off in flat_offsets:
                        nb = cur + off
                        if fg[nb] and not labels[nb]:
                            labels[nb] = next_id
                            queue.append(nb)
                next_id += 1

    out = np.zeros((nx, ny, nz), dtype=np.int32)
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        out[x, y, z] = labels[flat(x, y, z)]
    return out


def brute_dilate(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Neighbor-union dilation by explicit voxel loop."""
    nx, ny, nz = mask.shape
    out = mask.copy()
    for x, y, z in zip(*(idx.tolist() for idx in np.nonzero(mask))):
        for dx, dy, dz in offsets_for(connectivity):
            u, v, w = x + dx, y + dy, z + dz
            if 0 <= u < nx and 0 <= v < ny and 0 <= w < nz:
                out[u, v, w] = True
    return out


def brute_contrast(image: np.ndarray, mask: np.ndarray, connectivity: int,
                   per_cluster: bool):
    """(mask_mean, shell_mean, |difference|) from flood-fill clusters, the
    loop dilation and boolean indexing, or None when no ring is non-empty.

    Per cluster, each ring leaves out all foreground, clusters with an empty
    ring are skipped, and the three values are averaged over the rest.
    """
    labels = bfs_label(mask, connectivity)
    groups = ([labels == cid for cid in range(1, labels.max() + 1)]
              if per_cluster else [mask])
    rows = []
    for group in groups:
        ring = brute_dilate(group, connectivity) & ~mask
        if ring.any():
            mask_mean, shell_mean = float(image[group].mean()), float(image[ring].mean())
            rows.append((mask_mean, shell_mean, abs(mask_mean - shell_mean)))
    if not rows:
        return None
    return tuple(float(np.mean(column)) for column in zip(*rows))


def wilcoxon_enum_p(a, b) -> float:
    """Two-sided signed-rank p by literal enumeration of all 2^n sign
    assignments (vectorized by array doubling). Requires tie-free |d|."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    d = d[d != 0]
    n = d.size
    abs_d = np.abs(d)
    assert np.unique(abs_d).size == n, "enumeration oracle needs tie-free |d|"
    ranks = np.empty(n, dtype=np.float64)
    ranks[np.argsort(abs_d)] = np.arange(1, n + 1)
    w_plus = ranks[d > 0].sum()
    w_minus = ranks[d < 0].sum()
    w_min = min(w_plus, w_minus)
    sums = np.zeros(1)
    for r in ranks:
        sums = np.concatenate([sums, sums + r])
    count = int(np.count_nonzero(sums <= w_min + 0.5))
    return min(1.0, 2.0 * count / sums.size)


def pearson_two_pass(xs, ys) -> float:
    """Plain two-pass covariance Pearson correlation."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / (sxx * syy) ** 0.5


def bh_direct(p_values) -> list[float]:
    """q_i = min over j with p_j >= p_i of (m * p_(j) / rank_j), capped at 1."""
    m = len(p_values)
    indexed = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    for pos in range(m - 1, -1, -1):
        i = indexed[pos]
        value = m * p_values[i] / (pos + 1)
        if pos < m - 1:
            value = min(value, adjusted[indexed[pos + 1]])
        adjusted[i] = min(value, 1.0)
    return adjusted


def random_mask(rng: np.random.Generator, shape, density: float) -> np.ndarray:
    return rng.random(shape) < density


def dense_rasterize(mask: np.ndarray, points: np.ndarray, radius: float) -> None:
    """The phantom rasterizer over the tube's whole box: every segment's
    distance at every voxel of the box, the least one tested against radius."""
    lo = np.maximum(np.floor(points.min(axis=0) - radius - 1), 0).astype(int)
    hi = np.minimum(np.ceil(points.max(axis=0) + radius + 1),
                    np.array(mask.shape) - 1).astype(int)
    xs = np.arange(lo[0], hi[0] + 1)
    ys = np.arange(lo[1], hi[1] + 1)
    zs = np.arange(lo[2], hi[2] + 1)
    grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).astype(np.float64)
    coords = grid.reshape(-1, 3)
    best = np.full(coords.shape[0], np.inf)
    for p0, p1 in zip(points[:-1], points[1:]):
        seg = p1 - p0
        denom = float(seg @ seg)
        if denom == 0.0:
            closest = p0[None, :]
            t = None
        else:
            t = np.clip((coords - p0) @ seg / denom, 0.0, 1.0)
            closest = p0[None, :] + t[:, None] * seg[None, :]
        dist = np.sqrt(((coords - closest) ** 2).sum(axis=1))
        np.minimum(best, dist, out=best)
    inside = (best <= radius).reshape(grid.shape[:3])
    mask[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1] |= inside
    backbone = np.round(points).astype(int)
    mask[backbone[:, 0], backbone[:, 1], backbone[:, 2]] = True

"""Single-file NIfTI-1 reader/writer.

Covers exactly what the evaluation pipeline ingests: 3D volumes in the
single-file ("n+1") flavor, optionally gzip-compressed. It reads datatypes
u8/i8/i16/u16/i32/u32/i64/u64/f32/f64 and writes u8/i16/i32/f32/f64.
Dual-file pairs and NIfTI-2 are rejected explicitly.
Voxel data is held x-fastest in memory (Fortran order over (nx, ny, nz));
orientation lives in the affine, never in the array layout.

Every read goes through one streaming decoder: the file is read in blocks,
a .nii.gz inflated by zlib member by member (several members and trailing
zero padding are accepted, and zlib checks each member's header, CRC32 and
length) in bounded pieces, and the voxels are handed on in blocks.
read_volume reads a mask: it keeps each block's foreground indices, so a
mask is held as its index and no grid is built. Intensities are gathered by
read_voxels, and mask tests by read_mask_voxels, only at the voxels asked
for, so a caller that needs a few voxels of a large image or region never
holds its grid. The readers share one scaffold, _volume, which
raises every failure, an OSError included, as an InputError that starts
with the path, so no caller names a volume-read failure.

Every write goes through one block writer. write_volume alone looks at the
volume's form: a grid is served from its buffer, and a volume held as its
foreground (an index-built BinaryMask, a ccl.LabelMap) is painted only a
range at a time, so no grid is built; for a .nii.gz, the grid's bytes or the
index mark the 4 kB blocks of the byte stream that may hold a nonzero byte.
_write_stream sees only those bytes and busy blocks. A .nii.gz is one gzip
member whose deflate stream is spliced together: the busy blocks are
deflated by one Z_RLE compressor, and each run of all-zero blocks is a full
flush followed by precomputed deflate of 2**k zero blocks, with the CRC
carried over the zeros by a GF(2) operator, as pigz joins independently
compressed pieces. It decompresses to exactly the bytes of the .nii write.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BadHeaderError,
    BadMagicError,
    DimMismatchError,
    InconsistentBitpixError,
    InputError,
    RangeOverflowError,
    TooShortError,
    TruncatedDataError,
    UnsupportedDatatypeError,
    UnsupportedFormatError,
)

HEADER_SIZE = 348
SINGLE_FILE_VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"
NIFTI2_HEADER_SIZE = 540

# datatype code -> (numpy dtype, bitpix), the codes write_volume writes
DATATYPES: dict[int, tuple[np.dtype, int]] = {
    2: (np.dtype(np.uint8), 8),
    4: (np.dtype(np.int16), 16),
    8: (np.dtype(np.int32), 32),
    16: (np.dtype(np.float32), 32),
    64: (np.dtype(np.float64), 64),
}
# the codes the readers take: also the int8, unsigned and 64-bit label
# types of segmentation tools. A 64-bit integer is exact in float64 only up
# to 2**53 in magnitude, so read_voxels rejects a larger one
READ_DATATYPES: dict[int, tuple[np.dtype, int]] = {
    **DATATYPES,
    256: (np.dtype(np.int8), 8),
    512: (np.dtype(np.uint16), 16),
    768: (np.dtype(np.uint32), 32),
    1024: (np.dtype(np.int64), 64),
    1280: (np.dtype(np.uint64), 64),
}
_EXACT_INT = 2**53

GZIP_MAGIC = b"\x1f\x8b"


@dataclass(eq=False)
class NiftiHeader:
    """Decoded NIfTI-1 header, byte order already resolved."""

    sizeof_hdr: int
    dim: tuple[int, ...]
    datatype_code: int
    bitpix: int
    pixdim: tuple[float, ...]
    vox_offset: float
    scl_slope: float
    scl_inter: float
    qform_code: int
    sform_code: int
    quatern: tuple[float, float, float]
    qoffset: tuple[float, float, float]
    srow_x: tuple[float, float, float, float]
    srow_y: tuple[float, float, float, float]
    srow_z: tuple[float, float, float, float]
    magic: bytes
    byte_order: str  # "<" or ">", as detected from sizeof_hdr

    @property
    def dtype(self) -> np.dtype:
        return READ_DATATYPES[self.datatype_code][0]

    # dims and affine let a header be checked with ensure_same_grid
    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dim[1], self.dim[2], self.dim[3])

    @property
    def affine(self) -> np.ndarray:
        return affine_from_header(self)


@dataclass(eq=False)
class Volume3D:
    """Dense 3D scalar grid: data indexed [x, y, z], spacing in mm."""

    data: np.ndarray
    spacing: tuple[float, float, float]
    affine: np.ndarray  # 3x4, voxel index -> world mm

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ValueError(f"expected a 3D grid, got shape {self.data.shape}")
        self.data = np.asfortranarray(self.data)
        self.data.setflags(write=False)
        self._check_geometry()

    def _check_geometry(self) -> None:
        self.affine = np.asarray(self.affine, dtype=np.float64).reshape(3, 4)
        self.affine.setflags(write=False)
        self.spacing = tuple(float(s) for s in self.spacing)
        if any(s <= 0 for s in self.spacing):
            raise BadHeaderError(f"non-positive voxel spacing {self.spacing}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz


@dataclass(eq=False)
class BinaryMask(Volume3D):
    """Boolean foreground/background on a 3D grid, worked on as its sorted
    foreground index (fg_index).

    BinaryMask(data, spacing, affine) takes a bool grid as input, and
    BinaryMask.from_index(index, dims, spacing, affine) the index itself.
    Every operation reads fg_index, which a grid input yields on first use;
    data is only an output, painted from fg_index when asked for, as
    LabelMap.data is. Both are cached, as neither changes, and read-only.
    """

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=bool)
        super().__post_init__()
        self._dims = self.data.shape

    @classmethod
    def from_index(cls, index: np.ndarray, dims, spacing, affine) -> BinaryMask:
        """The mask whose foreground is the sorted, repeat-free flat
        x-fastest indices `index` of a grid of dims; no grid is painted."""
        mask = cls.__new__(cls)
        mask._dims = tuple(int(d) for d in dims)
        mask.spacing, mask.affine = spacing, affine
        mask._check_geometry()
        index = np.asarray(index, dtype=np.int64).view()
        index.setflags(write=False)
        mask.fg_index = index
        return mask

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._dims

    @cached_property
    def data(self) -> np.ndarray:
        """bool grid in Fortran order, painted from fg_index on first access."""
        flat = np.zeros(math.prod(self._dims), dtype=bool)
        flat[self.fg_index] = True
        grid = flat.reshape(self._dims, order="F")
        grid.setflags(write=False)
        return grid

    @cached_property
    def fg_index(self) -> np.ndarray:
        """Sorted flat x-fastest indices of the foreground voxels."""
        index = np.flatnonzero(self.data.ravel("F"))
        index.setflags(write=False)
        return index

    @property
    def foreground_count(self) -> int:
        return self.fg_index.size

    def contains(self, index: np.ndarray) -> np.ndarray:
        """Foreground test at flat x-fastest indices: a binary search of
        fg_index."""
        fg = self.fg_index
        if not fg.size:
            return np.zeros(np.shape(index), dtype=bool)
        at = np.minimum(np.searchsorted(fg, index), fg.size - 1)
        return fg[at] == index


def ensure_same_grid(a: Volume3D, b: Volume3D, strict: bool = False) -> None:
    """Dims must match; strict mode also compares affines within 1e-4."""
    if a.dims != b.dims:
        raise DimMismatchError(f"grid mismatch: {a.dims} vs {b.dims}")
    if strict and not np.allclose(a.affine, b.affine, atol=1e-4):
        raise DimMismatchError("affines differ beyond 1e-4 in strict grid mode")


# header layout, offsets per the NIfTI-1 standard; names are NiftiHeader's
_FIELDS = (
    ("sizeof_hdr", 0, "i"),
    ("dim", 40, "8h"),
    ("datatype_code", 70, "h"),
    ("bitpix", 72, "h"),
    ("pixdim", 76, "8f"),
    ("vox_offset", 108, "f"),
    ("scl_slope", 112, "f"),
    ("scl_inter", 116, "f"),
    ("qform_code", 252, "h"),
    ("sform_code", 254, "h"),
    ("quatern", 256, "3f"),
    ("qoffset", 268, "3f"),
    ("srow_x", 280, "4f"),
    ("srow_y", 296, "4f"),
    ("srow_z", 312, "4f"),
    ("magic", 344, "4s"),
)


def parse_header(raw: bytes) -> NiftiHeader:
    """Decode the 348-byte header, detecting byte order from sizeof_hdr.

    Raises TooShortError, UnsupportedFormatError (NIfTI-2), BadHeaderError,
    BadMagicError, UnsupportedDatatypeError or InconsistentBitpixError.
    """
    if len(raw) < HEADER_SIZE:
        raise TooShortError(f"need {HEADER_SIZE} header bytes, got {len(raw)}")

    order = None
    for candidate in ("<", ">"):
        (size,) = struct.unpack_from(candidate + "i", raw, 0)
        if size == HEADER_SIZE:
            order = candidate
            break
        if size == NIFTI2_HEADER_SIZE:
            raise UnsupportedFormatError("NIfTI-2 header (sizeof_hdr=540) is not supported")
    if order is None:
        raise BadHeaderError("sizeof_hdr is not 348 in either byte order")

    values = {}
    for name, offset, fmt in _FIELDS:
        decoded = struct.unpack_from(order + fmt, raw, offset)
        values[name] = decoded[0] if len(decoded) == 1 else decoded

    magic = values["magic"]
    if magic not in (MAGIC_SINGLE, MAGIC_PAIR):
        raise BadMagicError(f"magic {magic!r} is neither 'n+1' nor 'ni1'")

    dim = values["dim"]
    if not 1 <= dim[0] <= 7:
        raise BadHeaderError(f"dim[0]={dim[0]} outside 1..7")

    datatype = values["datatype_code"]
    if datatype not in READ_DATATYPES:
        raise UnsupportedDatatypeError(
            f"datatype code {datatype} not in {sorted(READ_DATATYPES)}")
    bitpix = values["bitpix"]
    if bitpix != READ_DATATYPES[datatype][1]:
        raise InconsistentBitpixError(
            f"bitpix {bitpix} inconsistent with datatype {datatype} "
            f"(expected {READ_DATATYPES[datatype][1]})"
        )

    return NiftiHeader(**values, byte_order=order)


def _quaternion_affine(hdr: NiftiHeader) -> np.ndarray:
    b, c, d = hdr.quatern
    a2 = 1.0 - (b * b + c * c + d * d)
    if a2 < 1e-7:  # a half turn, which float32 storage leaves short of unit length (nifti1_io.c)
        a, norm = 0.0, math.sqrt(b * b + c * c + d * d)
        b, c, d = b / norm, c / norm, d / norm
    else:
        a = math.sqrt(a2)
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * b * c - 2 * a * d, 2 * b * d + 2 * a * c],
            [2 * b * c + 2 * a * d, a * a + c * c - b * b - d * d, 2 * c * d - 2 * a * b],
            [2 * b * d - 2 * a * c, 2 * c * d + 2 * a * b, a * a + d * d - b * b - c * c],
        ]
    )
    qfac = -1.0 if hdr.pixdim[0] < 0 else 1.0
    scale = np.diag([hdr.pixdim[1], hdr.pixdim[2], qfac * hdr.pixdim[3]])
    affine = np.empty((3, 4))
    affine[:, :3] = rot @ scale
    affine[:, 3] = hdr.qoffset
    return affine


def affine_from_header(hdr: NiftiHeader) -> np.ndarray:
    """sform if coded, else qform, else a spacing diagonal."""
    if hdr.sform_code > 0:
        return np.array([hdr.srow_x, hdr.srow_y, hdr.srow_z], dtype=np.float64)
    if hdr.qform_code > 0:
        return _quaternion_affine(hdr)
    affine = np.zeros((3, 4))
    affine[0, 0], affine[1, 1], affine[2, 2] = hdr.pixdim[1], hdr.pixdim[2], hdr.pixdim[3]
    return affine


_BLOCK = 1 << 18  # file bytes read per step
_PIECE = 1 << 18  # most decompressed bytes inflated per step
_MAX_RATIO = 1032  # deflate inflates at most this many bytes per byte
_EOF = "Compressed file ended before the end-of-stream marker was reached"


def _inflate(fh) -> Iterator[bytes]:
    """The decompressed bytes of an open file, in pieces of at most _PIECE
    bytes, read _BLOCK bytes at a time.

    A file that starts with the gzip magic is a series of gzip members (RFC
    1952, 2.2), each one decoded by zlib, which checks its header (flags,
    and the header CRC if there is one) and its CRC32 and length trailer;
    zero padding after a member is skipped. Any other file passes through
    as it is. max_length bounds each piece, so a highly compressed block
    never inflates at once.
    """
    data = fh.read(_BLOCK)
    if data[:2] != GZIP_MAGIC:
        while data:
            yield data
            data = fh.read(_BLOCK)
        return
    while True:  # one gzip member per pass
        member = zlib.decompressobj(16 + zlib.MAX_WBITS)
        while not member.eof:
            if not data:
                data = fh.read(_BLOCK)
                if not data:
                    raise InputError(_EOF)
            piece = member.decompress(data, _PIECE)
            data = member.unused_data if member.eof else member.unconsumed_tail
            if piece:
                yield piece
        data = data.lstrip(b"\x00")
        while not data:  # zero padding, possibly up to the end of the file
            block = fh.read(_BLOCK)
            if not block:
                return
            data = block.lstrip(b"\x00")


def _check_single_file(hdr: NiftiHeader) -> None:
    if hdr.magic == MAGIC_PAIR:
        raise UnsupportedFormatError("dual-file ('ni1') NIfTI pairs are not supported")
    if hdr.vox_offset < SINGLE_FILE_VOX_OFFSET:
        raise BadHeaderError(
            f"vox_offset {hdr.vox_offset} < {SINGLE_FILE_VOX_OFFSET} in a single-file volume"
        )
    rank = hdr.dim[0]
    if rank == 4 and hdr.dim[4] == 1:
        rank = 3
    if rank != 3:
        raise UnsupportedFormatError(f"only 3D volumes supported, got dim={hdr.dim}")
    if min(hdr.dims) < 1:
        raise BadHeaderError(f"non-positive grid extents {hdr.dims}")
    if any(s <= 0 for s in hdr.pixdim[1:4]):
        raise BadHeaderError(f"non-positive pixdim {hdr.pixdim[1:4]}")


def _stream(fh) -> Iterator:
    """Yield the checked header of an open single-file volume, then its
    stored voxel values as (first flat x-fastest index, values) blocks that
    tile the grid in order.

    The file is always read to its end, so every gzip trailer is checked,
    and a damaged stream is reported before anything about its content: a
    bad header after the rest of the stream, a file short of its grid as
    TruncatedDataError after the last block.
    """
    pieces = _inflate(fh)
    head = b""
    for piece in pieces:
        head += piece
        if len(head) >= HEADER_SIZE:
            break
    try:
        hdr = parse_header(head)
        _check_single_file(hdr)
    except InputError:
        for _ in pieces:
            pass
        raise

    # the voxels may start in the bytes read so far; only the chain holds them
    pieces, head = itertools.chain((head,), pieces), None
    dtype = hdr.dtype.newbyteorder(hdr.byte_order)
    size = dtype.itemsize
    count = math.prod(hdr.dims)
    start = int(hdr.vox_offset)
    if start + count * size > _MAX_RATIO * os.fstat(fh.fileno()).st_size:
        # no file this small holds the grid: fail as a short file, not on allocation
        raise _truncated(count * size, start, sum(map(len, pieces)))
    yield hdr

    done, position, carry = 0, 0, b""  # voxels yielded, stream bytes seen
    for piece in pieces:
        skip = max(start - position, 0)
        position += len(piece)
        if done == count or skip >= len(piece):
            continue
        view = memoryview(piece)[skip:]
        if carry:  # a voxel split across two pieces
            take = min(size - len(carry), len(view))
            carry += view[:take].tobytes()
            view = view[take:]
            if len(carry) == size:
                yield done, np.frombuffer(carry, dtype)
                done, carry = done + 1, b""
        n = min(len(view) // size, count - done)
        if n:
            yield done, np.frombuffer(view, dtype, count=n)
            done += n
        if done < count:
            carry += view[n * size:].tobytes()
    if done < count:
        raise _truncated(count * size, start, position)


def _truncated(nbytes: int, start: int, length: int) -> TruncatedDataError:
    return TruncatedDataError(f"need {nbytes} data bytes at offset {start}, file has {length - start}")


@contextmanager
def _volume(path: str | Path, grid: Volume3D | None = None, strict: bool = False):
    """(header, voxel blocks) of the single-file volume at path, from
    _stream; on a clean exit the header is checked against grid as
    ensure_same_grid does. Every failure, an OSError and a corrupt deflate
    stream included, is raised as an InputError that starts with the path.
    Within it a signalling NaN converts to NaN without a warning."""
    try:
        with open(path, "rb") as fh, np.errstate(invalid="ignore"):
            stream = _stream(fh)
            hdr = next(stream)
            yield hdr, stream
            if grid is not None:
                ensure_same_grid(hdr, grid, strict)
    except OSError as exc:  # strerror leaves out the path named here
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except zlib.error as exc:
        raise InputError(f"{path}: {exc}") from exc
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _scale(values: np.ndarray, hdr: NiftiHeader) -> None:
    """values * slope + intercept in place, with slope 0 or NaN read as 1 and
    a NaN intercept as 0."""
    slope = hdr.scl_slope
    if slope == 0.0 or np.isnan(slope):
        slope = 1.0
    values *= slope
    values += 0.0 if np.isnan(hdr.scl_inter) else hdr.scl_inter


def _exact(values: np.ndarray) -> np.ndarray:
    """values, after checking that float64 holds each of them exactly."""
    if values.dtype.itemsize == 8 and values.dtype.kind in "iu" and values.size:
        for v in (int(values.min()), int(values.max())):
            if abs(v) > _EXACT_INT:
                raise RangeOverflowError(
                    f"voxel value {v} is beyond 2**53 and has no exact float64 value")
    return values


def _holds_nan(values: np.ndarray) -> bool:
    return values.dtype.kind == "f" and bool(np.isnan(values).any())


def read_volume(path: str | Path, grid: Volume3D | None = None,
                strict: bool = False) -> BinaryMask:
    """Read a single-file NIfTI-1 mask.

    The raw stored values are binarized (nonzero test, before any scl
    scaling) and the BinaryMask is held as its foreground index, kept block
    by block, so no grid is built; a float mask that holds NaN, which is
    neither foreground nor background, is rejected. No more than a few
    blocks of the file are held at once. Given a grid, the header is then
    checked against it as ensure_same_grid does (dims, and in strict mode
    the affine). Every failure, a file that cannot be opened, a truncated or
    corrupt gzip stream and a grid mismatch included, is an InputError whose
    message starts with the path.
    """
    with _volume(path, grid, strict) as (hdr, stream):
        parts, total, nan = [], 0, False
        for first, values in stream:
            fg = values != 0  # binarized first: flatnonzero is ~10x faster on bool
            part = np.flatnonzero(fg)
            # a dense block keeps its nonzero test instead, which is the
            # smaller, so a dense mask holds no more than its grid
            parts.append((first, part.size, part if 8 * part.size < fg.size else fg))
            total += part.size
            nan = nan or _holds_nan(values)
        if nan:
            raise InputError("mask holds NaN voxels")
    index, end = np.empty(total, dtype=np.int64), 0
    for first, n, part in parts:
        if part.dtype == bool:
            part = np.flatnonzero(part)
        np.add(part, first, out=index[end:end + n])
        end += n
    return BinaryMask.from_index(index, hdr.dims, hdr.pixdim[1:4], affine_from_header(hdr))


def read_voxels(path: str | Path, index: np.ndarray, grid: Volume3D,
                strict: bool = False) -> np.ndarray:
    """Intensity values of a single-file NIfTI-1 volume at sorted flat
    x-fastest indices (repeats allowed), as float64: each stored value
    times scl_slope plus scl_inter, with slope 0 or NaN read as 1 and a NaN
    intercept as 0, without building the grid.

    The whole file is still decoded, so a damaged stream fails as in
    read_volume, and so does a 64-bit integer beyond 2**53 in magnitude
    anywhere in it, which float64 would round. The header's grid is then
    checked against grid as in read_volume, with the path named.
    """
    values = np.empty(index.size)
    with _volume(path, grid, strict) as (hdr, stream):
        for first, block in stream:
            lo, hi = np.searchsorted(index, (first, first + block.size))
            values[lo:hi] = _exact(block)[index[lo:hi] - first]
        _scale(values, hdr)
    return values


def read_mask_voxels(path: str | Path, index: np.ndarray, grid: Volume3D,
                     strict: bool = False) -> tuple[np.ndarray, bool]:
    """(foreground test at sorted flat x-fastest indices, whether any voxel
    of the file is foreground) of a single-file NIfTI-1 mask:
    read_volume(path).contains(index) and .foreground_count > 0, without
    building its index or its grid.

    The whole file is decoded and checked as in read_volume: a damaged
    stream, then NaN anywhere in a float mask, then the grid, each error
    naming the path.
    """
    inside = np.empty(index.size, dtype=bool)
    found = nan = False
    with _volume(path, grid, strict) as (_, stream):
        for first, values in stream:
            lo, hi = np.searchsorted(index, (first, first + values.size))
            np.not_equal(values[index[lo:hi] - first], 0, out=inside[lo:hi])
            found = found or bool(values.any())  # -0.0 is background here too
            nan = nan or _holds_nan(values)
        if nan:
            raise InputError("mask holds NaN voxels")
    return inside, found


def _check_representable(data: np.ndarray, dtype: np.dtype, code: int) -> None:
    if np.can_cast(data.dtype, dtype, "safe"):
        return
    if dtype.kind in "ui":
        info = np.iinfo(dtype)
        rounded = np.round(data)
        if not np.array_equal(rounded, data):
            raise RangeOverflowError(f"non-integral values cannot be stored as datatype {code}")
        if data.size and (data.min() < info.min or data.max() > info.max):
            raise RangeOverflowError(
                f"values outside [{info.min}, {info.max}] for datatype {code}"
            )
    elif dtype == np.float32 and data.size:
        finite = np.isfinite(data)
        if np.any(finite & (np.abs(data) > np.finfo(np.float32).max)):
            raise RangeOverflowError("finite values overflow float32")


def build_header(vol: Volume3D, datatype: int) -> bytes:
    """Assemble a little-endian single-file header for the volume."""
    aff = np.asarray(vol.affine, dtype=np.float64)
    values = {
        "sizeof_hdr": HEADER_SIZE,
        "dim": (3, *vol.dims, 1, 1, 1, 1),
        "datatype_code": datatype,
        "bitpix": DATATYPES[datatype][1],
        "pixdim": (1.0, *vol.spacing, 0.0, 0.0, 0.0, 0.0),
        "vox_offset": float(SINGLE_FILE_VOX_OFFSET),
        "scl_slope": 1.0,
        "scl_inter": 0.0,
        "qform_code": 0,
        "sform_code": 1,
        "quatern": (0.0, 0.0, 0.0),
        "qoffset": (0.0, 0.0, 0.0),
        "srow_x": tuple(aff[0]),
        "srow_y": tuple(aff[1]),
        "srow_z": tuple(aff[2]),
        "magic": MAGIC_SINGLE,
    }
    buf = bytearray(HEADER_SIZE)
    for name, offset, fmt in _FIELDS:
        value = values[name]
        struct.pack_into("<" + fmt, buf, offset, *(value if isinstance(value, tuple) else (value,)))
    return bytes(buf)


# a .nii.gz write cuts its byte stream (header, then voxels) into blocks;
# the blocks that hold only zero bytes are spliced in as precomputed deflate
_ZBLOCK = 1 << 12
_ZPIECE_MAX = 8  # zero pieces span 2**0 .. 2**8 blocks (1 MB); the largest repeats
_STEP = 1 << 20  # most stream bytes served, compressed or written at once
# zlib's gzip header for wbits 31 at Z_RLE: mtime 0, no file name, XFL 4, OS Unix
_GZIP_HEAD = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x04\x03"
_CRC_POLY = 0xEDB88320  # CRC-32, bit-reflected


def _gf2_multiply(a: int, b: int) -> int:
    """a * b modulo the CRC-32 polynomial, both bit-reflected (x^0 is bit
    31), as zlib's multmodp."""
    product = 0
    while a:
        if a & 0x80000000:
            product ^= b
        a = (a << 1) & 0xFFFFFFFF
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1
    return product


@functools.lru_cache(maxsize=32)
def _zeros_operator(n: int) -> tuple[tuple[int, ...], ...]:
    """x^(8n) modulo the CRC-32 polynomial, the linear map that moves a CRC
    register over n zero bytes, as one table per register byte: the moved
    register is the XOR of the four tables at its four bytes."""
    power, square = 1 << 31, 1 << 23  # x^0, x^8
    while n:
        if n & 1:
            power = _gf2_multiply(square, power)
        square = _gf2_multiply(square, square)
        n >>= 1
    tables = []
    for shift in (0, 8, 16, 24):
        table = [0]
        for bit in range(8):  # linear: a byte's image is the XOR of its bits' images
            image = _gf2_multiply(power, 1 << (shift + bit))
            table += [entry ^ image for entry in table]
        tables.append(tuple(table))
    return tuple(tables)


def crc32_zeros(crc: int, n: int) -> int:
    """zlib.crc32(bytes(n), crc), without reading the n bytes (the method of
    zlib's crc32_combine)."""
    t0, t1, t2, t3 = _zeros_operator(n)
    r = crc ^ 0xFFFFFFFF
    return t0[r & 255] ^ t1[r >> 8 & 255] ^ t2[r >> 16 & 255] ^ t3[r >> 24] ^ 0xFFFFFFFF


def _raw_deflate():
    # Z_RLE matches only at distance 1, i.e. runs of one value, which is what
    # masks and label maps are made of. Under Z_RLE any nonzero level gives
    # the same deflate stream; only the gzip header's XFL byte would differ
    return zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS, 8, zlib.Z_RLE)


@functools.cache
def _zero_piece(k: int) -> bytes:
    """Raw deflate of 2**k all-zero blocks, ending on a full flush: byte
    aligned, and referring to nothing before it, so it can be spliced into
    a stream just after a full flush (RFC 1951). One zero block is fed
    2**k times, which gives the same bytes as 2**k blocks at once without
    building them."""
    stream, block = _raw_deflate(), bytes(_ZBLOCK)
    pieces = [stream.compress(block) for _ in range(1 << k)]
    return b"".join(pieces) + stream.flush(zlib.Z_FULL_FLUSH)


def _write_stream(fh, head: bytes, length: int, voxel_bytes, busy: np.ndarray | None) -> None:
    """Write the length-byte stream of head and then voxel_bytes(lo, hi),
    the voxels' bytes [lo, hi), to fh: as they are when busy is None, else
    as one gzip member.

    busy marks each 4 kB block of the stream that may hold a nonzero byte.
    The busy blocks go through one Z_RLE deflate stream, and each run of
    all-zero blocks is a full flush followed by precomputed pieces of 2**k
    zero blocks, its CRC advanced by crc32_zeros; the member decompresses
    to exactly the bytes written uncompressed.
    """
    def read(start: int, stop: int) -> Iterator:
        """The stream's bytes [start, stop), in at most _STEP bytes a piece."""
        for lo in range(start, stop, _STEP):
            hi = min(lo + _STEP, stop)
            if lo < len(head):
                yield head[lo:hi]
            if hi > len(head):
                yield voxel_bytes(max(lo - len(head), 0), hi - len(head))

    if busy is None:
        fh.writelines(read(0, length))
        return
    bounds = [0, *(np.flatnonzero(busy[1:] != busy[:-1]) + 1).tolist(), busy.size]
    stream, crc = _raw_deflate(), 0
    fh.write(_GZIP_HEAD)
    for run, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if run % 2 == 0:  # runs alternate, and block 0 is busy
            for part in read(lo * _ZBLOCK, min(hi * _ZBLOCK, length)):
                crc = zlib.crc32(part, crc)
                fh.write(stream.compress(part))
            continue
        fh.write(stream.flush(zlib.Z_FULL_FLUSH))
        repeats, rest = divmod(hi - lo, 1 << _ZPIECE_MAX)
        for k in [_ZPIECE_MAX] * repeats + [k for k in range(_ZPIECE_MAX) if rest >> k & 1]:
            fh.write(_zero_piece(k))
            crc = crc32_zeros(crc, _ZBLOCK << k)
    fh.write(stream.flush())
    fh.write(struct.pack("<II", crc, length & 0xFFFFFFFF))


def write_volume(vol, path: str | Path, datatype: int) -> None:
    """Write a single-file NIfTI-1 volume (vox_offset 352, little-endian)
    whose voxels are of datatype code `datatype`.

    vol is a Volume3D, or a volume held as its foreground: a BinaryMask
    built from its index, or a ccl.LabelMap. It is written from what it
    holds: a grid it has is written from its buffer, copied only when the
    datatype or memory layout requires a cast; otherwise the voxels are
    painted from fg_index (and fg_labels, else 1) a range at a time, and
    no grid is built.

    A path whose name ends in .gz is written compressed, as one gzip member
    (mtime 0, no file name) whose all-zero 4 kB blocks are spliced in as
    precomputed deflate. The output bytes are the same on every run, and
    they decompress to exactly the bytes of the uncompressed write.
    """
    if datatype not in DATATYPES:
        raise UnsupportedDatatypeError(f"datatype code {datatype} not in {sorted(DATATYPES)}")
    dtype, _ = DATATYPES[datatype]
    start, size = SINGLE_FILE_VOX_OFFSET, dtype.itemsize  # where the voxels start, each one's bytes
    length = start + math.prod(vol.dims) * size
    busy = None
    if Path(path).name.endswith(".gz"):  # per block of the stream: may it hold a nonzero byte?
        busy = np.zeros(-(-length // _ZBLOCK), dtype=bool)
        busy[0] = True  # the header's block
        busy[-1] |= length % _ZBLOCK != 0  # a partial last block is never spliced
    grid = vars(vol).get("data")
    if grid is not None:
        grid = np.asarray(grid)
        _check_representable(grid, dtype, datatype)
        raw = np.asfortranarray(grid.astype(dtype, copy=False)).ravel("F").view(np.uint8)

        def voxel_bytes(lo: int, hi: int):
            return raw[lo:hi]

        if busy is not None:  # scan the full blocks after the header's
            tail = raw[_ZBLOCK - start:]
            full = tail.size // _ZBLOCK
            words = tail[:full * _ZBLOCK].view(np.uint64)
            busy[1:1 + full] = words.reshape(full, _ZBLOCK // 8).any(axis=1)
    else:
        index, values = vol.fg_index, getattr(vol, "fg_labels", None)
        if values is not None:
            _check_representable(values, dtype, datatype)

        def voxel_bytes(lo: int, hi: int):
            first, end = lo // size, -(-hi // size)
            buf = np.zeros(end - first, dtype)
            at, stop = index.searchsorted((first, end))
            buf[index[at:stop] - first] = 1 if values is None else values[at:stop]
            return buf.view(np.uint8)[lo - first * size:hi - first * size]

        if busy is not None:  # 352 and _ZBLOCK are multiples of size: no voxel spans two blocks
            busy[(start + index * size) // _ZBLOCK] = True
    head = build_header(vol, datatype) + b"\x00\x00\x00\x00"  # no extensions
    with open(path, "wb") as fh:
        _write_stream(fh, head, length, voxel_bytes, busy)

"""Single-file NIfTI-1 reader/writer.

Covers exactly what the evaluation pipeline ingests: 3D volumes in the
single-file ("n+1") flavor, optionally gzip-compressed. It reads datatypes
u8/i8/i16/u16/i32/u32/i64/u64/f32/f64 and writes u8/i16/i32/f32/f64.
Dual-file pairs and NIfTI-2 are rejected explicitly.
Voxel data is held x-fastest in memory (Fortran order over (nx, ny, nz));
orientation lives in the affine, never in the array layout.

Every read goes through one streaming decoder: the file is read in blocks,
a .nii.gz inflated member by member (several members and trailing zero
padding are accepted, and every CRC32/length trailer is checked) in
bounded pieces, and the voxels are handed on in blocks. A mask read keeps
each block's foreground indices, so a mask is held as its index and no
grid is built; an intensity read casts each block straight into the output
grid. read_voxels and read_mask_voxels keep only the values at the voxels
asked for, so a caller that needs a few voxels of a large image or region
never holds its grid.
"""

from __future__ import annotations

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
# the codes read_volume/read_voxels read: also the int8, unsigned and 64-bit
# label types of segmentation tools. A 64-bit integer is exact in float64
# only up to 2**53 in magnitude, so an intensity read rejects a larger one
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
    def shape3d(self) -> tuple[int, int, int]:
        return (self.dim[1], self.dim[2], self.dim[3])

    @property
    def dtype(self) -> np.dtype:
        return READ_DATATYPES[self.datatype_code][0]

    # dims and affine let a header be checked with ensure_same_grid
    @property
    def dims(self) -> tuple[int, int, int]:
        return self.shape3d

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
    """Boolean foreground/background on a 3D grid, held as its grid (data),
    its sorted foreground index (fg_index), or both.

    BinaryMask(data, spacing, affine) starts from the grid and
    BinaryMask.from_index(index, dims, spacing, affine) from the index; the
    other form is derived on first use, as LabelMap.data is. Both are cached,
    as neither changes, and read-only.
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

    def any(self) -> bool:
        """Whether any voxel is foreground, from the form already held."""
        if "data" in vars(self):
            return bool(self.data.any())
        return self.fg_index.size > 0

    def contains(self, index: np.ndarray) -> np.ndarray:
        """Foreground test at flat x-fastest indices: a lookup in the grid
        when it is held, else a binary search of fg_index; neither form is
        built for it."""
        if "data" in vars(self):
            return self.data.ravel("F")[index]
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


# header layout, offsets per the NIfTI-1 standard
_FIELDS = (
    ("sizeof_hdr", 0, "i"),
    ("dim", 40, "8h"),
    ("datatype", 70, "h"),
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
    magic = bytes(raw[344:348])

    if magic not in (MAGIC_SINGLE, MAGIC_PAIR):
        raise BadMagicError(f"magic {magic!r} is neither 'n+1' nor 'ni1'")

    dim = tuple(int(d) for d in values["dim"])
    if not 1 <= dim[0] <= 7:
        raise BadHeaderError(f"dim[0]={dim[0]} outside 1..7")

    datatype = int(values["datatype"])
    if datatype not in READ_DATATYPES:
        raise UnsupportedDatatypeError(
            f"datatype code {datatype} not in {sorted(READ_DATATYPES)}")
    bitpix = int(values["bitpix"])
    if bitpix != READ_DATATYPES[datatype][1]:
        raise InconsistentBitpixError(
            f"bitpix {bitpix} inconsistent with datatype {datatype} "
            f"(expected {READ_DATATYPES[datatype][1]})"
        )

    return NiftiHeader(
        sizeof_hdr=HEADER_SIZE,
        dim=dim,
        datatype_code=datatype,
        bitpix=bitpix,
        pixdim=tuple(float(p) for p in values["pixdim"]),
        vox_offset=float(values["vox_offset"]),
        scl_slope=float(values["scl_slope"]),
        scl_inter=float(values["scl_inter"]),
        qform_code=int(values["qform_code"]),
        sform_code=int(values["sform_code"]),
        quatern=tuple(float(v) for v in values["quatern"]),
        qoffset=tuple(float(v) for v in values["qoffset"]),
        srow_x=tuple(float(v) for v in values["srow_x"]),
        srow_y=tuple(float(v) for v in values["srow_y"]),
        srow_z=tuple(float(v) for v in values["srow_z"]),
        magic=magic,
        byte_order=order,
    )


def _quaternion_affine(hdr: NiftiHeader) -> np.ndarray:
    b, c, d = hdr.quatern
    a2 = 1.0 - (b * b + c * c + d * d)
    a = float(np.sqrt(a2)) if a2 > 0 else 0.0
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * b * c - 2 * a * d, 2 * b * d + 2 * a * c],
            [2 * b * c + 2 * a * d, a * a + c * c - b * b - d * d, 2 * c * d - 2 * a * b],
            [2 * b * d - 2 * a * c, 2 * c * d + 2 * a * b, a * a + d * d - b * b - c * c],
        ]
    )
    qfac = -1.0 if hdr.pixdim[0] == -1.0 else 1.0
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
_FHCRC, _FEXTRA, _FNAME, _FCOMMENT = 2, 4, 8, 16  # gzip header flags (RFC 1952)
_MAX_RATIO = 1032  # deflate inflates at most this many bytes per byte
_EOF = "Compressed file ended before the end-of-stream marker was reached"


def _member_header_size(data: bytes) -> int | None:
    """Size of the gzip member header that data starts with (magic already
    checked), or None when data ends inside it."""
    if len(data) < 10:
        return None
    if data[2] != 8:
        raise InputError("Unknown compression method")
    flags, size = data[3], 10
    if flags & _FEXTRA:
        if len(data) < 12:
            return None
        size = 12 + int.from_bytes(data[10:12], "little")
    for flag in (_FNAME, _FCOMMENT):
        if flags & flag:
            end = data.find(b"\x00", size)
            if end < 0:
                return None
            size = end + 1
    if flags & _FHCRC:
        size += 2
    return size if size <= len(data) else None


def _inflate(fh) -> Iterator[bytes]:
    """The decompressed bytes of an open file, in pieces of at most _PIECE
    bytes, read _BLOCK bytes at a time.

    A file that starts with the gzip magic is a series of gzip members (RFC
    1952, 2.2), each one checked against its CRC32 and length trailer, and
    zero padding after a member is skipped; any other file passes through
    as it is. The checks, their order and their messages are those of
    Python's GzipFile, and max_length bounds each piece, so a highly
    compressed block never inflates at once.
    """
    data = fh.read(_BLOCK)
    if data[:2] != GZIP_MAGIC:
        while data:
            yield data
            data = fh.read(_BLOCK)
        return

    def more(data: bytes) -> bytes:
        block = fh.read(_BLOCK)
        if not block:
            raise InputError(_EOF)
        return data + block

    while True:  # one gzip member per pass
        if len(data) < 2:
            data += fh.read(_BLOCK)
            if not data:
                return
        if data[:2] != GZIP_MAGIC:
            raise InputError(f"Not a gzipped file ({data[:2]!r})")
        while (start := _member_header_size(data)) is None:
            data = more(data)
        member, crc, size = zlib.decompressobj(-zlib.MAX_WBITS), 0, 0
        data = data[start:]
        while not member.eof:
            if not data:
                data = more(data)
            piece = member.decompress(data, _PIECE)
            data = member.unused_data if member.eof else member.unconsumed_tail
            if piece:
                crc = zlib.crc32(piece, crc)
                size += len(piece)
                yield piece
        while len(data) < 8:
            data = more(data)
        stored_crc, stored_size = struct.unpack_from("<II", data)
        if stored_crc != crc:
            raise InputError(f"CRC check failed {hex(stored_crc)} != {hex(crc)}")
        if stored_size != size & 0xFFFFFFFF:
            raise InputError("Incorrect length of data produced")
        data = data[8:].lstrip(b"\x00")
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
    if min(hdr.shape3d) < 1:
        raise BadHeaderError(f"non-positive grid extents {hdr.shape3d}")
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
    count = math.prod(hdr.shape3d)
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
def _naming(path: str | Path):
    """Prefix the path to every InputError, a corrupt deflate stream included."""
    try:
        yield
    except zlib.error as exc:
        raise InputError(f"{path}: {exc}") from exc
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _scaling(hdr: NiftiHeader) -> tuple[float, float]:
    """(slope, intercept), with slope 0 or NaN read as 1 and a NaN intercept as 0."""
    slope = hdr.scl_slope
    if slope == 0.0 or np.isnan(slope):
        slope = 1.0
    return slope, 0.0 if np.isnan(hdr.scl_inter) else hdr.scl_inter


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


def read_volume(path: str | Path, mode: str = "intensity", grid: Volume3D | None = None,
                strict: bool = False) -> Volume3D | BinaryMask:
    """Read a single-file NIfTI-1 volume.

    mode="mask" binarizes the raw stored values (nonzero test, before any
    scl scaling) and returns a BinaryMask held as its foreground index, kept
    block by block, so no grid is built; a float mask that holds NaN, which
    is neither foreground nor background, is rejected. mode="intensity"
    applies scl_slope/scl_inter (slope 0 treated as 1) and returns a
    Volume3D of float64, decoded block by block straight into the output
    grid, rejecting a 64-bit integer beyond 2**53 in magnitude, which
    float64 would round. No more than a few blocks of the file are held at
    once. Given a grid, the header is then checked against it as
    ensure_same_grid does (dims, and in strict mode the affine). Every
    InputError, a truncated or corrupt gzip stream and a grid mismatch
    included, carries a message that starts with the path.
    """
    if mode not in ("mask", "intensity"):
        raise ValueError(f"mode must be 'mask' or 'intensity', got {mode!r}")
    with _naming(path), open(path, "rb") as fh:
        stream = _stream(fh)
        hdr = next(stream)
        if mode == "mask":
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
        else:
            out = np.empty(math.prod(hdr.shape3d), dtype=np.float64)
            for first, values in stream:
                out[first:first + values.size] = _exact(values)
        if grid is not None:
            ensure_same_grid(hdr, grid, strict)
    spacing, affine = hdr.pixdim[1:4], affine_from_header(hdr)
    if mode == "mask":
        index, end = np.empty(total, dtype=np.int64), 0
        for first, n, part in parts:
            if part.dtype == bool:
                part = np.flatnonzero(part)
            np.add(part, first, out=index[end:end + n])
            end += n
        return BinaryMask.from_index(index, hdr.shape3d, spacing, affine)
    # in place, bit-identical to stored.astype(np.float64) * slope + inter
    slope, inter = _scaling(hdr)
    out *= slope
    out += inter
    return Volume3D(data=out.reshape(hdr.shape3d, order="F"), spacing=spacing, affine=affine)


def read_voxels(path: str | Path, index: np.ndarray, grid: Volume3D,
                strict: bool = False) -> np.ndarray:
    """Intensity values of a single-file NIfTI-1 volume at sorted flat
    x-fastest indices (repeats allowed): read_volume(path).data.ravel("F")[index],
    bit for bit, without building the grid.

    The whole file is still decoded, so a damaged stream, or a 64-bit
    integer beyond 2**53 anywhere in it, fails as in read_volume, and the
    header's grid is then checked against grid as in read_volume, with the
    path named.
    """
    values = np.empty(index.size)
    with _naming(path), open(path, "rb") as fh:
        stream = _stream(fh)
        hdr = next(stream)
        for first, block in stream:
            lo, hi = np.searchsorted(index, (first, first + block.size))
            values[lo:hi] = _exact(block)[index[lo:hi] - first]
        ensure_same_grid(hdr, grid, strict)
    slope, inter = _scaling(hdr)
    values *= slope
    values += inter
    return values


def read_mask_voxels(path: str | Path, index: np.ndarray, grid: Volume3D,
                     strict: bool = False) -> tuple[np.ndarray, bool]:
    """(foreground test at sorted flat x-fastest indices, whether any voxel
    of the file is foreground) of a single-file NIfTI-1 mask:
    read_volume(path, "mask").contains(index) and .any(), without building
    its index or its grid.

    The whole file is decoded and checked as in read_volume: a damaged
    stream, then NaN anywhere in a float mask, then the grid, each error
    naming the path.
    """
    inside = np.empty(index.size, dtype=bool)
    found = nan = False
    with _naming(path), open(path, "rb") as fh:
        stream = _stream(fh)
        hdr = next(stream)
        for first, values in stream:
            lo, hi = np.searchsorted(index, (first, first + values.size))
            np.not_equal(values[index[lo:hi] - first], 0, out=inside[lo:hi])
            found = found or bool(values.any())  # -0.0 is background here too
            nan = nan or _holds_nan(values)
        if nan:
            raise InputError("mask holds NaN voxels")
        ensure_same_grid(hdr, grid, strict)
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
    dtype, bitpix = DATATYPES[datatype]
    buf = bytearray(HEADER_SIZE)
    struct.pack_into("<i", buf, 0, HEADER_SIZE)
    nx, ny, nz = vol.dims
    struct.pack_into("<8h", buf, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", buf, 70, datatype)
    struct.pack_into("<h", buf, 72, bitpix)
    sx, sy, sz = vol.spacing
    struct.pack_into("<8f", buf, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", buf, 108, float(SINGLE_FILE_VOX_OFFSET))
    struct.pack_into("<f", buf, 112, 1.0)  # scl_slope
    struct.pack_into("<f", buf, 116, 0.0)  # scl_inter
    struct.pack_into("<h", buf, 252, 0)  # qform_code
    struct.pack_into("<h", buf, 254, 1)  # sform_code
    aff = np.asarray(vol.affine, dtype=np.float64)
    struct.pack_into("<4f", buf, 280, *aff[0])
    struct.pack_into("<4f", buf, 296, *aff[1])
    struct.pack_into("<4f", buf, 312, *aff[2])
    buf[344:348] = MAGIC_SINGLE
    return bytes(buf)


def write_volume(
    vol: Volume3D,
    path: str | Path,
    datatype: int = 16,
    gzip_compress: bool | None = None,
) -> None:
    """Write a single-file NIfTI-1 volume (vox_offset 352, little-endian).

    gzip_compress=None infers compression from a .gz suffix. A compressed
    file is one gzip member (mtime 0, no file name) holding one deflate
    stream at strategy Z_RLE, so its output bytes are the same on every
    run, and it decompresses to exactly the bytes of the uncompressed write.
    The header and the voxel buffer go to the file as they are; the voxels
    are copied only when the datatype or memory layout requires a cast.
    """
    if datatype not in DATATYPES:
        raise UnsupportedDatatypeError(f"datatype code {datatype} not in {sorted(DATATYPES)}")
    dtype, _ = DATATYPES[datatype]
    data = np.asarray(vol.data)
    _check_representable(data, dtype, datatype)

    header = build_header(vol, datatype) + b"\x00\x00\x00\x00"  # no extensions
    voxels = memoryview(np.asfortranarray(data.astype(dtype, copy=False)).ravel("F"))

    path = Path(path)
    if gzip_compress is None:
        gzip_compress = path.name.endswith(".gz")
    with open(path, "wb") as fh:
        if gzip_compress:
            # wbits 31: a gzip wrapper with mtime 0 and no file name. Z_RLE
            # matches only at distance 1, i.e. runs of one value, which is
            # what masks and label maps are made of. Under Z_RLE any nonzero
            # level gives the same deflate stream; it only sets the header's
            # XFL byte.
            stream = zlib.compressobj(6, zlib.DEFLATED, 31, 8, zlib.Z_RLE)
            fh.write(stream.compress(header))
            fh.write(stream.compress(voxels))
            fh.write(stream.flush())
        else:
            fh.write(header)
            fh.write(voxels)

import errno
import gzip
import math
import os
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from pvseval import nifti
from pvseval.errors import (
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
from pvseval.nifti import (
    BinaryMask,
    DATATYPES,
    HEADER_SIZE,
    READ_DATATYPES,
    Volume3D,
    parse_header,
    read_mask_voxels,
    read_volume,
    read_voxels,
    write_volume,
)

from conftest import make_mask, write_nifti
from oracles import read_nifti_grid


def minimal_header(order="<", magic=b"n+1\x00", datatype=2, bitpix=None,
                   dims=(4, 4, 4), pixdim=(1.0, 1.0, 1.0), vox_offset=352.0,
                   scl_slope=0.0, scl_inter=0.0, sizeof=HEADER_SIZE):
    if bitpix is None:
        bitpix = DATATYPES[datatype][1] if datatype in DATATYPES else 0
    buf = bytearray(HEADER_SIZE)
    struct.pack_into(order + "i", buf, 0, sizeof)
    struct.pack_into(order + "8h", buf, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into(order + "h", buf, 70, datatype)
    struct.pack_into(order + "h", buf, 72, bitpix)
    struct.pack_into(order + "8f", buf, 76, 1.0, *pixdim, 0, 0, 0, 0)
    struct.pack_into(order + "f", buf, 108, vox_offset)
    struct.pack_into(order + "f", buf, 112, scl_slope)
    struct.pack_into(order + "f", buf, 116, scl_inter)
    buf[344:348] = magic
    return bytes(buf)


def gather_all(path, shape):
    """read_voxels at every voxel of the volume at path, as its [x, y, z] grid."""
    grid = make_mask(np.zeros(shape, bool))
    return read_voxels(path, np.arange(grid.data.size), grid).reshape(shape, order="F")


def write_raw(path, header, payload):
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(b"\x00" * (352 - len(header)))
        fh.write(payload)


class TestParseHeader:
    def test_little_endian(self):
        hdr = parse_header(minimal_header("<"))
        assert hdr.byte_order == "<"
        assert hdr.datatype_code == 2
        assert hdr.dims == (4, 4, 4)

    def test_big_endian(self):
        hdr = parse_header(minimal_header(">"))
        assert hdr.byte_order == ">"
        assert hdr.dims == (4, 4, 4)

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            parse_header(minimal_header(magic=b"xxxx"))

    def test_spacing_is_pixdim_1_to_3(self):
        assert parse_header(minimal_header(pixdim=(2.0, 3.0, 4.0))).spacing == (2.0, 3.0, 4.0)

    def test_pair_magic_parses(self):
        assert parse_header(minimal_header(magic=b"ni1\x00")).magic == b"ni1\x00"

    def test_too_short(self):
        with pytest.raises(TooShortError):
            parse_header(b"\x00" * 100)

    def test_nifti2_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            parse_header(minimal_header(sizeof=540))

    def test_garbage_sizeof(self):
        with pytest.raises(BadHeaderError):
            parse_header(minimal_header(sizeof=123))

    def test_unsupported_datatype(self):
        with pytest.raises(UnsupportedDatatypeError):
            parse_header(minimal_header(datatype=32, bitpix=64))

    def test_inconsistent_bitpix(self):
        with pytest.raises(InconsistentBitpixError):
            parse_header(minimal_header(datatype=4, bitpix=8))


class TestReadVolume:
    def test_all_zero_mask(self, tmp_path):
        path = tmp_path / "z.nii"
        write_raw(path, minimal_header(), bytes(64))
        mask = read_volume(path)
        assert isinstance(mask, BinaryMask)
        assert mask.foreground_count == 0
        assert mask.dims == (4, 4, 4)

    def test_scl_scaling(self, tmp_path):
        path = tmp_path / "s.nii"
        payload = bytes([3] * 64)
        write_raw(path, minimal_header(scl_slope=2.0, scl_inter=1.0), payload)
        assert (gather_all(path, (4, 4, 4)) == 7.0).all()
        assert (read_nifti_grid(path) == 7.0).all()

    def test_volume_needs_a_3d_grid(self):
        with pytest.raises(ValueError) as got:
            Volume3D(np.zeros((2, 2)), (1.0, 1.0, 1.0), np.eye(3, 4))
        assert str(got.value) == "expected a 3D grid, got shape (2, 2)"

    def test_zero_slope_is_identity(self, tmp_path):
        path = tmp_path / "s0.nii"
        write_raw(path, minimal_header(scl_slope=0.0, scl_inter=0.0), bytes([5] * 64))
        assert (gather_all(path, (4, 4, 4)) == 5.0).all()
        assert (read_nifti_grid(path) == 5.0).all()

    def test_mask_binarizes_before_scaling(self, tmp_path):
        # slope would zero everything out; a mask read must ignore it
        path = tmp_path / "m.nii"
        payload = bytes([0, 3] * 32)
        write_raw(path, minimal_header(scl_slope=0.0, scl_inter=-99.0), payload)
        mask = read_volume(path)
        assert mask.foreground_count == 32

    def test_dual_file_rejected(self, tmp_path):
        path = tmp_path / "p.nii"
        write_raw(path, minimal_header(magic=b"ni1\x00", vox_offset=0.0), bytes(64))
        with pytest.raises(UnsupportedFormatError):
            read_volume(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "t.nii"
        write_raw(path, minimal_header(datatype=16), bytes(10))
        with pytest.raises(TruncatedDataError) as info:
            read_volume(path)
        assert str(info.value) == f"{path}: need 256 data bytes at offset 352, file has 10"

    def test_bad_vox_offset(self, tmp_path):
        path = tmp_path / "v.nii"
        write_raw(path, minimal_header(vox_offset=100.0), bytes(64))
        with pytest.raises(BadHeaderError):
            read_volume(path)

    def test_nonpositive_pixdim(self, tmp_path):
        path = tmp_path / "pd.nii"
        write_raw(path, minimal_header(pixdim=(0.0, 1.0, 1.0)), bytes(64))
        with pytest.raises(BadHeaderError, match=r"non-positive pixdim \(0\.0, 1\.0, 1\.0\)$"):
            read_volume(path)

    @pytest.mark.parametrize("pixdim", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                        (1.0, 1.0, math.nan)])
    def test_non_finite_pixdim(self, tmp_path, pixdim):
        path = tmp_path / "pd.nii"
        write_raw(path, minimal_header(pixdim=pixdim), bytes(64))
        with pytest.raises(BadHeaderError) as info:
            read_volume(path)
        assert str(info.value) == f"{path}: non-finite pixdim {pixdim}, vox_offset 352.0 or affine"

    @pytest.mark.parametrize("offset", [math.nan, math.inf])
    def test_non_finite_vox_offset(self, tmp_path, offset):
        # int() of it raised ValueError or OverflowError, an internal error
        path = tmp_path / "vo.nii"
        write_raw(path, minimal_header(vox_offset=offset), bytes(64))
        with pytest.raises(BadHeaderError) as info:
            read_volume(path)
        assert str(info.value) == (
            f"{path}: non-finite pixdim (1.0, 1.0, 1.0), vox_offset {offset} or affine")

    def test_negative_infinite_pixdim_is_non_positive(self, tmp_path):
        path = tmp_path / "pd.nii"
        write_raw(path, minimal_header(pixdim=(1.0, -math.inf, 1.0)), bytes(64))
        with pytest.raises(BadHeaderError) as info:
            read_volume(path)
        assert str(info.value) == f"{path}: non-positive pixdim (1.0, -inf, 1.0)"

    @pytest.mark.parametrize("form", ["sform", "qform"])
    def test_non_finite_affine(self, tmp_path, form):
        buf = bytearray(minimal_header())
        if form == "sform":
            struct.pack_into("<h", buf, 254, 1)
            struct.pack_into("<12f", buf, 280, 1, 0, 0, 0, 0, 1, 0, math.inf, 0, 0, 1, 0)
        else:  # sform_code 0
            struct.pack_into("<h", buf, 252, 1)
            struct.pack_into("<6f", buf, 256, 0.0, math.nan, 0.0, 0.0, 0.0, 0.0)
        path = tmp_path / "a.nii"
        write_raw(path, bytes(buf), bytes(64))
        for read in (read_volume, lambda p: read_voxels(p, np.arange(3), make_mask(
                np.zeros((4, 4, 4), bool)))):
            with pytest.raises(BadHeaderError) as info:
                read(path)
            assert str(info.value) == (
                f"{path}: non-finite pixdim (1.0, 1.0, 1.0), vox_offset 352.0 or affine")

    def test_an_uncoded_non_finite_sform_is_not_read(self, tmp_path):
        buf = bytearray(minimal_header(pixdim=(2.0, 3.0, 4.0)))
        struct.pack_into("<12f", buf, 280, *[math.nan] * 12)  # sform_code stays 0
        path = tmp_path / "a.nii"
        write_raw(path, bytes(buf), bytes(64))
        assert read_volume(path).affine.tolist() == [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 4, 0]]

    def test_zero_grid_extent(self, tmp_path):
        path = tmp_path / "z.nii"
        write_raw(path, minimal_header(dims=(4, 0, 4)), b"")
        with pytest.raises(BadHeaderError, match=r"non-positive grid extents \(4, 0, 4\)"):
            read_volume(path)

    def test_unit_grid_extent(self, tmp_path):
        path = tmp_path / "u.nii"
        write_raw(path, minimal_header(dims=(4, 1, 4)), bytes(16))
        assert read_volume(path).dims == (4, 1, 4)


class TestRoundTrip:
    @pytest.mark.parametrize("code", sorted(DATATYPES))
    def test_random_volume(self, code, tmp_path):
        rng = np.random.default_rng(code)
        dtype, _ = DATATYPES[code]
        if dtype.kind == "f":
            data = rng.normal(size=(5, 4, 3)).astype(dtype).astype(np.float64)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, size=(5, 4, 3)).astype(np.float64)
        vol = Volume3D(data=data, spacing=(0.8, 1.0, 1.25), affine=np.eye(3, 4))
        path = tmp_path / "v.nii"
        write_volume(vol, path, datatype=code)
        assert np.array_equal(read_nifti_grid(path), data)
        back = read_volume(path)
        assert back.dims == vol.dims
        assert back.spacing == tuple(np.float32(s) for s in vol.spacing)

    def test_minimal_u8_layout(self, tmp_path):
        mask = make_mask(np.ones((2, 2, 2), bool))
        path = tmp_path / "ones.nii"
        write_volume(mask, path, datatype=2)
        raw = path.read_bytes()
        assert len(raw) == 352 + 8
        assert raw[352:] == b"\x01" * 8

    def test_gzip_transparency(self, tmp_path):
        rng = np.random.default_rng(7)
        vol = Volume3D(data=rng.integers(0, 100, size=(6, 5, 4)).astype(np.float64),
                       spacing=(1, 1, 1), affine=np.eye(3, 4))
        plain, packed = tmp_path / "a.nii", tmp_path / "a.nii.gz"
        write_volume(vol, plain, datatype=4)
        write_volume(vol, packed, datatype=4)
        with gzip.open(packed, "rb") as fh:
            assert fh.read() == plain.read_bytes()
        for path in (plain, packed):
            assert np.array_equal(read_nifti_grid(path), vol.data)
            assert np.array_equal(gather_all(path, vol.dims), vol.data)
        assert read_volume(plain).spacing == read_volume(packed).spacing

    def test_range_overflow_u8(self, tmp_path):
        vol = Volume3D(data=np.full((2, 2, 2), 300.0), spacing=(1, 1, 1),
                       affine=np.eye(3, 4))
        with pytest.raises(RangeOverflowError):
            write_volume(vol, tmp_path / "o.nii", datatype=2)

    def test_range_overflow_fractional(self, tmp_path):
        vol = Volume3D(data=np.full((2, 2, 2), 0.5), spacing=(1, 1, 1),
                       affine=np.eye(3, 4))
        with pytest.raises(RangeOverflowError):
            write_volume(vol, tmp_path / "f.nii", datatype=4)


# independent layout table for the swap oracle: (offset, struct code, count)
_SWAP_FIELDS = [
    (0, "i", 1), (32, "i", 1), (36, "h", 1), (40, "h", 8), (56, "f", 3),
    (68, "h", 1), (70, "h", 1), (72, "h", 1), (74, "h", 1), (76, "f", 8),
    (108, "f", 1), (112, "f", 1), (116, "f", 1), (120, "h", 1), (124, "f", 1),
    (128, "f", 1), (132, "f", 1), (136, "f", 1), (140, "i", 1), (144, "i", 1),
    (252, "h", 1), (254, "h", 1), (256, "f", 3), (268, "f", 3),
    (280, "f", 4), (296, "f", 4), (312, "f", 4),
]


def byteswap_file(src_bytes: bytes, item_size: int) -> bytes:
    header = bytearray(src_bytes[:HEADER_SIZE])
    for offset, code, count in _SWAP_FIELDS:
        values = struct.unpack_from(f"<{count}{code}", header, offset)
        struct.pack_into(f">{count}{code}", header, offset, *values)
    data = np.frombuffer(src_bytes[352:], dtype=f"u{item_size}").byteswap().tobytes()
    return bytes(header) + src_bytes[HEADER_SIZE:352] + data


@pytest.mark.parametrize("code", sorted(DATATYPES))
def test_byteswapped_file_parses_identically(code, tmp_path):
    rng = np.random.default_rng(40 + code)
    data = rng.integers(0, 100, size=(4, 3, 5)).astype(np.float64)
    vol = Volume3D(data=data, spacing=(0.8, 0.8, 0.8), affine=np.eye(3, 4))
    little = tmp_path / "le.nii"
    write_volume(vol, little, datatype=code)
    big = tmp_path / "be.nii"
    big.write_bytes(byteswap_file(little.read_bytes(), DATATYPES[code][0].itemsize))
    a = read_volume(little)
    b = read_volume(big)
    assert parse_header(big.read_bytes()).byte_order == ">"
    for path in (little, big):
        assert np.array_equal(read_nifti_grid(path), data)
        assert np.array_equal(gather_all(path, data.shape), data)
    assert a.spacing == b.spacing
    assert np.array_equal(a.affine, b.affine)


def test_four_d_with_singleton_volume_axis(tmp_path):
    buf = bytearray(minimal_header())
    struct.pack_into("<8h", buf, 40, 4, 4, 4, 4, 1, 1, 1, 1)  # dim[0]=4, dim[4]=1
    path = tmp_path / "d4.nii"
    write_raw(path, bytes(buf), bytes(64))
    assert read_volume(path).dims == (4, 4, 4)


def test_true_four_d_rejected(tmp_path):
    buf = bytearray(minimal_header())
    struct.pack_into("<8h", buf, 40, 4, 4, 4, 4, 2, 1, 1, 1)  # two timepoints
    path = tmp_path / "d4t.nii"
    write_raw(path, bytes(buf), bytes(128))
    with pytest.raises(UnsupportedFormatError):
        read_volume(path)


def test_no_transform_affine_is_the_spacing_diagonal(tmp_path):
    # qform_code = sform_code = 0 and unequal spacings: each on its own axis
    path = tmp_path / "n.nii"
    write_raw(path, minimal_header(pixdim=(2.0, 3.0, 4.0)), bytes(64))
    vol = read_volume(path)
    assert vol.affine.tolist() == [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 4, 0]]
    assert vol.spacing == (2.0, 3.0, 4.0)


def test_qform_affine_fallback(tmp_path):
    # sform 0, qform identity quaternion: affine is the spacing diagonal + offset
    buf = bytearray(minimal_header(pixdim=(2.0, 3.0, 4.0)))
    struct.pack_into("<h", buf, 252, 1)  # qform_code
    struct.pack_into("<3f", buf, 256, 0.0, 0.0, 0.0)  # b, c, d -> identity
    struct.pack_into("<3f", buf, 268, 10.0, 20.0, 30.0)
    path = tmp_path / "q.nii"
    write_raw(path, bytes(buf), bytes(64))
    vol = read_volume(path)
    expected = np.array([[2, 0, 0, 10], [0, 3, 0, 20], [0, 0, 4, 30]], dtype=float)
    assert np.allclose(vol.affine, expected)


def rodrigues(axis, angle):
    """Rotation by angle about axis: cos I + sin [u]x + (1 - cos) u u^T."""
    u = np.asarray(axis, float) / np.linalg.norm(axis)
    cross = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.cos(angle) * np.eye(3) + np.sin(angle) * cross + (1 - np.cos(angle)) * np.outer(u, u)


# quatern (b, c, d), pixdim[0] (any negative value is qfac -1), the affine's
# 3x3 part for pixdim (2, 3, 4) worked out by hand from nifti1.h, and how far
# float32 storage of (b, c, d) may move it: sin 45 degrees has no float32
# value, so a half turn about x = y is stored just short of unit length
QFORM_CASES = {
    "90_about_z": ((0.0, 0.0, math.sqrt(0.5)), 1.0, [[0, -3, 0], [2, 0, 0], [0, 0, 4]], 1e-6),
    "180_about_x": ((1.0, 0.0, 0.0), 1.0, [[2, 0, 0], [0, -3, 0], [0, 0, -4]], 0.0),
    "180_about_xy": ((math.sqrt(0.5), math.sqrt(0.5), 0.0), 1.0,
                     [[0, 3, 0], [2, 0, 0], [0, 0, -4]], 1e-6),
    "qfac_zero": ((0.0, 0.0, 0.0), 0.0, [[2, 0, 0], [0, 3, 0], [0, 0, 4]], 0.0),  # read as +1
    "qfac_minus_1": ((0.0, 0.0, 0.0), -1.0, [[2, 0, 0], [0, 3, 0], [0, 0, -4]], 0.0),
    "qfac_minus_half": ((0.0, 0.0, 0.0), -0.5, [[2, 0, 0], [0, 3, 0], [0, 0, -4]], 0.0),
    "1_rad_about_122": (tuple(np.sin(0.5) * np.array([1, 2, 2]) / 3), -1.0,
                        rodrigues([1, 2, 2], 1.0) @ np.diag([2, 3, -4]), 1e-5),
}


@pytest.mark.parametrize("case", sorted(QFORM_CASES))
def test_qform_rotation(tmp_path, case):
    quatern, qfac, rotation, tol = QFORM_CASES[case]
    buf = bytearray(minimal_header(pixdim=(2.0, 3.0, 4.0)))
    struct.pack_into("<f", buf, 76, qfac)  # pixdim[0]
    struct.pack_into("<h", buf, 252, 1)  # qform_code; sform_code stays 0
    struct.pack_into("<6f", buf, 256, *quatern, 10.0, 20.0, 30.0)
    path = tmp_path / "q.nii"
    write_raw(path, bytes(buf), bytes(64))
    affine = read_volume(path).affine
    np.testing.assert_allclose(affine[:, :3], rotation, rtol=0, atol=tol)
    assert affine[:, 3].tolist() == [10.0, 20.0, 30.0]
    rot = affine[:, :3] / np.array([2.0, 3.0, math.copysign(4.0, qfac)])
    np.testing.assert_allclose(rot.T @ rot, np.eye(3), rtol=0, atol=1e-6)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-6)


def _sample_volume(code, dims=(7, 6, 5)):
    """A volume whose values fit datatype `code`: runs of one value, as in
    masks and label maps, next to random voxels."""
    rng = np.random.default_rng(100 + code)
    dtype, _ = DATATYPES[code]
    data = np.zeros(dims)
    data[2:5, 1:4, :] = 3.0
    if dtype.kind == "f":
        data[0] = rng.normal(size=dims[1:]).astype(dtype)
    else:
        info = np.iinfo(dtype)
        data[0] = rng.integers(info.min, info.max, size=dims[1:])
    return Volume3D(data=data, spacing=(0.8, 1.0, 1.25), affine=np.eye(3, 4))


class TestWriter:
    @pytest.mark.parametrize("code", sorted(DATATYPES))
    def test_gz_decompresses_to_the_plain_write(self, code, tmp_path):
        vol = _sample_volume(code)
        write_volume(vol, tmp_path / "v.nii", datatype=code)
        write_volume(vol, tmp_path / "v.nii.gz", datatype=code)
        plain = (tmp_path / "v.nii").read_bytes()
        assert len(plain) == 352 + 7 * 6 * 5 * DATATYPES[code][0].itemsize
        assert gzip.decompress((tmp_path / "v.nii.gz").read_bytes()) == plain

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_writes_are_deterministic(self, suffix, tmp_path):
        vol = _sample_volume(16)
        write_volume(vol, tmp_path / f"a{suffix}", datatype=16)
        write_volume(vol, tmp_path / f"b{suffix}", datatype=16)
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()

    @pytest.mark.parametrize("data, code", [
        (np.full((2, 2, 2), np.iinfo(np.int32).max + 1, dtype=np.int64), 8),
        (np.full((2, 2, 2), 2.5), 4),
        (np.full((2, 2, 2), 1e300), 16),
    ], ids=["int64-over-int32", "fraction-to-int16", "float64-over-float32"])
    def test_unsafe_cast_is_rejected(self, data, code, tmp_path):
        vol = Volume3D(data=data, spacing=(1, 1, 1), affine=np.eye(3, 4))
        with pytest.raises(RangeOverflowError):
            write_volume(vol, tmp_path / "o.nii.gz", datatype=code)
        assert not (tmp_path / "o.nii.gz").exists()

    @pytest.mark.parametrize("code", [2, 4, 8])
    def test_integer_type_extremes_are_written(self, code, tmp_path):
        """A grid holding exactly the smallest and the largest value of the
        written integer type fits it."""
        info = np.iinfo(DATATYPES[code][0])
        data = np.zeros((3, 2, 2), np.int64)
        data[0, 0, 0], data[2, 1, 1] = info.min, info.max
        write_volume(Volume3D(data, (1, 1, 1), np.eye(3, 4)), tmp_path / "x.nii.gz", datatype=code)
        assert np.array_equal(read_nifti_grid(tmp_path / "x.nii.gz"), data)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_label_grid_is_not_copied(self, suffix, tmp_path):
        data = np.zeros((128, 96, 80), dtype=np.int32, order="F")  # 3.9 MB
        data[10:60, 20:30, 5:70] = 7
        vol = Volume3D(data=data, spacing=(1, 1, 1), affine=np.eye(3, 4))
        path = tmp_path / f"labels{suffix}"
        nifti._zero_piece.cache_clear()  # a cold writer, whatever ran before
        tracemalloc.start()
        try:
            write_volume(vol, path, datatype=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes / 4
        assert np.array_equal(read_nifti_grid(path), data)


class TestScaling:
    @pytest.mark.parametrize("slope, inter", [
        (0.0, 0.0), (float("nan"), 0.0), (1.0, 0.0), (2.5, -1.25),
        (-3.0, 0.5), (float("nan"), float("nan")), (0.0, 7.0),
    ])
    def test_bit_identical_to_slope_then_intercept(self, slope, inter, tmp_path):
        values = np.array([-0.0, 0.0, np.nan, -np.nan, 1.5, -2.25, np.inf, -np.inf,
                           3e38, -1e-45], dtype=np.float32)
        grid = np.resize(values, 4 * 4 * 4).astype(np.float32)
        path = tmp_path / "s.nii"
        write_raw(path, minimal_header(datatype=16, scl_slope=slope, scl_inter=inter),
                  grid.tobytes())
        got = gather_all(path, (4, 4, 4)).ravel("F")
        s = np.float32(slope)
        s = 1.0 if s == 0.0 or np.isnan(s) else float(s)
        i = 0.0 if np.isnan(np.float32(inter)) else float(np.float32(inter))
        want = grid.astype(np.float64) * s + i
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        decoded = read_nifti_grid(path).ravel("F")
        assert np.array_equal(decoded.view(np.uint64), want.view(np.uint64))


class TestCorruptGzip:
    """A damaged .nii.gz is bad input (InputError naming the file), not an
    internal failure."""

    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "good.nii.gz"
        write_volume(make_mask(np.ones((6, 5, 4), bool)), path, datatype=2)
        return path.read_bytes()

    def _read(self, path):
        with pytest.raises(InputError) as info:
            read_volume(path)
        assert str(info.value).startswith(f"{path}: ")
        return str(info.value)

    def test_truncated(self, good, tmp_path):
        path = tmp_path / "cut.nii.gz"
        path.write_bytes(good[: len(good) // 2])
        assert "end-of-stream" in self._read(path)

    def test_bad_crc(self, good, tmp_path):
        path = tmp_path / "crc.nii.gz"
        path.write_bytes(good[:-8] + bytes([good[-8] ^ 0xFF]) + good[-7:])
        assert self._read(path).endswith("incorrect data check")

    def test_bad_length(self, good, tmp_path):
        path = tmp_path / "isize.nii.gz"
        (size,) = struct.unpack("<I", good[-4:])
        path.write_bytes(good[:-4] + struct.pack("<I", size + 1))
        assert self._read(path).endswith("incorrect length check")

    @pytest.mark.parametrize("bit", [0x20, 0x40, 0x80])
    def test_reserved_flag_bit(self, good, tmp_path, bit):
        # RFC 1952, 2.3.1.2: a decoder must reject a member with one set
        path = tmp_path / "flag.nii.gz"
        path.write_bytes(good[:3] + bytes([good[3] | bit]) + good[4:])
        assert self._read(path).endswith("unknown header flags set")

    def test_unknown_compression_method(self, good, tmp_path):
        path = tmp_path / "method.nii.gz"
        path.write_bytes(good[:2] + b"\x07" + good[3:])
        assert self._read(path).endswith("unknown compression method")

    @staticmethod
    def _with_header_crc(good, flip=0):
        """good with the FHCRC flag set and its header CRC, xor flip."""
        header = good[:3] + bytes([good[3] | 2]) + good[4:10]
        crc = zlib.crc32(header) & 0xFFFF ^ flip
        return header + struct.pack("<H", crc) + good[10:]

    def test_header_crc_is_accepted(self, good, tmp_path):
        path = tmp_path / "hcrc.nii.gz"
        path.write_bytes(self._with_header_crc(good))
        assert read_volume(path).foreground_count == 6 * 5 * 4

    def test_wrong_header_crc(self, good, tmp_path):
        path = tmp_path / "hcrc.nii.gz"
        path.write_bytes(self._with_header_crc(good, flip=1))
        assert self._read(path).endswith("header crc mismatch")

    def test_bad_deflate_block(self, tmp_path):
        path = tmp_path / "block.nii.gz"
        # a gzip header, then a deflate block of the reserved type 3
        path.write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + b"\xff" * 32)
        assert "Error -3" in self._read(path)

    def test_header_errors_name_the_file_once(self, tmp_path):
        path = tmp_path / "short.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(TooShortError) as info:
            read_volume(path)
        assert str(info.value).startswith(f"{path}: ")
        nan = np.zeros((2, 2, 2))
        nan[0, 0, 0] = np.nan
        path = tmp_path / "nan.nii"
        write_volume(Volume3D(nan, (1, 1, 1), np.eye(3, 4)), path, datatype=64)
        assert self._read(path).count(str(path)) == 1


READERS = {
    "read_volume": read_volume,
    # given a grid (here a mask), the file still fails on open, before any grid check
    "read_volume mask": lambda path: read_volume(path, make_mask(np.ones((2, 2, 2)))),
    "read_voxels": lambda path: read_voxels(path, np.arange(3), make_mask(np.ones((2, 2, 2)))),
    "read_mask_voxels": lambda path: read_mask_voxels(path, np.arange(3),
                                                      make_mask(np.ones((2, 2, 2)))),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_file_that_cannot_be_opened_is_named(tmp_path, reader, kind):
    path = tmp_path / "v.nii.gz"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(InputError) as info:
        READERS[reader](path)
    code = errno.EISDIR if kind == "directory" else errno.ENOENT
    assert str(info.value) == f"{path}: {os.strerror(code)}"
    assert isinstance(info.value.__cause__, OSError)


@pytest.mark.parametrize("code, bits", [(16, np.array([0x7F800001, 0xFFA00000], np.uint32)),
                                        (64, np.array([0x7FF0000000000001], np.uint64))])
def test_signalling_nan_reads_as_nan_without_a_warning(tmp_path, code, bits):
    stored = np.ones(24, dtype=READ_DATATYPES[code][0])
    stored[:bits.size] = bits.view(stored.dtype)
    stored = stored.reshape((4, 3, 2), order="F")
    path = write_nifti(tmp_path / "snan.nii.gz", stored, code, slope=2.0, inter=1.0)
    grid = make_mask(np.ones(stored.shape, bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gathered = read_voxels(path, np.arange(stored.size), grid)
        for read in (lambda: read_volume(path),
                     lambda: read_mask_voxels(path, np.arange(3), grid)):
            with pytest.raises(InputError, match="mask holds NaN voxels"):
                read()
    assert np.isnan(gathered[:bits.size]).all() and (gathered[bits.size:] == 3.0).all()
    with np.errstate(invalid="ignore"):
        decoded = read_nifti_grid(path).ravel("F")
    assert np.array_equal(gathered, decoded, equal_nan=True)


class TestStreamingRead:
    """read_volume and read_voxels decode the file block by block; a block
    edge may fall anywhere, in the header or inside a voxel."""

    @pytest.fixture
    def grid(self):
        rng = np.random.default_rng(31)
        return rng.normal(size=(9, 8, 7)) * 10.0 ** rng.integers(-30, 30, (9, 8, 7))

    def test_two_gzip_members(self, grid, tmp_path):
        path = write_nifti(tmp_path / "two.nii.gz", grid, 64, members=2)
        assert np.array_equal(gather_all(path, grid.shape), grid)

    def test_trailing_zero_padding_is_accepted(self, grid, tmp_path):
        path = write_nifti(tmp_path / "pad.nii.gz", grid, 64)
        path.write_bytes(path.read_bytes() + bytes(16))
        assert np.array_equal(gather_all(path, grid.shape), grid)

    @pytest.mark.parametrize("junk", [b"junk", b"\x00\x00j", b"\x1f"])
    def test_trailing_junk_is_rejected(self, grid, tmp_path, junk):
        # zlib reads a gzip magic of two bytes: one junk byte ends the file early
        message = "incorrect header check" if len(junk.lstrip(b"\x00")) > 1 else "end-of-stream"
        path = write_nifti(tmp_path / "junk.nii.gz", grid, 64)
        path.write_bytes(path.read_bytes() + junk)
        with pytest.raises(InputError, match=message) as info:
            read_volume(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_damage_after_a_first_good_member(self, grid, tmp_path):
        path = write_nifti(tmp_path / "two.nii.gz", grid, 64, members=2)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + bytes([blob[-8] ^ 0xFF]) + blob[-7:])
        with pytest.raises(InputError, match="incorrect data check"):
            read_volume(path)
        path.write_bytes(blob[:-3])
        with pytest.raises(InputError, match="end-of-stream"):
            read_voxels(path, np.arange(5), Volume3D(grid, (1, 1, 1), np.eye(3, 4)))

    def test_damaged_stream_is_reported_before_its_content(self, grid, tmp_path):
        # as when a file was read whole: the stream first, then the header,
        # then the grid's length, then NaN in a mask
        blob = bytearray(write_nifti(tmp_path / "g.nii", grid, 64).read_bytes())
        blob[344:348] = b"ni1\x00"
        packed = gzip.compress(bytes(blob))
        path = tmp_path / "bad.nii.gz"
        path.write_bytes(packed[:-3])
        with pytest.raises(InputError, match="end-of-stream"):
            read_volume(path)
        nan = grid.copy()
        nan[0, 0, 0] = np.nan
        raw = write_nifti(tmp_path / "nan.nii", nan, 64).read_bytes()
        path.write_bytes(gzip.compress(raw[:-8]))
        with pytest.raises(TruncatedDataError):
            read_volume(path)

    @pytest.mark.parametrize("damage, message", [
        ("cut", "end-of-stream"), ("crc", "incorrect data check")])
    def test_bad_header_of_a_stream_longer_than_a_piece(self, tmp_path, damage, message):
        # the header fails in the first piece; the damage is only met in a later one
        raw = bytearray(write_nifti(tmp_path / "g.nii", np.zeros((48, 48, 48)), 64)
                        .read_bytes())
        assert len(raw) > 2 * nifti._PIECE
        raw[344:348] = b"ni1\x00"
        blob = gzip.compress(bytes(raw))
        blob = blob[:-3] if damage == "cut" else blob[:-8] + bytes([blob[-8] ^ 0xFF]) + blob[-7:]
        path = tmp_path / "bad.nii.gz"
        path.write_bytes(blob)
        with pytest.raises(InputError, match=message):
            read_volume(path)

    @pytest.mark.parametrize("follows", ["padding", "member"])
    def test_member_ending_on_a_block_edge(self, grid, tmp_path, follows):
        # a gzip comment sizes the first member to exactly one file block, so
        # the next read starts with what follows it
        raw = write_nifti(tmp_path / "g.nii", grid, 64).read_bytes()
        cut = len(raw) if follows == "padding" else 500
        deflate = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
        body = (deflate.compress(raw[:cut]) + deflate.flush()
                + struct.pack("<II", zlib.crc32(raw[:cut]), len(raw[:cut])))
        comment = b"c" * (nifti._BLOCK - 11 - len(body))
        first = b"\x1f\x8b\x08\x10" + bytes(6) + comment + b"\x00" + body
        assert len(first) == nifti._BLOCK
        rest = bytes(100) if follows == "padding" else gzip.compress(raw[cut:]) + bytes(3)
        path = tmp_path / "edge.nii.gz"
        path.write_bytes(first + rest)
        assert np.array_equal(gather_all(path, grid.shape), grid)

    @pytest.mark.parametrize("block", [3, 1 << 18])
    def test_gzip_header_with_every_optional_field(self, grid, tmp_path, monkeypatch, block):
        # FHCRC, FEXTRA, FNAME and FCOMMENT (RFC 1952, 2.3), in two members
        raw = write_nifti(tmp_path / "g.nii", grid, 64).read_bytes()
        header = (b"\x1f\x8b\x08\x1e" + bytes(6) + b"\x04\x00abcd" + b"g.nii\x00"
                  + b"a comment\x00")
        header += struct.pack("<H", zlib.crc32(header) & 0xFFFF)
        members = []
        for part in (raw[:500], raw[500:]):
            deflate = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
            members.append(header + deflate.compress(part) + deflate.flush()
                           + struct.pack("<II", zlib.crc32(part), len(part)))
        path = tmp_path / "g.nii.gz"
        path.write_bytes(b"".join(members))
        monkeypatch.setattr(nifti, "_BLOCK", block)
        assert np.array_equal(gather_all(path, grid.shape), grid)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("block, piece", [(7, 5), (97, 131), (1000, 3)])
    def test_block_edges_anywhere(self, grid, tmp_path, monkeypatch, suffix, block, piece):
        # blocks far smaller than the 352-byte header, and not multiples of
        # a voxel, so the header and many voxels straddle block edges
        path = write_nifti(tmp_path / f"g{suffix}", grid, 64, members=3)
        monkeypatch.setattr(nifti, "_BLOCK", block)
        monkeypatch.setattr(nifti, "_PIECE", piece)
        assert np.array_equal(gather_all(path, grid.shape), grid)
        mask = read_volume(path)
        assert np.array_equal(mask.data, grid != 0)
        index = np.sort(np.random.default_rng(2).choice(grid.size, 50, replace=False))
        assert np.array_equal(read_voxels(path, index, mask), grid.ravel("F")[index])

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_bytes_past_the_last_voxel_across_a_block_edge(self, grid, tmp_path, monkeypatch,
                                                           suffix):
        # the voxels span many pieces, and the one that ends them goes on
        # with nonzero bytes that are no voxel
        raw = write_nifti(tmp_path / "g.nii", grid, 64).read_bytes() + b"\x01" * 40
        path = tmp_path / f"tail{suffix}"
        path.write_bytes(gzip.compress(raw) if suffix == ".nii.gz" else raw)
        monkeypatch.setattr(nifti, "_BLOCK", 97)
        monkeypatch.setattr(nifti, "_PIECE", 131)
        assert np.array_equal(gather_all(path, grid.shape), grid)
        mask = read_volume(path)
        assert np.array_equal(mask.fg_index, np.flatnonzero(grid.ravel("F")))
        inside, found = read_mask_voxels(path, np.arange(grid.size), mask)
        assert found and np.array_equal(inside, grid.ravel("F") != 0)

    def test_voxel_straddles_a_default_block_edge(self, tmp_path):
        # vox_offset 356: (2**18 - 356) is not a multiple of 8, so one
        # float64 voxel is split across the first two 256 kB file blocks
        grid = np.arange(40 * 40 * 25, dtype=np.float64).reshape(40, 40, 25) * 1.5
        path = write_nifti(tmp_path / "edge.nii", grid, 64, vox_offset=356)
        assert (nifti._BLOCK - 356) % 8 != 0 and path.stat().st_size > nifti._BLOCK
        assert np.array_equal(gather_all(path, grid.shape), grid)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_extension_bytes_before_the_voxels(self, grid, tmp_path, suffix):
        path = write_nifti(tmp_path / f"ext{suffix}", grid, 64, vox_offset=400)
        assert parse_header(path.read_bytes()[:348] if suffix == ".nii"
                            else gzip.decompress(path.read_bytes())[:348]).vox_offset == 400
        assert np.array_equal(gather_all(path, grid.shape), grid)

    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("code", sorted(DATATYPES))
    @pytest.mark.parametrize("slope, inter", [(1.0, 0.0), (0.0, 0.0), (2.5, -1.25),
                                              (float("nan"), 3.0), (-0.5, float("nan"))])
    def test_gather_equals_dense_read_bit_for_bit(self, tmp_path, order, code, slope, inter):
        dtype = DATATYPES[code][0]
        rng = np.random.default_rng(code)
        if dtype.kind == "f":
            stored = (rng.normal(size=(8, 7, 6)) * 1e3).astype(dtype)
            stored.ravel()[:4] = [-0.0, np.nan, np.inf, -np.inf]
        else:
            info = np.iinfo(dtype)
            stored = rng.integers(info.min, info.max, (8, 7, 6), endpoint=True).astype(dtype)
        path = write_nifti(tmp_path / "v.nii.gz", stored, code, order, slope, inter)
        index = np.sort(rng.choice(stored.size, 60, replace=False))
        index[1] = index[0]  # a repeated index is gathered twice
        got = read_voxels(path, index, make_mask(np.zeros(stored.shape, bool)))
        want = read_nifti_grid(path).ravel("F")[index]
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("form", ["mask", "index"])
    def test_read_checks_the_grid_and_names_the_file(self, grid, tmp_path, form):
        # the grid as a bool-grid mask, or index-built as the scorer passes
        # the prediction when it reads the reference
        def like(shape, affine):
            if form == "mask":
                return BinaryMask(np.ones(shape, bool), (1, 1, 1), affine)
            return BinaryMask.from_index(np.arange(3), shape, (1, 1, 1), affine)

        path = write_nifti(tmp_path / "g.nii.gz", grid, 64)
        with pytest.raises(DimMismatchError) as info:
            read_volume(path, like((9, 8, 6), np.eye(3, 4)))
        assert str(info.value) == f"{path}: grid mismatch: (9, 8, 7) vs (9, 8, 6)"
        shifted = like(grid.shape, np.eye(3, 4) + 0.5)
        assert read_volume(path, shifted).dims == grid.shape
        with pytest.raises(DimMismatchError) as info:
            read_volume(path, shifted, strict=True)
        assert str(info.value) == f"{path}: affines differ beyond 1e-4 in strict grid mode"

    def test_strict_read_compares_spacings(self, grid, tmp_path):
        # the same affine, but another spacing: dims and affine alone let it pass
        path = write_nifti(tmp_path / "g.nii.gz", grid, 64)
        coarse = BinaryMask.from_index(np.arange(3), grid.shape, (1.0, 2.0, 1.0), np.eye(3, 4))
        assert read_volume(path, coarse).dims == grid.shape
        for read in (lambda g: read_volume(path, g, strict=True),
                     lambda g: read_voxels(path, np.arange(3), g, strict=True)):
            with pytest.raises(DimMismatchError) as info:
                read(coarse)
            assert str(info.value) == (f"{path}: spacings differ beyond 1e-4 in strict grid "
                                       f"mode: (1.0, 1.0, 1.0) vs (1.0, 2.0, 1.0)")
            near = BinaryMask.from_index(np.arange(3), grid.shape, (1.0, 1.00005, 1.0),
                                         np.eye(3, 4))
            read(near)  # within 1e-4

    def test_gather_checks_the_grid(self, grid, tmp_path):
        path = write_nifti(tmp_path / "g.nii.gz", grid, 64)
        other = make_mask(np.ones((9, 8, 6), bool))
        with pytest.raises(DimMismatchError) as info:
            read_voxels(path, np.arange(3), other)
        assert str(info.value) == f"{path}: grid mismatch: (9, 8, 7) vs (9, 8, 6)"
        shifted = BinaryMask(np.ones(grid.shape, bool), (1, 1, 1), np.eye(3, 4) + 0.5)
        read_voxels(path, np.arange(3), shifted)
        with pytest.raises(DimMismatchError, match="affines differ"):
            read_voxels(path, np.arange(3), shifted, strict=True)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_grid_beyond_any_file_of_its_size_is_truncated(self, tmp_path, suffix):
        # a header claiming 32767^3 voxels fails as a short file would,
        # before any output grid is allocated
        path = tmp_path / f"huge{suffix}"
        blob = minimal_header(datatype=16, dims=(32767, 32767, 32767)) + bytes(4) + bytes(400)
        path.write_bytes(gzip.compress(blob) if suffix == ".nii.gz" else blob)
        message = f"{path}: need {4 * 32767**3} data bytes at offset 352, file has 400"
        for read in (lambda: read_volume(path),
                     lambda: read_voxels(path, np.arange(3), make_mask(np.ones((2, 2, 2))))):
            with pytest.raises(TruncatedDataError) as info:
                read()
            assert str(info.value) == message

    @staticmethod
    def one_voxel_file(tmp_path, dims):
        """A 360-byte int64 file whose one stored voxel is 2**53 + 1."""
        path = tmp_path / "bound.nii"
        write_raw(path, minimal_header(datatype=1024, bitpix=64, dims=dims),
                  struct.pack("<q", 2**53 + 1))
        return path

    def test_grid_at_the_inflate_bound_is_read(self, tmp_path):
        # 352 + 8 * 2 * 23198 bytes are exactly 1032 times the 360-byte
        # file, which deflate could hold: it is read, and its first voxel
        # is found beyond 2**53, not the file reported short up front
        path = self.one_voxel_file(tmp_path, (2, 23198, 1))
        assert path.stat().st_size * 1032 == 352 + 8 * 2 * 23198
        with pytest.raises(RangeOverflowError, match=f"voxel value {2**53 + 1} is beyond"):
            read_voxels(path, np.arange(1), make_mask(np.zeros((2, 23198, 1), bool)))

    def test_grid_past_the_inflate_bound_is_short_before_any_voxel(self, tmp_path):
        # one row more is past the bound: the file is reported short before
        # its first voxel is read
        path = self.one_voxel_file(tmp_path, (2, 23199, 1))
        with pytest.raises(TruncatedDataError) as info:
            read_voxels(path, np.arange(1), make_mask(np.zeros((2, 23199, 1), bool)))
        need = 8 * 2 * 23199
        assert str(info.value) == f"{path}: need {need} data bytes at offset 352, file has 8"

    def test_dense_read_peaks_at_its_grid_plus_a_few_blocks(self, tmp_path):
        # 4 MB of float32 voxels in, 8 MB of float64 values out when every
        # voxel is gathered; holding the whole decompressed file would add
        # its 4 MB to the 2 MB allowed
        grid = np.random.default_rng(3).normal(size=(100, 100, 100)).astype(np.float32)
        like, index = make_mask(np.zeros(grid.shape, bool)), np.arange(grid.size)
        for suffix in (".nii", ".nii.gz"):
            path = tmp_path / f"big{suffix}"
            write_volume(Volume3D(grid, (1, 1, 1), np.eye(3, 4)), path, datatype=16)
            tracemalloc.start()
            try:
                values = read_voxels(path, index, like)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(values, grid.ravel("F"))
            assert peak < values.nbytes + 2**21, (suffix, peak)

    def test_mask_read_peaks_at_its_grid_plus_a_few_blocks(self, tmp_path):
        # an 8 MB bool grid from 8 MB of uint8 voxels
        data = np.random.default_rng(4).random((200, 200, 200)) < 0.001
        path = tmp_path / "m.nii.gz"
        write_volume(make_mask(data), path, datatype=2)
        tracemalloc.start()
        try:
            mask = read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(mask.data, data)
        assert peak < data.size + 2**21, peak


# the read-only integer codes, with their numpy types written out here
READ_ONLY = {256: "i1", 512: "u2", 768: "u4"}


class TestReadOnlyDatatypes:
    """int8, uint16 and uint32, as label tools save segmentations."""

    @staticmethod
    def stored(code):
        dtype = np.dtype(READ_ONLY[code])
        info = np.iinfo(dtype)
        rng = np.random.default_rng(code)
        data = rng.integers(info.min, info.max, (8, 7, 6), endpoint=True).astype(dtype)
        data[rng.random(data.shape) < 0.5] = 0
        data.ravel()[:2] = [info.min, info.max]  # both ends of the range
        return data

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("code", sorted(READ_ONLY))
    def test_mask_and_intensity_read(self, tmp_path, code, order, suffix):
        stored = self.stored(code)
        path = write_nifti(tmp_path / f"v{suffix}", stored, code, order)
        assert parse_header(path.read_bytes() if suffix == ".nii"
                            else gzip.decompress(path.read_bytes())).byte_order == order
        mask = read_volume(path)
        assert mask.data.dtype == bool
        assert np.array_equal(mask.data, stored != 0)
        dense = read_nifti_grid(path)
        # every stored value is exact in float64
        assert np.array_equal(dense, stored.astype(np.float64))
        assert np.array_equal(dense.astype(stored.dtype), stored)
        index = np.sort(np.random.default_rng(1).choice(stored.size, 60, replace=False))
        got = read_voxels(path, index, mask)
        want = dense.ravel("F")[index]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("code", sorted(READ_ONLY))
    def test_scaled_gather_equals_dense_read_bit_for_bit(self, tmp_path, code):
        stored = self.stored(code)
        path = write_nifti(tmp_path / "v.nii.gz", stored, code, ">", 2.5, -1.25)
        index = np.arange(0, stored.size, 3)
        got = read_voxels(path, index, make_mask(np.zeros(stored.shape, bool)))
        want = read_nifti_grid(path).ravel("F")[index]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("code", sorted(READ_ONLY))
    def test_writer_keeps_its_five_codes(self, tmp_path, code):
        vol = Volume3D(np.ones((2, 2, 2)), (1, 1, 1), np.eye(3, 4))
        with pytest.raises(UnsupportedDatatypeError, match=f"datatype code {code} not in "
                                                           r"\[2, 4, 8, 16, 64\]$"):
            write_volume(vol, tmp_path / "w.nii", datatype=code)
        assert not (tmp_path / "w.nii").exists()

    @pytest.mark.parametrize("code, bitpix", [(32, 64), (128, 24), (1536, 128)])
    def test_codes_outside_the_read_set_stay_rejected(self, tmp_path, code, bitpix):
        path = tmp_path / "v.nii"
        write_raw(path, minimal_header(datatype=code, bitpix=bitpix), bytes(8 * 64))
        with pytest.raises(UnsupportedDatatypeError) as info:
            read_volume(path)
        assert str(info.value) == (f"{path}: datatype code {code} not in "
                                   f"[2, 4, 8, 16, 64, 256, 512, 768, 1024, 1280]")

    def test_bitpix_checked_for_a_read_only_code(self):
        with pytest.raises(InconsistentBitpixError):
            parse_header(minimal_header(datatype=512, bitpix=8))


INT64 = {1024: "i8", 1280: "u8"}


class TestSixtyFourBitIntegers:
    """int64 and uint64: a mask binarizes with != 0 whatever its values;
    read_voxels is exact up to 2**53 in magnitude and rejects a larger
    value, naming the file, rather than rounding it."""

    @staticmethod
    def stored(code):
        dtype = np.dtype(INT64[code])
        lo = -2**53 if dtype.kind == "i" else 0
        rng = np.random.default_rng(code)
        data = rng.integers(lo, 2**53, (8, 7, 6), endpoint=True, dtype=dtype)
        data[rng.random(data.shape) < 0.5] = 0
        data.ravel()[:3] = [lo, 2**53, 2**53 - 1]  # both ends of the exact range
        return data

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("code", sorted(INT64))
    def test_mask_and_intensity_read(self, tmp_path, code, order, suffix):
        stored = self.stored(code)
        path = write_nifti(tmp_path / f"v{suffix}", stored, code, order)
        mask = read_volume(path)
        assert np.array_equal(mask.data, stored != 0)
        dense = read_nifti_grid(path)
        assert np.array_equal(dense.astype(stored.dtype), stored)
        index = np.sort(np.random.default_rng(1).choice(stored.size, 60, replace=False))
        got = read_voxels(path, index, mask)
        want = dense.ravel("F")[index]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("code", sorted(INT64))
    def test_scaled_gather_equals_dense_read_bit_for_bit(self, tmp_path, code):
        stored = self.stored(code)
        path = write_nifti(tmp_path / "v.nii.gz", stored, code, ">", 2.5, -1.25)
        index = np.arange(0, stored.size, 3)
        got = read_voxels(path, index, make_mask(np.zeros(stored.shape, bool)))
        want = read_nifti_grid(path).ravel("F")[index]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @staticmethod
    def beyond(code, value, tmp_path, order, suffix):
        stored = np.zeros((8, 7, 6), dtype=INT64[code])
        stored[5, 4, 3] = value  # off the gathered voxels below
        return stored, write_nifti(tmp_path / f"v{suffix}", stored, code, order)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("code, value", [(1024, 2**53 + 1), (1024, -2**53 - 1),
                                             (1024, -2**63), (1280, 2**64 - 1)])
    def test_beyond_2_53_is_rejected_not_rounded(self, tmp_path, code, value, order, suffix):
        stored, path = self.beyond(code, value, tmp_path, order, suffix)
        message = f"{path}: voxel value {value} is beyond 2**53 and has no exact float64 value"
        grid = read_volume(path)
        assert np.array_equal(grid.data, stored != 0)
        with pytest.raises(RangeOverflowError) as info:
            read_voxels(path, np.arange(10), grid)
        assert str(info.value) == message

    @pytest.mark.parametrize("code", sorted(INT64))
    def test_writer_keeps_its_five_codes(self, tmp_path, code):
        vol = Volume3D(np.ones((2, 2, 2)), (1, 1, 1), np.eye(3, 4))
        with pytest.raises(UnsupportedDatatypeError):
            write_volume(vol, tmp_path / "w.nii", datatype=code)
        assert not (tmp_path / "w.nii").exists()


def stored_mask(code, shape=(11, 9, 7)):
    """Stored values of a mask in datatype code: zeros, both ends of the
    type's range, and for a float type -0.0 (background) and the least
    subnormal (foreground)."""
    dtype = READ_DATATYPES[code][0]
    rng = np.random.default_rng(code)
    if dtype.kind == "f":
        data = rng.normal(size=shape).astype(dtype)
        data.ravel()[:4] = [-0.0, np.finfo(dtype).smallest_subnormal, np.inf, -np.inf]
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, shape, endpoint=True, dtype=dtype)
        data.ravel()[:2] = [info.min, info.max]
    data[rng.random(shape) < 0.6] = 0
    data.ravel()[4] = -0.0 if dtype.kind == "f" else 0
    return data


class TestIndexFirstMaskRead:
    """A mask read keeps only its foreground index and an ROI gather keeps
    only the voxels asked for; both equal the dense nonzero test of the
    stored values, whatever the datatype, byte order, compression, scaling
    or block edges."""

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("code", sorted(READ_DATATYPES))
    def test_equals_the_dense_nonzero_test(self, tmp_path, monkeypatch, code, order, suffix):
        stored = stored_mask(code)
        # scaling never reaches a mask; an extension shifts the voxels off
        # the block edges, and small blocks split voxels across them
        path = write_nifti(tmp_path / f"m{suffix}", stored, code, order, 0.5, 3.0,
                           vox_offset=357, members=2)
        monkeypatch.setattr(nifti, "_BLOCK", 61)
        monkeypatch.setattr(nifti, "_PIECE", 37)
        want = stored != 0
        mask = read_volume(path)
        assert "data" not in vars(mask)  # held as its index; no grid was built
        assert mask.dims == stored.shape
        assert mask.fg_index.dtype == np.int64 and not mask.fg_index.flags.writeable
        assert np.array_equal(mask.fg_index, np.flatnonzero(want.ravel("F")))
        assert np.array_equal(mask.data, want)
        assert mask.data.flags.f_contiguous and not mask.data.flags.writeable
        index = np.sort(np.random.default_rng(1).choice(stored.size, 80, replace=False))
        index[1] = index[0]  # a repeated index is gathered twice
        inside, found = read_mask_voxels(path, index, mask)
        assert inside.dtype == bool and np.array_equal(inside, want.ravel("F")[index])
        assert found is True

    @pytest.mark.parametrize("code", [16, 64])
    def test_negative_zero_is_background(self, tmp_path, code):
        stored = np.full((6, 5, 4), -0.0, dtype=READ_DATATYPES[code][0])
        path = write_nifti(tmp_path / "z.nii.gz", stored, code)
        mask = read_volume(path)
        assert mask.foreground_count == 0
        inside, found = read_mask_voxels(path, np.arange(stored.size), mask)
        assert not inside.any() and found is False
        stored[3, 2, 1] = 1.0
        write_nifti(path, stored, code)
        assert read_volume(path).fg_index.tolist() == [3 + 6 * (2 + 5 * 1)]
        inside, found = read_mask_voxels(path, np.array([0, 1]), mask)
        assert not inside.any() and found is True  # foreground off the gathered voxels

    @pytest.mark.parametrize("code", [16, 64])
    def test_nan_is_rejected_wherever_it_lies(self, tmp_path, monkeypatch, code):
        stored = np.zeros((9, 8, 7), dtype=READ_DATATYPES[code][0])
        stored[1, 1, 1] = 1.0
        stored[8, 7, 6] = np.nan  # in the last block, off the gathered voxels
        path = write_nifti(tmp_path / "nan.nii.gz", stored, code)
        monkeypatch.setattr(nifti, "_BLOCK", 64)
        with pytest.raises(InputError) as info:
            read_volume(path)
        assert str(info.value) == f"{path}: mask holds NaN voxels"
        with pytest.raises(InputError) as info:
            read_mask_voxels(path, np.arange(10), make_mask(np.zeros(stored.shape, bool)))
        assert str(info.value) == f"{path}: mask holds NaN voxels"

    @pytest.mark.parametrize("kind", ["truncated", "crc", "deflate", "short"])
    def test_damaged_stream_is_named(self, tmp_path, kind):
        stored = stored_mask(2, (40, 30, 20))
        path = write_nifti(tmp_path / "d.nii.gz", stored, 2)
        grid = read_volume(path)
        blob = path.read_bytes()
        if kind == "truncated":
            blob = blob[: len(blob) // 2]
        elif kind == "crc":
            blob = blob[:-8] + bytes([blob[-8] ^ 0xFF]) + blob[-7:]
        elif kind == "deflate":
            blob = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + b"\xff" * 32
        else:  # a whole stream, but short of the grid
            blob = gzip.compress(gzip.decompress(blob)[:-100])
        path.write_bytes(blob)
        for read in (lambda: read_volume(path),
                     lambda: read_mask_voxels(path, np.arange(5), grid)):
            with pytest.raises(InputError) as info:
                read()
            assert str(info.value).startswith(f"{path}: ")
        if kind == "short":
            with pytest.raises(TruncatedDataError):
                read_mask_voxels(path, np.arange(5), grid)

    @pytest.mark.parametrize("density", [0.05, 0.2, 0.9])
    def test_dense_mask_read_peaks_at_its_grid_and_index(self, tmp_path, density):
        # a block whose index would outweigh its nonzero test keeps the test,
        # so the read holds no more than the grid a dense read would build,
        # its index and a few blocks
        data = np.random.default_rng(5).random((128, 128, 64)) < density
        path = tmp_path / "d.nii.gz"
        write_volume(make_mask(data), path, datatype=2)
        tracemalloc.start()
        try:
            mask = read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(mask.fg_index, np.flatnonzero(data.ravel("F")))
        assert peak < data.size + mask.fg_index.nbytes + 2**21, (density, peak)

    def test_gather_checks_the_grid_after_the_stream(self, tmp_path):
        path = write_nifti(tmp_path / "g.nii.gz", stored_mask(2), 2)
        other = make_mask(np.ones((11, 9, 6), bool))
        with pytest.raises(DimMismatchError) as info:
            read_mask_voxels(path, np.arange(3), other)
        assert str(info.value) == f"{path}: grid mismatch: (11, 9, 7) vs (11, 9, 6)"
        shifted = BinaryMask(np.ones((11, 9, 7), bool), (1, 1, 1), np.eye(3, 4) + 0.5)
        read_mask_voxels(path, np.arange(3), shifted)
        with pytest.raises(DimMismatchError, match="affines differ"):
            read_mask_voxels(path, np.arange(3), shifted, strict=True)


class TestBinaryMaskForms:
    """A mask built from its grid or from its index is the same mask; each
    form is derived from the other only when asked for."""

    @pytest.mark.parametrize("shape, density", [((9, 8, 7), 0.3), ((7, 1, 5), 0.9),
                                                ((4, 4, 4), 0.0), ((3, 3, 3), 1.0)])
    def test_both_forms_agree(self, shape, density):
        data = np.random.default_rng(int(10 * density)).random(shape) < density
        dense = make_mask(data)
        sparse = BinaryMask.from_index(np.flatnonzero(data.ravel("F")), shape,
                                       dense.spacing, dense.affine)
        assert "data" not in vars(sparse) and "fg_index" not in vars(dense)
        probe = np.arange(data.size)
        for mask in (dense, sparse):
            assert (mask.foreground_count > 0) == data.any()
            assert np.array_equal(mask.contains(probe), data.ravel("F"))
        assert "data" not in vars(sparse)  # a lookup paints no grid
        assert np.array_equal(sparse.data, data) and np.array_equal(dense.fg_index, sparse.fg_index)
        assert sparse.dims == dense.dims == shape
        assert np.array_equal(sparse.affine, dense.affine) and sparse.spacing == dense.spacing

    @pytest.mark.parametrize("spacing", [(math.nan, 1, 1), (1, math.inf, 1)])
    def test_non_finite_spacing_is_named(self, spacing):
        builds = (lambda: Volume3D(np.zeros((2, 2, 2)), spacing, np.eye(3, 4)),
                  lambda: BinaryMask(np.zeros((2, 2, 2), bool), spacing, np.eye(3, 4)),
                  lambda: BinaryMask.from_index(np.arange(3), (2, 2, 2), spacing, np.eye(3, 4)))
        for build in builds:
            with pytest.raises(BadHeaderError) as raised:
                build()
            assert str(raised.value) == f"non-finite voxel spacing {tuple(map(float, spacing))}"

    def test_index_form_checks_its_spacing(self):
        with pytest.raises(BadHeaderError):
            BinaryMask.from_index(np.arange(3), (2, 2, 2), (1.0, 0.0, 1.0), np.eye(3, 4))

    @pytest.mark.parametrize("spacing", [(0, 1, 1), (1, -2, 1)])
    def test_nonpositive_spacing_is_named(self, spacing):
        """Volumes built in memory check their spacing themselves: a file's
        pixdim is checked before any volume is built."""
        builds = (lambda: Volume3D(np.zeros((2, 2, 2)), spacing, np.eye(3, 4)),
                  lambda: BinaryMask(np.zeros((2, 2, 2), bool), spacing, np.eye(3, 4)),
                  lambda: BinaryMask.from_index(np.arange(3), (2, 2, 2), spacing, np.eye(3, 4)))
        for build in builds:
            with pytest.raises(BadHeaderError) as raised:
                build()
            assert str(raised.value) == f"non-positive voxel spacing {tuple(map(float, spacing))}"


def _plain_gzip(raw: bytes) -> bytes:
    """The reference: the whole byte stream through one Z_RLE gzip compressobj."""
    stream = zlib.compressobj(6, zlib.DEFLATED, 31, 8, zlib.Z_RLE)
    return stream.compress(raw) + stream.flush()


def _inflate_three_ways(blob: bytes, tmp_path) -> bytes:
    """blob decompressed by gzip.decompress, by zlib.decompressobj(31) and by
    pvseval's streaming reader, which must all agree."""
    by_gzip = gzip.decompress(blob)
    member = zlib.decompressobj(31)
    by_zlib = member.decompress(blob) + member.flush()
    assert member.eof and not member.unused_data
    path = tmp_path / "blob.gz"
    path.write_bytes(blob)
    with open(path, "rb") as fh:
        by_stream = b"".join(nifti._inflate(fh))
    assert by_gzip == by_zlib == by_stream
    return by_gzip


def _nonzero_values(code: int, n: int, rng) -> np.ndarray:
    dtype, _ = DATATYPES[code]
    if dtype.kind == "f":
        values = rng.normal(size=n)
    else:
        info = np.iinfo(dtype)
        values = rng.integers(max(info.min, -2**31), min(info.max, 2**31 - 1), size=n)
    values[values == 0] = 1
    return values


def _write_across_a_block_edge(code: int, values_for, tmp_path) -> None:
    """The last voxel of block 1 and the first of block 2, alone and together,
    each mark their own block, from an index and from a grid. The stream is
    3.5 blocks long: block 2 is the last full one, and block 3 is partial.
    values_for(n) gives the n nonzero values written."""
    from pvseval.ccl import LabelMap

    dtype, _ = DATATYPES[code]
    dims, spacing, affine = (32 // dtype.itemsize, 19, 23), (1.0, 1.0, 1.0), np.eye(3, 4)
    flat = np.zeros(int(np.prod(dims)), dtype)
    edge = (2 * nifti._ZBLOCK - nifti.SINGLE_FILE_VOX_OFFSET) // dtype.itemsize
    for index in ([edge - 1], [edge], [edge - 1, edge]):
        index = np.array(index, np.int64)
        values = values_for(index.size)
        flat[:] = 0
        flat[index] = values
        grid = Volume3D(flat.reshape(dims, order="F"), spacing, affine)
        labels = LabelMap(index, values, dims, index.size, np.ones(index.size, np.int64), 26,
                          spacing, affine)
        plain = nifti.build_header(grid, code) + bytes(4) + flat.tobytes()
        assert len(plain) == 3.5 * nifti._ZBLOCK
        blobs = []
        for vol in (labels, grid):
            write_volume(vol, tmp_path / "v.nii.gz", datatype=code)
            write_volume(vol, tmp_path / "v.nii", datatype=code)
            assert (tmp_path / "v.nii").read_bytes() == plain
            blobs.append((tmp_path / "v.nii.gz").read_bytes())
            assert _inflate_three_ways(blobs[-1], tmp_path) == plain
        assert blobs[0] == blobs[1]


def _edge_voxels(n: int, size: int) -> np.ndarray:
    """The first and last voxel of every 4 kB block of the stream (352 header
    bytes, then n voxels of size bytes)."""
    firsts = (np.arange(nifti._ZBLOCK, 352 + n * size, nifti._ZBLOCK) - 352) // size
    return np.unique(np.concatenate([firsts, firsts - 1, [n - 1]]))


# (dims, which voxels are nonzero); (24, 13, 131) int32 voxels end the stream
# on a block edge, so an empty label map there has only its header block busy
BLOCK_CASES = {
    "empty": ((40, 30, 20), lambda n, size, rng: np.array([], dtype=np.int64)),
    "full": ((40, 30, 20), lambda n, size, rng: np.arange(n)),
    "block_edges": ((64, 64, 40), lambda n, size, rng: _edge_voxels(n, size)),
    "partial_last_block": ((61, 67, 13), lambda n, size, rng: np.array([n - 1])),
    "random": ((64, 64, 40), lambda n, size, rng: np.sort(rng.choice(n, n // 100, replace=False))),
    "header_block_only": ((24, 13, 131), lambda n, size, rng: np.array([], dtype=np.int64)),
    "zero_run_beyond_piece_cap": ((128, 128, 80), lambda n, size, rng: np.array([0, n - 1])),
    # one value just before spliced zero blocks 1-4 and again just after
    # them: the deflate stream must not match across the splice
    "same_value_across_a_splice": ((64, 64, 40), lambda n, size, rng: np.array(
        [(4096 - 352) // size - 1, *range((5 * 4096 - 352) // size, (5 * 4096 - 352) // size + 8)])),
    # zero runs of 1 and 2 blocks between busy blocks
    "short_zero_runs": ((64, 64, 40), lambda n, size, rng: np.array(
        [(k * 4096 - 352) // size for k in (1, 3, 6, 9)])),
}


class TestBlockWriter:
    """A .nii.gz write splices precomputed deflate for its all-zero 4 kB
    blocks; it must decompress, by every reader, to exactly the bytes of the
    whole stream through one compressobj, from an index or from a grid."""

    @pytest.mark.parametrize("code", sorted(DATATYPES))
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_decompresses_to_the_reference(self, case, code, tmp_path):
        from pvseval.ccl import LabelMap

        dims, pick = BLOCK_CASES[case]
        dtype, _ = DATATYPES[code]
        n = int(np.prod(dims))
        rng = np.random.default_rng(code)
        index = pick(n, dtype.itemsize, rng).astype(np.int64)
        values = _nonzero_values(code, index.size, rng)
        if case == "same_value_across_a_splice":
            values[:] = values[0]
        spacing, affine = (0.8, 1.0, 1.25), np.eye(3, 4)
        labels = LabelMap(index, values, dims, 0, np.zeros(0, np.int64), 26, spacing, affine)
        flat = np.zeros(n)
        flat[index] = values
        grid = Volume3D(flat.reshape(dims, order="F"), spacing, affine)
        head = nifti.build_header(grid, code) + bytes(4)
        plain = head + flat.astype(dtype).tobytes()

        blobs = []
        for name, vol in (("index", labels), ("grid", grid), ("again", labels)):
            write_volume(vol, tmp_path / f"{name}.nii.gz", datatype=code)
            write_volume(vol, tmp_path / f"{name}.nii", datatype=code)
            assert (tmp_path / f"{name}.nii").read_bytes() == plain
            blobs.append((tmp_path / f"{name}.nii.gz").read_bytes())
        assert "data" not in vars(labels)  # written from its index, never painted
        assert blobs[0] == blobs[1] == blobs[2]
        assert blobs[0][:10] == _plain_gzip(b"")[:10]
        assert _inflate_three_ways(blobs[0], tmp_path) == gzip.decompress(_plain_gzip(plain))
        back = read_nifti_grid(tmp_path / "index.nii.gz")
        assert np.array_equal(back.ravel("F"), flat.astype(dtype).astype(np.float64))
        if case == "header_block_only" and dtype.itemsize == 4:
            # one run of zero blocks, all but the header's, spliced in as pieces
            assert len(plain) % nifti._ZBLOCK == 0 and len(plain) > nifti._ZBLOCK
            repeats, rest = divmod(len(plain) // nifti._ZBLOCK - 1, 1 << nifti._ZPIECE_MAX)
            ks = [nifti._ZPIECE_MAX] * repeats + [k for k in range(nifti._ZPIECE_MAX) if rest >> k & 1]
            assert b"".join(nifti._zero_piece(k) for k in ks) in blobs[0]
        if case == "zero_run_beyond_piece_cap":
            assert nifti._zero_piece(nifti._ZPIECE_MAX) in blobs[0]
        if case == "full":
            assert blobs[0] == _plain_gzip(plain)  # no zero block: the plain stream

    def test_binary_mask_index_writes_its_grid(self, tmp_path):
        data = np.random.default_rng(3).random((70, 50, 40)) < 0.002
        dense = make_mask(data)
        sparse = BinaryMask.from_index(np.flatnonzero(data.ravel("F")), data.shape,
                                       dense.spacing, dense.affine)
        write_volume(dense, tmp_path / "dense.nii.gz", datatype=2)
        write_volume(sparse, tmp_path / "sparse.nii.gz", datatype=2)
        assert "data" not in vars(sparse)
        blob = (tmp_path / "sparse.nii.gz").read_bytes()
        assert blob == (tmp_path / "dense.nii.gz").read_bytes()
        head = nifti.build_header(dense, 2) + bytes(4)
        assert _inflate_three_ways(blob, tmp_path) == head + data.astype(np.uint8).tobytes("F")

    @pytest.mark.parametrize("code", sorted(DATATYPES))
    def test_voxels_either_side_of_a_block_edge(self, code, tmp_path):
        """No voxel spans two 4 kB blocks: the voxels start at byte 352, and
        352 and 4096 are multiples of every itemsize written."""
        dtype, _ = DATATYPES[code]
        assert nifti.SINGLE_FILE_VOX_OFFSET % dtype.itemsize == 0
        assert nifti._ZBLOCK % dtype.itemsize == 0
        rng = np.random.default_rng(code)
        _write_across_a_block_edge(code, lambda n: _nonzero_values(code, n, rng), tmp_path)

    @pytest.mark.parametrize("value", [0x00000100, 0x01000000, 0x7F7F7F7F])
    def test_voxel_across_a_block_edge(self, value, tmp_path):
        """The int32 voxels either side of the edge of blocks 1 and 2 hold a
        value whose nonzero bytes lie at either end of the voxel, or fill it."""
        _write_across_a_block_edge(8, lambda n: np.full(n, value), tmp_path)

    def test_index_values_that_do_not_fit_are_rejected(self, tmp_path):
        from pvseval.ccl import LabelMap

        labels = LabelMap(np.array([3, 9]), np.array([1, 300], np.int32), (4, 4, 4), 2,
                          np.ones(2, np.int64), 26, (1.0, 1.0, 1.0), np.eye(3, 4))
        with pytest.raises(RangeOverflowError):
            write_volume(labels, tmp_path / "o.nii.gz", datatype=2)
        assert not (tmp_path / "o.nii.gz").exists()

    def test_index_write_holds_no_grid(self, tmp_path):
        """The int32 label map of a sparse 182x218x182 mask is written in a
        fraction of its 28.9 MB grid."""
        from pvseval.ccl import LabelMap

        dims = (182, 218, 182)
        index = np.sort(np.random.default_rng(5).choice(np.prod(dims), 6000, replace=False))
        labels = LabelMap(index, np.arange(1, 6001, dtype=np.int32), dims, 6000,
                          np.ones(6000, np.int64), 26, (1.0, 1.0, 1.0), np.eye(3, 4))
        path = tmp_path / "labels.nii.gz"
        tracemalloc.start()
        try:
            write_volume(labels, path, datatype=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * np.prod(dims) / 8
        assert np.array_equal(read_volume(path).fg_index, index)


@pytest.mark.parametrize("n", [0, 1, 3, 4095, 4096, 4097, 2**20 + 7])
def test_crc32_over_zeros(n):
    for crc in (0, 1, 0xFFFFFFFF, 0x12345678, zlib.crc32(b"pvseval")):
        assert nifti.crc32_zeros(crc, n) == zlib.crc32(bytes(n), crc)

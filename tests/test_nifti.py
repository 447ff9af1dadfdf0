import gzip
import struct
import tracemalloc
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
        assert hdr.shape3d == (4, 4, 4)

    def test_big_endian(self):
        hdr = parse_header(minimal_header(">"))
        assert hdr.byte_order == ">"
        assert hdr.shape3d == (4, 4, 4)

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            parse_header(minimal_header(magic=b"xxxx"))

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
        mask = read_volume(path, "mask")
        assert isinstance(mask, BinaryMask)
        assert mask.foreground_count == 0
        assert mask.dims == (4, 4, 4)

    def test_scl_scaling(self, tmp_path):
        path = tmp_path / "s.nii"
        payload = bytes([3] * 64)
        write_raw(path, minimal_header(scl_slope=2.0, scl_inter=1.0), payload)
        vol = read_volume(path, "intensity")
        assert vol.data[0, 0, 0] == 7.0

    def test_zero_slope_is_identity(self, tmp_path):
        path = tmp_path / "s0.nii"
        write_raw(path, minimal_header(scl_slope=0.0, scl_inter=0.0), bytes([5] * 64))
        assert read_volume(path, "intensity").data[0, 0, 0] == 5.0

    def test_mask_binarizes_before_scaling(self, tmp_path):
        # slope would zero everything out; mask mode must ignore it
        path = tmp_path / "m.nii"
        payload = bytes([0, 3] * 32)
        write_raw(path, minimal_header(scl_slope=0.0, scl_inter=-99.0), payload)
        mask = read_volume(path, "mask")
        assert mask.foreground_count == 32

    def test_dual_file_rejected(self, tmp_path):
        path = tmp_path / "p.nii"
        write_raw(path, minimal_header(magic=b"ni1\x00", vox_offset=0.0), bytes(64))
        with pytest.raises(UnsupportedFormatError):
            read_volume(path, "mask")

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "t.nii"
        write_raw(path, minimal_header(), bytes(10))
        with pytest.raises(TruncatedDataError):
            read_volume(path, "mask")

    def test_bad_vox_offset(self, tmp_path):
        path = tmp_path / "v.nii"
        write_raw(path, minimal_header(vox_offset=100.0), bytes(64))
        with pytest.raises(BadHeaderError):
            read_volume(path, "mask")

    def test_nonpositive_pixdim(self, tmp_path):
        path = tmp_path / "pd.nii"
        write_raw(path, minimal_header(pixdim=(0.0, 1.0, 1.0)), bytes(64))
        with pytest.raises(BadHeaderError):
            read_volume(path, "mask")


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
        back = read_volume(path, "intensity")
        assert np.array_equal(back.data, data)
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
        a = read_volume(plain, "intensity")
        b = read_volume(packed, "intensity")
        assert np.array_equal(a.data, b.data)
        assert a.spacing == b.spacing

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
    a = read_volume(little, "intensity")
    b = read_volume(big, "intensity")
    assert parse_header(big.read_bytes()).byte_order == ">"
    assert np.array_equal(a.data, b.data)
    assert a.spacing == b.spacing
    assert np.array_equal(a.affine, b.affine)


def test_four_d_with_singleton_volume_axis(tmp_path):
    buf = bytearray(minimal_header())
    struct.pack_into("<8h", buf, 40, 4, 4, 4, 4, 1, 1, 1, 1)  # dim[0]=4, dim[4]=1
    path = tmp_path / "d4.nii"
    write_raw(path, bytes(buf), bytes(64))
    assert read_volume(path, "mask").dims == (4, 4, 4)


def test_true_four_d_rejected(tmp_path):
    buf = bytearray(minimal_header())
    struct.pack_into("<8h", buf, 40, 4, 4, 4, 4, 2, 1, 1, 1)  # two timepoints
    path = tmp_path / "d4t.nii"
    write_raw(path, bytes(buf), bytes(128))
    with pytest.raises(UnsupportedFormatError):
        read_volume(path, "mask")


def test_qform_affine_fallback(tmp_path):
    # sform 0, qform identity quaternion: affine is the spacing diagonal + offset
    buf = bytearray(minimal_header(pixdim=(2.0, 3.0, 4.0)))
    struct.pack_into("<h", buf, 252, 1)  # qform_code
    struct.pack_into("<3f", buf, 256, 0.0, 0.0, 0.0)  # b, c, d -> identity
    struct.pack_into("<3f", buf, 268, 10.0, 20.0, 30.0)
    path = tmp_path / "q.nii"
    write_raw(path, bytes(buf), bytes(64))
    vol = read_volume(path, "mask")
    expected = np.array([[2, 0, 0, 10], [0, 3, 0, 20], [0, 0, 4, 30]], dtype=float)
    assert np.allclose(vol.affine, expected)


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

    def test_gzip_compress_overrides_the_suffix(self, tmp_path):
        vol = _sample_volume(8)
        write_volume(vol, tmp_path / "a.nii", datatype=8)
        write_volume(vol, tmp_path / "packed.nii", datatype=8, gzip_compress=True)
        write_volume(vol, tmp_path / "plain.nii.gz", datatype=8, gzip_compress=False)
        plain = (tmp_path / "a.nii").read_bytes()
        assert (tmp_path / "plain.nii.gz").read_bytes() == plain
        assert gzip.decompress((tmp_path / "packed.nii").read_bytes()) == plain

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

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_label_grid_is_not_copied(self, suffix, tmp_path):
        data = np.zeros((128, 96, 80), dtype=np.int32, order="F")  # 3.9 MB
        data[10:60, 20:30, 5:70] = 7
        vol = Volume3D(data=data, spacing=(1, 1, 1), affine=np.eye(3, 4))
        path = tmp_path / f"labels{suffix}"
        tracemalloc.start()
        try:
            write_volume(vol, path, datatype=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes / 4
        assert np.array_equal(read_volume(path, "intensity").data, data)


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
        got = read_volume(path, "intensity").data.ravel("F")
        s = np.float32(slope)
        s = 1.0 if s == 0.0 or np.isnan(s) else float(s)
        i = 0.0 if np.isnan(np.float32(inter)) else float(np.float32(inter))
        want = grid.astype(np.float64) * s + i
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
            read_volume(path, "mask")
        assert str(info.value).startswith(f"{path}: ")
        return str(info.value)

    def test_truncated(self, good, tmp_path):
        path = tmp_path / "cut.nii.gz"
        path.write_bytes(good[: len(good) // 2])
        assert "end-of-stream" in self._read(path)

    def test_bad_crc(self, good, tmp_path):
        path = tmp_path / "crc.nii.gz"
        path.write_bytes(good[:-8] + bytes([good[-8] ^ 0xFF]) + good[-7:])
        assert "CRC" in self._read(path)

    def test_bad_deflate_block(self, tmp_path):
        path = tmp_path / "block.nii.gz"
        # a gzip header, then a deflate block of the reserved type 3
        path.write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + b"\xff" * 32)
        assert "Error -3" in self._read(path)

    def test_header_errors_name_the_file_once(self, tmp_path):
        path = tmp_path / "short.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(TooShortError) as info:
            read_volume(path, "mask")
        assert str(info.value).startswith(f"{path}: ")
        nan = np.zeros((2, 2, 2))
        nan[0, 0, 0] = np.nan
        path = tmp_path / "nan.nii"
        write_volume(Volume3D(nan, (1, 1, 1), np.eye(3, 4)), path, datatype=64)
        assert self._read(path).count(str(path)) == 1



class TestStreamingRead:
    """read_volume and read_voxels decode the file block by block; a block
    edge may fall anywhere, in the header or inside a voxel."""

    @pytest.fixture
    def grid(self):
        rng = np.random.default_rng(31)
        return rng.normal(size=(9, 8, 7)) * 10.0 ** rng.integers(-30, 30, (9, 8, 7))

    def test_two_gzip_members(self, grid, tmp_path):
        path = write_nifti(tmp_path / "two.nii.gz", grid, 64, members=2)
        assert np.array_equal(read_volume(path, "intensity").data, grid)

    def test_trailing_zero_padding_is_accepted(self, grid, tmp_path):
        path = write_nifti(tmp_path / "pad.nii.gz", grid, 64)
        path.write_bytes(path.read_bytes() + bytes(16))
        assert np.array_equal(read_volume(path, "intensity").data, grid)

    @pytest.mark.parametrize("junk", [b"junk", b"\x00\x00j", b"\x1f"])
    def test_trailing_junk_is_rejected(self, grid, tmp_path, junk):
        path = write_nifti(tmp_path / "junk.nii.gz", grid, 64)
        path.write_bytes(path.read_bytes() + junk)
        with pytest.raises(InputError, match="Not a gzipped file") as info:
            read_volume(path, "intensity")
        assert str(info.value).startswith(f"{path}: ")

    def test_damage_after_a_first_good_member(self, grid, tmp_path):
        path = write_nifti(tmp_path / "two.nii.gz", grid, 64, members=2)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + bytes([blob[-8] ^ 0xFF]) + blob[-7:])
        with pytest.raises(InputError, match="CRC check failed"):
            read_volume(path, "intensity")
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
            read_volume(path, "mask")
        nan = grid.copy()
        nan[0, 0, 0] = np.nan
        raw = write_nifti(tmp_path / "nan.nii", nan, 64).read_bytes()
        path.write_bytes(gzip.compress(raw[:-8]))
        with pytest.raises(TruncatedDataError):
            read_volume(path, "mask")

    @pytest.mark.parametrize("block", [3, 1 << 18])
    def test_gzip_header_with_every_optional_field(self, grid, tmp_path, monkeypatch, block):
        # FHCRC, FEXTRA, FNAME and FCOMMENT (RFC 1952, 2.3), in two members
        raw = write_nifti(tmp_path / "g.nii", grid, 64).read_bytes()
        header = (b"\x1f\x8b\x08\x1e" + bytes(6) + b"\x04\x00abcd" + b"g.nii\x00"
                  + b"a comment\x00" + b"\x12\x34")
        members = []
        for part in (raw[:500], raw[500:]):
            deflate = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
            members.append(header + deflate.compress(part) + deflate.flush()
                           + struct.pack("<II", zlib.crc32(part), len(part)))
        path = tmp_path / "g.nii.gz"
        path.write_bytes(b"".join(members))
        monkeypatch.setattr(nifti, "_BLOCK", block)
        assert np.array_equal(read_volume(path, "intensity").data, grid)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("block, piece", [(7, 5), (97, 131), (1000, 3)])
    def test_block_edges_anywhere(self, grid, tmp_path, monkeypatch, suffix, block, piece):
        # blocks far smaller than the 352-byte header, and not multiples of
        # a voxel, so the header and many voxels straddle block edges
        path = write_nifti(tmp_path / f"g{suffix}", grid, 64, members=3)
        monkeypatch.setattr(nifti, "_BLOCK", block)
        monkeypatch.setattr(nifti, "_PIECE", piece)
        assert np.array_equal(read_volume(path, "intensity").data, grid)
        mask = read_volume(path, "mask")
        assert np.array_equal(mask.data, grid != 0)
        index = np.sort(np.random.default_rng(2).choice(grid.size, 50, replace=False))
        assert np.array_equal(read_voxels(path, index, mask), grid.ravel("F")[index])

    def test_voxel_straddles_a_default_block_edge(self, tmp_path):
        # vox_offset 356: (2**18 - 356) is not a multiple of 8, so one
        # float64 voxel is split across the first two 256 kB file blocks
        grid = np.arange(40 * 40 * 25, dtype=np.float64).reshape(40, 40, 25) * 1.5
        path = write_nifti(tmp_path / "edge.nii", grid, 64, vox_offset=356)
        assert (nifti._BLOCK - 356) % 8 != 0 and path.stat().st_size > nifti._BLOCK
        assert np.array_equal(read_volume(path, "intensity").data, grid)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_extension_bytes_before_the_voxels(self, grid, tmp_path, suffix):
        path = write_nifti(tmp_path / f"ext{suffix}", grid, 64, vox_offset=400)
        assert parse_header(path.read_bytes()[:348] if suffix == ".nii"
                            else gzip.decompress(path.read_bytes())[:348]).vox_offset == 400
        assert np.array_equal(read_volume(path, "intensity").data, grid)

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
        dense = read_volume(path, "intensity")
        index = np.sort(rng.choice(stored.size, 60, replace=False))
        index[1] = index[0]  # a repeated index is gathered twice
        got = read_voxels(path, index, dense)
        want = dense.data.ravel("F")[index]
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("mode", ["mask", "intensity"])
    def test_read_checks_the_grid_and_names_the_file(self, grid, tmp_path, mode):
        path = write_nifti(tmp_path / "g.nii.gz", grid, 64)
        with pytest.raises(DimMismatchError) as info:
            read_volume(path, mode, make_mask(np.ones((9, 8, 6), bool)))
        assert str(info.value) == f"{path}: grid mismatch: (9, 8, 7) vs (9, 8, 6)"
        shifted = BinaryMask(np.ones(grid.shape, bool), (1, 1, 1), np.eye(3, 4) + 0.5)
        assert read_volume(path, mode, shifted).dims == grid.shape
        with pytest.raises(DimMismatchError) as info:
            read_volume(path, mode, shifted, strict=True)
        assert str(info.value) == f"{path}: affines differ beyond 1e-4 in strict grid mode"

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
        with pytest.raises(TruncatedDataError, match="file has 400$"):
            read_volume(path, "intensity")

    def test_dense_read_peaks_at_its_grid_plus_a_few_blocks(self, tmp_path):
        # 4 MB of float32 voxels in, an 8 MB float64 grid out; holding the
        # whole decompressed file would add its 4 MB to the 2 MB allowed
        grid = np.random.default_rng(3).normal(size=(100, 100, 100)).astype(np.float32)
        for suffix in (".nii", ".nii.gz"):
            path = tmp_path / f"big{suffix}"
            write_volume(Volume3D(grid, (1, 1, 1), np.eye(3, 4)), path, datatype=16)
            tracemalloc.start()
            try:
                vol = read_volume(path, "intensity")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(vol.data, grid)
            assert peak < vol.data.nbytes + 2**21, (suffix, peak)

    def test_mask_read_peaks_at_its_grid_plus_a_few_blocks(self, tmp_path):
        # an 8 MB bool grid from 8 MB of uint8 voxels
        data = np.random.default_rng(4).random((200, 200, 200)) < 0.001
        path = tmp_path / "m.nii.gz"
        write_volume(make_mask(data), path, datatype=2)
        tracemalloc.start()
        try:
            mask = read_volume(path, "mask")
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
        mask = read_volume(path, "mask")
        assert mask.data.dtype == bool
        assert np.array_equal(mask.data, stored != 0)
        dense = read_volume(path, "intensity")
        assert dense.data.dtype == np.float64
        # every stored value is exact in float64
        assert np.array_equal(dense.data, stored.astype(np.float64))
        assert np.array_equal(dense.data.astype(stored.dtype), stored)
        index = np.sort(np.random.default_rng(1).choice(stored.size, 60, replace=False))
        got = read_voxels(path, index, mask)
        want = dense.data.ravel("F")[index]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("code", sorted(READ_ONLY))
    def test_scaled_gather_equals_dense_read_bit_for_bit(self, tmp_path, code):
        stored = self.stored(code)
        path = write_nifti(tmp_path / "v.nii.gz", stored, code, ">", 2.5, -1.25)
        dense = read_volume(path, "intensity")
        index = np.arange(0, stored.size, 3)
        got = read_voxels(path, index, dense)
        want = dense.data.ravel("F")[index]
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
            read_volume(path, "mask")
        assert str(info.value) == (f"{path}: datatype code {code} not in "
                                   f"[2, 4, 8, 16, 64, 256, 512, 768, 1024, 1280]")

    def test_bitpix_checked_for_a_read_only_code(self):
        with pytest.raises(InconsistentBitpixError):
            parse_header(minimal_header(datatype=512, bitpix=8))


INT64 = {1024: "i8", 1280: "u8"}


class TestSixtyFourBitIntegers:
    """int64 and uint64: a mask binarizes with != 0 whatever its values; an
    intensity read is exact up to 2**53 in magnitude and rejects a larger
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
        mask = read_volume(path, "mask")
        assert np.array_equal(mask.data, stored != 0)
        dense = read_volume(path, "intensity")
        assert dense.data.dtype == np.float64
        assert np.array_equal(dense.data.astype(stored.dtype), stored)
        index = np.sort(np.random.default_rng(1).choice(stored.size, 60, replace=False))
        got = read_voxels(path, index, mask)
        want = dense.data.ravel("F")[index]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("code", sorted(INT64))
    def test_scaled_gather_equals_dense_read_bit_for_bit(self, tmp_path, code):
        stored = self.stored(code)
        path = write_nifti(tmp_path / "v.nii.gz", stored, code, ">", 2.5, -1.25)
        dense = read_volume(path, "intensity")
        index = np.arange(0, stored.size, 3)
        got = read_voxels(path, index, dense)
        want = dense.data.ravel("F")[index]
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
        with pytest.raises(RangeOverflowError) as info:
            read_volume(path, "intensity")
        assert str(info.value) == message
        grid = read_volume(path, "mask")
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
        mask = read_volume(path, "mask")
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
        mask = read_volume(path, "mask")
        assert mask.foreground_count == 0 and not mask.any()
        inside, found = read_mask_voxels(path, np.arange(stored.size), mask)
        assert not inside.any() and found is False
        stored[3, 2, 1] = 1.0
        write_nifti(path, stored, code)
        assert read_volume(path, "mask").fg_index.tolist() == [3 + 6 * (2 + 5 * 1)]
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
            read_volume(path, "mask")
        assert str(info.value) == f"{path}: mask holds NaN voxels"
        with pytest.raises(InputError) as info:
            read_mask_voxels(path, np.arange(10), make_mask(np.zeros(stored.shape, bool)))
        assert str(info.value) == f"{path}: mask holds NaN voxels"

    @pytest.mark.parametrize("kind", ["truncated", "crc", "deflate", "short"])
    def test_damaged_stream_is_named(self, tmp_path, kind):
        stored = stored_mask(2, (40, 30, 20))
        path = write_nifti(tmp_path / "d.nii.gz", stored, 2)
        grid = read_volume(path, "mask")
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
        for read in (lambda: read_volume(path, "mask"),
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
            mask = read_volume(path, "mask")
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
            assert mask.any() == data.any()
            assert np.array_equal(mask.contains(probe), data.ravel("F"))
        # neither lookup built the other form
        assert "data" not in vars(sparse) and "fg_index" not in vars(dense)
        assert np.array_equal(sparse.data, data) and np.array_equal(dense.fg_index, sparse.fg_index)
        assert sparse.dims == dense.dims == shape
        assert np.array_equal(sparse.affine, dense.affine) and sparse.spacing == dense.spacing

    def test_index_form_checks_its_spacing(self):
        with pytest.raises(BadHeaderError):
            BinaryMask.from_index(np.arange(3), (2, 2, 2), (1.0, 0.0, 1.0), np.eye(3, 4))

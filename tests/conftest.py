import gzip
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def make_mask(data, spacing=(1.0, 1.0, 1.0)):
    from pvseval.nifti import BinaryMask

    affine = np.zeros((3, 4))
    affine[0, 0], affine[1, 1], affine[2, 2] = spacing
    return BinaryMask(data=np.asarray(data, dtype=bool), spacing=spacing, affine=affine)


def write_nifti(path, data, datatype, order="<", slope=1.0, inter=0.0, vox_offset=352,
                affine=None, members=1):
    """Write a single-file NIfTI-1 field by field, in either byte order: scl
    scaling, an extension filling the bytes up to vox_offset, and, for a .gz
    path, the stream split into `members` gzip members. Any datatype the
    reader takes is written, the read-only ones included."""
    from pvseval.nifti import READ_DATATYPES

    dtype, bitpix = READ_DATATYPES[datatype]
    data = np.asarray(data)
    if affine is None:
        affine = np.eye(3, 4)
    header = bytearray(vox_offset)
    struct.pack_into(order + "i", header, 0, 348)
    struct.pack_into(order + "8h", header, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into(order + "2h", header, 70, datatype, bitpix)
    struct.pack_into(order + "8f", header, 76, 1.0, *np.linalg.norm(affine[:, :3], axis=0),
                     0, 0, 0, 0)
    struct.pack_into(order + "3f", header, 108, vox_offset, slope, inter)
    struct.pack_into(order + "h", header, 254, 1)  # sform_code
    struct.pack_into(order + "12f", header, 280, *np.asarray(affine, float).ravel())
    header[344:348] = b"n+1\x00"
    if vox_offset > 352:  # one extension: flag, esize, ecode 0, then its content
        header[348] = 1
        struct.pack_into(order + "i", header, 352, vox_offset - 352)
        header[360:vox_offset] = b"x" * (vox_offset - 360)
    blob = bytes(header) + data.astype(dtype.newbyteorder(order)).tobytes(order="F")
    if str(path).endswith(".gz"):
        cuts = np.linspace(0, len(blob), members + 1).astype(int)
        blob = b"".join(gzip.compress(blob[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))
    Path(path).write_bytes(blob)
    return path


@pytest.fixture
def mask_factory():
    return make_mask


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    module = getattr(report, "fspath", "") or report.nodeid
    if "test_acceptance" in str(module):
        _ACCEPTANCE_RESULTS.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status} {name}")

"""Byte identity of every CLI output on the committed golden corpus.

Each case of tests/golden/corpus.py must write the same files, with the
same sha256 (after decompression for .gz), exit with the same code and
write the same stderr as recorded in tests/golden/hashes.json. A deliberate
output change rewrites that file with `python tests/golden/corpus.py`.
A seeded sweep then runs the same cases on damaged copies of their inputs.
"""

import contextlib
import gzip
import io
import json
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from golden.corpus import CASES, HASHES, copy_inputs, run_case

EXPECTED = json.loads(HASHES.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    copy_inputs(root)
    return root


def test_every_case_is_recorded():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_the_corpus(workdir, monkeypatch, name):
    expected = EXPECTED[name]
    if expected.get("numpy", np.__version__) != np.__version__:
        pytest.skip(f"phantom hashes were made under numpy {expected['numpy']}, "
                    f"whose random streams may differ from {np.__version__}'s")
    monkeypatch.delenv("PVSEVAL_WORKERS", raising=False)
    monkeypatch.chdir(workdir)
    assert run_case(name) == expected


# -- damaged inputs --------------------------------------------------------

# the header fields a damaged volume may get a bad number in: pixdim[1..3],
# vox_offset, scl_slope, scl_inter, quatern b and the first srow entries
_HEADER_FLOATS = (80, 84, 88, 108, 112, 116, 256, 280, 296, 312)
_BAD_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e30)
# CSV tokens a damaged table may get in place of a cell or before it
_CSV_TOKENS = (",", '"', "\n", "\r", "\x00", '""', '"a,b"', '"a\nb"', '"a\rb"', "nan",
               "inf", "-1", "2", "1e999", "", "x")


def _damaged_volume(blob: bytes, rng) -> bytes:
    """A .nii.gz with one seeded defect: bit flips or a truncation of the
    gzip bytes, or, inside the stream, a header byte replaced, a header float
    set to a bad number, or bytes appended after the voxels."""
    kind = rng.integers(5)
    if kind == 0:
        blob = bytearray(blob)
        for at in rng.integers(len(blob) * 8, size=rng.integers(1, 4)):
            blob[at // 8] ^= 1 << (at % 8)
        return bytes(blob)
    if kind == 1:
        return blob[:rng.integers(len(blob))]
    raw = bytearray(gzip.decompress(blob))
    if kind == 2:
        raw[rng.integers(352)] = rng.integers(256)
    elif kind == 3:
        struct.pack_into("<f", raw, int(rng.choice(_HEADER_FLOATS)),
                         _BAD_FLOATS[rng.integers(len(_BAD_FLOATS))])
    else:
        raw += bytes(rng.integers(256, size=rng.integers(1, 9), dtype=np.uint8))
    return gzip.compress(bytes(raw))


def _damaged_table(text: str, rng) -> str:
    """A CSV with one seeded defect: a cell replaced by a token of
    _CSV_TOKENS, or that token inserted before it."""
    cells = [m.start() for m in re.finditer(r"(?:^|(?<=[,\n]))", text)][:-1]
    at = cells[rng.integers(len(cells))]
    end = min((i for i in (text.find(",", at), text.find("\n", at)) if i >= 0), default=len(text))
    token = _CSV_TOKENS[rng.integers(len(_CSV_TOKENS))]
    return text[:at] + token + text[end if rng.integers(2) else at:]


# each golden case that exits 0, reads only committed inputs and writes only
# under --out, with those inputs: its CSVs and volumes
FUZZED = {name: [a for a in argv if a.endswith((".csv", ".nii.gz"))]
          for name, argv in CASES.items()
          if argv[0] != "phantom" and EXPECTED[name]["exit"] == 0
          and "--workers" not in argv and "--save-labels" not in argv}


def test_damaged_inputs_exit_0_or_2_with_whole_error_lines(tmp_path, monkeypatch):
    """A seeded sweep: one input of a golden case damaged, then the case
    run. Each run exits 0 or 2, records no warning, and writes to stderr
    nothing but whole lines that start with `pvseval: error: `."""
    monkeypatch.delenv("PVSEVAL_WORKERS", raising=False)
    copy_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    from pvseval.cli import main

    rng = np.random.default_rng(31)
    names = sorted(FUZZED)
    codes = {0: 0, 2: 0}
    for i in range(300):
        name = names[rng.integers(len(names))]
        inputs = FUZZED[name]
        source = inputs[rng.integers(len(inputs))]
        damaged = f"damaged_{i}{''.join(Path(source).suffixes)}"
        if source.endswith(".csv"):
            text = Path(source).read_text(encoding="utf-8")
            Path(damaged).write_text(_damaged_table(text, rng), encoding="utf-8", newline="")
        else:
            Path(damaged).write_bytes(_damaged_volume(Path(source).read_bytes(), rng))
        argv = [damaged if a == source else a for a in CASES[name]]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([*argv, "--out", f"out/{i}"])
        err = stderr.getvalue()
        context = (name, source, code, err, [str(w.message) for w in caught])
        assert code in (0, 2) and not caught, context
        assert err.endswith("\n") or not err, context
        assert all(line.startswith("pvseval: error: ") for line in err.splitlines()), context
        assert bool(err) == (code == 2), context
        codes[code] += 1
    assert min(codes.values()) > 50, codes

"""Byte identity of every CLI output on the committed golden corpus.

Each case of tests/golden/corpus.py must write the same files, with the
same sha256 (after decompression for .gz), exit with the same code and
write the same stderr as recorded in tests/golden/hashes.json. A deliberate
output change rewrites that file with `python tests/golden/corpus.py`.
"""

import json

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

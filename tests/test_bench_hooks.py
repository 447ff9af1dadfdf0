"""The benchmark's trace hooks name pvseval functions that still exist.

perfbench/spans.py wraps each (module, attribute) of its PATCHES table in
the module that calls it; a renamed or removed import would only show up
as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_patch_target_imports_and_is_callable():
    pytest.importorskip("scipy")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module_name, attr, span_name, _ in spans.PATCHES:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} (span {span_name})"

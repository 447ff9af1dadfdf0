"""The benchmark's trace hooks name pvseval functions that still exist, and
still record spans when the benchmark runs.

perfbench/spans.py wraps each (module, attribute) of its PATCHES table in
the module that calls it; a renamed or removed import, or a patched name
that is no longer called, would only show up as a failed or empty traced
benchmark run. These tests import perfbench's modules without changing
them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
SEED = 7  # perfbench/test_bench.py's seed and sizes


def test_every_patch_target_imports_and_is_callable():
    pytest.importorskip("scipy")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module_name, attr, span_name, _ in spans.PATCHES:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} (span {span_name})"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's spans, run, measure and workloads modules, imported from
    its directory and dropped from sys.modules afterwards."""
    pytest.importorskip("scipy")
    names = ("spans", "run", "measure", "workloads", "oracle", "checks")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield {name: importlib.import_module(name) for name in ("spans", "run", "measure",
                                                            "workloads")}
    for name in names:
        sys.modules.pop(name, None)


def test_traced_iteration_calls_every_patch_target(perfbench, tmp_path):
    """One traced iteration of a small subject_sparse plan and a small
    one-worker cohort_noisy plan (perfbench/test_bench.py's sizes): every
    op passes its check, and every PATCHES target records a call."""
    spans, run, measure, workloads = (perfbench[k] for k in ("spans", "run", "measure",
                                                            "workloads"))
    subject_dir, cohort_dir = tmp_path / "subject", tmp_path / "cohort"
    (subject_dir / "inputs").mkdir(parents=True)
    (cohort_dir / "inputs").mkdir(parents=True)
    subject = workloads.build_subject_sparse(SEED, subject_dir / "inputs", dims=(64, 60, 48),
                                             n_tubes=14)
    cohort = workloads.build_cohort(SEED, cohort_dir / "inputs", dims=(32, 32, 32), n_tubes=3,
                                    n_subjects=12)
    cohort.probe = workloads.build_subject_noisy(SEED, cohort_dir / "inputs", dims=(32, 32, 32),
                                                 n_tubes=3)
    # each patch records under its span name and the module it patches, so
    # a name that is imported but no longer called where it is patched fails
    patches = [(module, attr, f"{span}@{module}", counter)
               for module, attr, span, counter in spans.PATCHES]
    tracer = spans.Tracer()
    for name, built, work in (("subject_sparse", subject, subject_dir),
                              ("cohort_noisy", cohort, cohort_dir)):
        plan, expectations, _ = run.plan_for(name, built, SEED, work / "out")
        runner = measure.Runner(plan, expectations)
        with tracer.installed(patches):
            runner.iteration(tracer, workers=1)
        assert runner.attempted == len(plan["study"]) + len(plan["probe"])
        assert runner.failed == 0, runner.problems
    totals = tracer.layer_totals()
    for module_name, attr, span_name, _ in patches:
        assert totals[span_name]["calls"] >= 1, f"{module_name}.{attr} (span {span_name})"
    counts = measure._sum_counts(tracer, sorted(tracer.op_labels))
    assert counts["nifti.read_volume.bytes_in"] > 0 and counts["ccl.runs"] > 0

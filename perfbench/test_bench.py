"""Self-test of the benchmark's oracle and checks on small inputs.

    python3 -m pytest -q perfbench/test_bench.py

Correct outputs must pass every check, and an op checked against a
corrupted expectation must be counted as failed.
"""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def subject(tmp_path_factory):
    work = tmp_path_factory.mktemp("subject")
    built = workloads.build_subject_sparse(SEED, _inputs(work), dims=(64, 60, 48), n_tubes=14)
    plan, expectations, _ = run.plan_for("subject_sparse", built, SEED, work / "out")
    return plan, expectations


def _inputs(work: Path) -> Path:
    (work / "inputs").mkdir()
    return work / "inputs"


def _first_region(expectations):
    return next(iter(expectations["metrics"].values()))


CORRUPTIONS = {
    "metrics": lambda e: _first_region(e).update(n_manual=_first_region(e)["n_manual"] + 1),
    "contrast": lambda e: e.update(contrast=(e["contrast"][0] + 1e-3, *e["contrast"][1:])),
    "contrast_cluster": lambda e: e.update(
        contrast_cluster=(e["contrast_cluster"][0], e["contrast_cluster"][1] * 1.01,
                          e["contrast_cluster"][2])),
    "clusters": lambda e: e["clusters"]["labels"].__setitem__(0, 2),
}


def test_correct_outputs_pass(subject):
    plan, expectations = subject
    runner = measure.Runner(plan, expectations)
    runner.iteration()
    assert runner.attempted == len(plan["study"]) == 4
    assert runner.failed == 0, runner.problems


@pytest.mark.parametrize("label", sorted(CORRUPTIONS))
def test_corrupted_expectation_counts_as_failed(subject, label):
    plan, expectations = subject
    bad = copy.deepcopy(expectations)
    CORRUPTIONS[label](bad)
    runner = measure.Runner(plan, bad)
    runner.iteration()
    assert runner.attempted == 4
    assert runner.failed == 1
    assert runner.problems and all(p.startswith(label + ":") for p in runner.problems)


def test_cohort_outputs_pass_and_corrupted_hit_count_fails(tmp_path):
    inputs = _inputs(tmp_path)
    built = workloads.build_cohort(SEED, inputs, dims=(32, 32, 32), n_tubes=3, n_subjects=12)
    built.probe = workloads.build_subject_noisy(SEED, inputs, dims=(32, 32, 32), n_tubes=3)
    plan, expectations, _ = run.plan_for("cohort_noisy", built, SEED, tmp_path / "out")
    runner = measure.Runner(plan, expectations)
    runner.iteration()
    assert runner.attempted == 8
    assert runner.failed == 0, runner.problems

    bad = copy.deepcopy(expectations)
    row = bad["cohort"]["per_subject"]["B"]["sub003"]["WM"]
    row["n_algo_hit"] += 1
    runner = measure.Runner(plan, bad)
    runner.iteration()
    assert runner.failed == 1
    assert all(p.startswith("aggregate_b:") for p in runner.problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cohort_noisy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

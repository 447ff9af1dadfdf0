"""Smoke and oracle tests of scripts/phantom_study.py, the one script that
writes volumes: a 20-subject cohort that it runs through the CLI."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import pvseval
from pvseval import cli
from pvseval.harness import evaluate_manifest, make_folds, read_manifest
from pvseval.metrics import METRIC_NAMES
from pvseval.nifti import read_volume
from pvseval.stats import compare_models

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "phantom_study.py"
SEED = 1


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom_study") / "study"
    env = dict(os.environ, PYTHONPATH=str(Path(pvseval.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--seed", str(SEED),
         "--workers", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    return out, proc


def test_phantom_study_runs(study):
    out, proc = study
    assert proc.returncode == 0, proc.stderr
    assert "paired Wilcoxon" in proc.stdout

    for model in ("a", "b"):
        records = read_manifest(out / f"manifest_{model}.csv")
        assert len(records) == 20
        for rec in records:
            assert Path(rec.pred_path).is_file() and Path(rec.ref_path).is_file()
    assert read_volume(records[0].ref_path, "mask").foreground_count > 0
    assert not list(out.rglob("*_image.nii.gz"))

    for scheme in ("5fcv", "losocv"):
        spec = json.loads((out / f"folds_{scheme}" / "foldspec.json").read_text())
        assert spec["scheme"] == scheme
        assert set(spec["assignments"]) == {r.subject_id for r in records}


def test_stdout_is_the_csvs_the_cli_wrote(study):
    out, proc = study
    for path in (out / "a" / "aggregate.csv", out / "b" / "aggregate.csv",
                 out / "compare" / "compare.csv"):
        assert f": {path} ==\n{path.read_text()}" in proc.stdout


def test_compare_equals_compare_models_in_process(study):
    out, _ = study
    reports = []
    for model in ("a", "b"):
        per_subject, failures = evaluate_manifest(read_manifest(out / f"manifest_{model}.csv"))
        assert failures == []
        reports.append({m.subject_id: {(m.region, k): getattr(m, k) for k in METRIC_NAMES}
                        for m in per_subject})
    keys = [("ALL", metric) for metric in METRIC_NAMES]
    expected = []
    for res in compare_models(*reports, keys, q=0.05):
        record = {**asdict(res), "region": res.metric[0], "metric": res.metric[1]}
        expected.append({h: cli._cell(record, p) for h, p in cli.COMPARE_COLUMNS.items()})
    with open(out / "compare" / "compare.csv", newline="") as fh:
        assert list(csv.DictReader(fh)) == expected


@pytest.mark.parametrize("scheme", ["5fcv", "losocv"])
def test_folds_equal_make_folds(study, scheme):
    out, _ = study
    spec = json.loads((out / f"folds_{scheme}" / "foldspec.json").read_text())
    oracle = make_folds(read_manifest(out / "manifest_a.csv"), scheme, SEED)
    assert spec["assignments"] == oracle.assignments
    assert spec["seed"] == SEED

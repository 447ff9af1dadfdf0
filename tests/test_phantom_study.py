"""Smoke test of scripts/phantom_study.py, the one script that writes volumes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pvseval
from pvseval.harness import read_manifest
from pvseval.nifti import read_volume

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "phantom_study.py"


def test_phantom_study_runs(tmp_path):
    out = tmp_path / "study"
    env = dict(os.environ, PYTHONPATH=str(Path(pvseval.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--seed", "1", "--workers", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "paired Wilcoxon" in proc.stdout

    for model in ("a", "b"):
        records = read_manifest(out / f"manifest_{model}.csv")
        assert len(records) == 20
        for rec in records:
            assert Path(rec.pred_path).is_file() and Path(rec.ref_path).is_file()
    assert read_volume(records[0].ref_path, "mask").foreground_count > 0

    for scheme in ("5fcv", "losocv"):
        spec = json.loads((out / f"folds_{scheme}.json").read_text())
        assert spec["scheme"] == scheme
        assert set(spec["assignments"]) == {r.subject_id for r in records}

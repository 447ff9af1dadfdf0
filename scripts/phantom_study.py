#!/usr/bin/env python3
"""End-to-end desk-scale study on synthetic phantoms, run through the CLI.

Builds a 6-site cohort of tubular phantoms and two "models" perturbed from
the truth (A: mild voxel deletion; B: heavier deletion plus one dropped
cluster) into volumes/ and manifest_a.csv / manifest_b.csv. Then runs
`pvseval aggregate --scheme losocv` per model (into a/ and b/), `folds`
per scheme (folds_5fcv/, folds_losocv/) and `compare` A vs B (compare/),
and prints each model's aggregate.csv and compare.csv under a heading
that names the file. A failed command ends the study with its exit code.

    python scripts/phantom_study.py --out runs/demo --seed 7
"""

import argparse
import sys
from pathlib import Path

from pvseval.cli import main as pvseval
from pvseval.harness import SubjectRecord, write_manifest
from pvseval.nifti import write_volume
from pvseval.phantom import Perturbation, PhantomSpec, generate, perturb

SITES = {"ADNI": 4, "AF": 4, "ASC": 3, "HBA": 3, "FTD": 3, "MCIS": 3}
MODELS = {"a": "model A (mild deletion)", "b": "model B (heavy deletion + dropped cluster)"}


def build_cohort(out: Path, seed: int) -> dict[str, list[SubjectRecord]]:
    vols = out / "volumes"
    vols.mkdir(parents=True, exist_ok=True)
    records = {model: [] for model in MODELS}
    idx = 0
    for site, count in SITES.items():
        for i in range(count):
            sid = f"{site}_{i:02d}"
            spec = PhantomSpec(dims=(64, 64, 64), n_tubes=4 + (idx // 3) % 5,
                               length_range=(10.0, 22.0), seed=seed + idx)
            _, truth, _ = generate(spec)
            f_a = 0.10 + 0.02 * (idx % 5)
            model_a = perturb(truth, Perturbation(kind="delete_fraction", fraction=f_a),
                              seed=seed + idx)
            model_b = perturb(truth, Perturbation(kind="delete_fraction",
                                                  fraction=f_a + 0.2),
                              seed=seed + idx + 1)
            model_b = perturb(model_b, Perturbation(kind="drop_clusters", k=1),
                              seed=seed + idx + 2)
            ref = vols / f"{sid}_ref.nii.gz"
            write_volume(truth, ref, datatype=2)
            for model, mask in (("a", model_a), ("b", model_b)):
                pred = vols / f"{sid}_{model}.nii.gz"
                write_volume(mask, pred, datatype=2)
                records[model].append(SubjectRecord(sid, site, str(pred), str(ref)))
            idx += 3
    return records


def run(*argv) -> None:
    """One pvseval command; its non-zero exit code ends the study."""
    code = pvseval([str(arg) for arg in argv])
    if code:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/phantom_study")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    out = Path(args.out)
    for model, records in build_cohort(out, args.seed).items():
        write_manifest(records, out / f"manifest_{model}.csv")
        run("aggregate", "--manifest", out / f"manifest_{model}.csv", "--scheme", "losocv",
            "--workers", args.workers, "--out", out / model)
    for scheme in ("5fcv", "losocv"):
        run("folds", "--manifest", out / "manifest_a.csv", "--scheme", scheme,
            "--seed", args.seed, "--out", out / f"folds_{scheme}")
    run("compare", "--a", out / "a" / "per_subject.csv", "--b", out / "b" / "per_subject.csv",
        "--out", out / "compare")

    tables = [(title, out / model / "aggregate.csv") for model, title in MODELS.items()]
    tables.append(("paired Wilcoxon (A vs B), BH-adjusted", out / "compare" / "compare.csv"))
    for title, path in tables:
        print(f"\n== {title}: {path} ==")
        print(path.read_text(encoding="utf-8"), end="")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end desk-scale study on synthetic phantoms.

Builds a 6-site cohort of tubular phantoms, fabricates two "models" as
controlled perturbations of the truth (A: mild voxel deletion; B: heavier
deletion plus dropped clusters), then runs the full pipeline: per-subject
metrics, per-site and pooled aggregation, 5FCV/LOSOCV fold export, and the
paired Wilcoxon + FDR comparison table.

    python scripts/phantom_study.py --out runs/demo --seed 7
"""

import argparse
import json
from pathlib import Path

from pvseval.harness import (
    SubjectRecord,
    aggregate,
    evaluate_manifest,
    make_folds,
    write_manifest,
)
from pvseval.nifti import write_volume
from pvseval.phantom import Perturbation, PhantomSpec, generate, perturb
from pvseval.stats import compare_models

SITES = {"ADNI": 4, "AF": 4, "ASC": 3, "HBA": 3, "FTD": 3, "MCIS": 3}


def build_cohort(out: Path, seed: int):
    vols = out / "volumes"
    vols.mkdir(parents=True, exist_ok=True)
    records_a, records_b = [], []
    idx = 0
    for site, count in SITES.items():
        for i in range(count):
            sid = f"{site}_{i:02d}"
            spec = PhantomSpec(dims=(64, 64, 64), n_tubes=4 + (idx // 3) % 5,
                               length_range=(10.0, 22.0), seed=seed + idx)
            image, truth, _ = generate(spec)
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
            write_volume(image, vols / f"{sid}_image.nii.gz", datatype=64)
            pa, pb = vols / f"{sid}_a.nii.gz", vols / f"{sid}_b.nii.gz"
            write_volume(model_a, pa, datatype=2)
            write_volume(model_b, pb, datatype=2)
            records_a.append(SubjectRecord(sid, site, str(pa), str(ref)))
            records_b.append(SubjectRecord(sid, site, str(pb), str(ref)))
            idx += 3
    return records_a, records_b


def _num(value):
    return "n/a" if value is None else f"{value:.3f}"


def show_aggregate(tag, reports):
    print(f"\n== {tag}: mean (SD) over subjects ==")
    for report in reports:
        if report.site != "All Sites":
            continue
        cells = "  ".join(
            f"{name}={_num(cell.mean)}({_num(cell.sd)})"
            for name, cell in report.metrics.items()
        )
        print(f"  region={report.region} n={report.n_subjects}  {cells}")
        print(f"    r_vox={_num(report.r_vox)}  r_num={_num(report.r_num)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/phantom_study")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    out = Path(args.out)
    records_a, records_b = build_cohort(out, args.seed)
    write_manifest(records_a, out / "manifest_a.csv")
    write_manifest(records_b, out / "manifest_b.csv")

    per_a, _ = evaluate_manifest(records_a, workers=args.workers)
    per_b, _ = evaluate_manifest(records_b, workers=args.workers)
    show_aggregate("model A (mild deletion)", aggregate(per_a))
    show_aggregate("model B (heavy deletion + dropped cluster)", aggregate(per_b))

    for scheme in ("5fcv", "losocv"):
        spec = make_folds(records_a, scheme, seed=args.seed)
        path = out / f"folds_{scheme}.json"
        path.write_text(json.dumps(spec.to_json_dict(), indent=2, sort_keys=True))
        print(f"\nwrote {path}")

    report_a = {m.subject_id: {k: getattr(m, k) for k in
                ("dsc_vox", "sen_vox", "ppv_vox", "dsc_num", "sen_num", "ppv_num")}
                for m in per_a}
    report_b = {m.subject_id: {k: getattr(m, k) for k in report_a[per_a[0].subject_id]}
                for m in per_b}
    metrics = list(report_a[per_a[0].subject_id])
    print("\n== paired Wilcoxon (A vs B), BH-adjusted ==")
    print(f"  {'metric':8s} {'n':>3s} {'med A':>7s} {'med B':>7s} "
          f"{'diff':>7s} {'p_fdr':>9s} {'sig':>4s} {'r':>6s}")
    for res in compare_models(report_a, report_b, metrics, q=0.05):
        if res.p_fdr is None:
            print(f"  {res.metric:8s} {res.n_pairs:3d} {res.median_a:7.3f} "
                  f"{res.median_b:7.3f} {res.median_diff:7.3f} "
                  f"{'({})'.format(res.method):>9s} {'No':>4s} {'-':>6s}")
            continue
        print(f"  {res.metric:8s} {res.n:3d} {res.median_a:7.3f} {res.median_b:7.3f} "
              f"{res.median_diff:7.3f} {res.p_fdr:9.2e} "
              f"{'Yes' if res.significant else 'No':>4s} {res.rank_biserial:6.2f}")


if __name__ == "__main__":
    main()

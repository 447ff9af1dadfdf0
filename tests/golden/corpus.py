"""The golden-output corpus: a fixed list of CLI calls on small committed
inputs, and the sha256 of every file each call writes.

Each case runs `pvseval.cli.main` in process, inside a working directory
that holds a copy of `inputs/`, with a relative `--out` (every JSON
`config` block records `out_dir`, so an absolute path would leak into the
bytes). A `.gz` output is hashed after decompression: the README defines a
`.nii.gz` output by its decompressed bytes. Each case also records its exit
code and its exact stderr. `phantom` draws from numpy's random streams, so
its cases record the numpy version their hashes were made under; every
other case reads only the committed inputs.

    PYTHONPATH=src python tests/golden/corpus.py           # rewrite hashes.json
    PYTHONPATH=src python tests/golden/corpus.py --inputs  # also rebuild inputs/

When an output changes on purpose, commit the rewritten hashes.json and
name each changed case in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
HASHES = HERE / "hashes.json"

DIMS = (24, 28, 20)
SPACING = (0.9, 1.0, 1.2)
PHANTOM = ("phantom", "--dims", "24,28,20", "--spacing", "0.9,1,1.2", "--n-tubes", "3",
           "--length-range", "6,12", "--seed", "4")
S1 = ("--pred", "s1_pred.nii.gz", "--ref", "s1_ref.nii.gz")
ROIS = ("--roi-wm", "wm.nii.gz", "--roi-bg", "bg.nii.gz")
CMP = ("compare", "--a", "cmp_a.csv", "--b", "cmp_b.csv")

# name -> argv; each case writes under out/<name>
CASES: dict[str, tuple[str, ...]] = {
    "phantom_plain": PHANTOM,
    "phantom_defaults": ("phantom",),  # every spec flag at its PhantomSpec default
    "phantom_delete_fraction": (*PHANTOM, "--perturb", "delete_fraction:0.4",
                                "--perturb-seed", "2"),
    "phantom_dilate_once": (*PHANTOM, "--perturb", "dilate_once", "--connectivity", "18"),
    "phantom_drop_clusters": (*PHANTOM, "--perturb", "drop_clusters:1"),
    "phantom_translate_off_grid": (*PHANTOM, "--perturb", "translate:30,0,0"),
    "phantom_fraction_above_1": (*PHANTOM, "--perturb", "delete_fraction:1.5"),
    "phantom_drop_more_than_tubes": (*PHANTOM[:-4], "--n-tubes", "1",
                                     "--perturb", "drop_clusters:3"),
    "metrics_rois": ("metrics", *S1, *ROIS),
    "metrics_c6_strict": ("metrics", *S1, "--connectivity", "6", "--strict-grid",
                          "--subject-id", "first"),
    "metrics_missing_pred": ("metrics", "--pred", "missing.nii.gz", "--ref", "s1_ref.nii.gz"),
    "metrics_truncated_pred": ("metrics", "--pred", "truncated.nii.gz",
                               "--ref", "s1_ref.nii.gz"),
    "metrics_missized_ref": ("metrics", "--pred", "s1_pred.nii.gz", "--ref", "small.nii.gz"),
    "aggregate_losocv": ("aggregate", "--manifest", "cohort.csv", "--scheme", "losocv"),
    "aggregate_5fcv_per_site_2_workers": ("aggregate", "--manifest", "cohort.csv",
                                          "--scheme", "5fcv", "--per-site",
                                          "--workers", "2"),
    "aggregate_c18": ("aggregate", "--manifest", "cohort.csv", "--connectivity", "18"),
    "aggregate_missing": ("aggregate", "--manifest", "bad_missing.csv"),
    "aggregate_truncated": ("aggregate", "--manifest", "bad_truncated.csv", "--per-site"),
    "aggregate_missized": ("aggregate", "--manifest", "bad_missized.csv",
                           "--scheme", "5fcv"),
    "aggregate_site_all_failed_2_workers": ("aggregate", "--manifest", "bad_site.csv",
                                            "--scheme", "losocv", "--workers", "2"),
    "contrast_global": ("contrast", "--image", "image.nii.gz", "--mask", "s1_ref.nii.gz",
                        "--modality", "T2"),
    "contrast_per_cluster": ("contrast", "--image", "image.nii.gz", "--mask",
                             "s1_ref.nii.gz", "--mode", "per_cluster", "--connectivity", "6",
                             "--subject-id", "s1"),
    "clusters_save_labels": ("clusters", "--mask", "s1_ref.nii.gz",
                             "--save-labels", "out/clusters_save_labels/labels.nii.gz"),
    "clusters_log_binning_c6": ("clusters", "--mask", "s1_pred.nii.gz", "--log-binning",
                                "--connectivity", "6"),
    "clusters_empty": ("clusters", "--mask", "empty.nii.gz"),
    "clusters_save_labels_no_dir": ("clusters", "--mask", "s1_ref.nii.gz",
                                    "--save-labels", "nodir/labels.nii.gz"),
    "clusters_save_labels_is_dir": ("clusters", "--mask", "s1_ref.nii.gz",
                                    "--save-labels", "."),
    "folds_5fcv": ("folds", "--manifest", "cohort.csv", "--scheme", "5fcv", "--seed", "3"),
    "folds_losocv": ("folds", "--manifest", "cohort.csv", "--scheme", "losocv"),
    "compare_region_family": CMP,
    "compare_table_family": (*CMP, "--fdr-family", "table", "--fdr-q", "0.3"),
    "compare_metric_subset": (*CMP, "--metrics", "ppv_num,dsc_vox"),
    "compare_self": ("compare", "--a", "cmp_a.csv", "--b", "cmp_a.csv"),
}


def _sha256(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".gz":
        data = gzip.decompress(data)
    return hashlib.sha256(data).hexdigest()


def run_case(name: str) -> dict:
    """Run one case in the current directory, which holds a copy of
    inputs/: its exit code, its stderr and the hash of each file it wrote."""
    from pvseval.cli import main

    out = Path("out") / name
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*CASES[name], "--out", str(out)])
    files = {p.relative_to(out).as_posix(): _sha256(p)
             for p in sorted(out.rglob("*")) if p.is_file()}
    record = {"exit": code, "stderr": stderr.getvalue(), "files": files}
    if CASES[name][0] == "phantom":
        record["numpy"] = np.__version__
    return record


def copy_inputs(workdir: Path) -> None:
    for path in INPUTS.iterdir():
        shutil.copy(path, workdir / path.name)


# -- inputs ----------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _compare_rows(model: str) -> list[list[str]]:
    """A per-subject CSV of 10 subjects in regions WM and B:G, laid out so
    that every compare row kind occurs: dsc_vox has distinct |d| (an exact
    p), sen_vox tied |d| (the normal approximation), ppv_vox equal values
    (all_zero_diffs), dsc_num empty and nan cells, sen_num no value in
    model A (undefined), ppv_num some zero differences. Ties need exact
    differences, so those values are multiples of 1/64. B lacks one
    subject in B:G, and each file has a subject the other lacks."""
    from pvseval.metrics import METRIC_NAMES

    rows = []
    for region, shift in (("WM", 0.0), ("B:G", 0.05)):
        for i in range(10):
            sid = f"s{i:02d}"
            if (model, region, i) == ("b", "B:G", 7):
                continue
            sign = -1 if i % 3 == 0 else 1
            a = {
                "dsc_vox": round(0.30 + shift + 0.05 * i, 4),
                "sen_vox": (20 + 3 * i) / 64,
                "ppv_vox": round(0.9 - 0.03 * i, 4),
                "dsc_num": round(0.30 + 0.04 * i + shift, 4),
                "sen_num": None,
                "ppv_num": round(0.5 + 0.02 * i, 4),
            }
            if model == "a":
                values = dict(a, dsc_num=None if i == 2 else a["dsc_num"])
            else:
                values = {
                    "dsc_vox": round(a["dsc_vox"] - sign * 0.011 * (i + 1), 4),
                    "sen_vox": a["sen_vox"] - (1 if i % 2 else -1) * (1 + i // 4) / 64,
                    "ppv_vox": a["ppv_vox"],
                    "dsc_num": float("nan") if i == 5 else round(a["dsc_num"] - 0.013 * i, 4),
                    "sen_num": round(0.2 + 0.07 * i, 4),
                    "ppv_num": a["ppv_num"] if i % 2 else round(a["ppv_num"] - 0.01 * i, 4),
                }
            cells = ["" if values[m] is None else repr(values[m]) for m in METRIC_NAMES]
            rows.append([sid, region, "26", *cells])
    extra = "only_a" if model == "a" else "only_b"
    rows.append([extra, "WM", "26", *["0.5"] * len(METRIC_NAMES)])
    return rows


def make_inputs() -> None:
    """Rebuild inputs/ from fixed seeds; the files then stand on their own,
    so no case but phantom depends on numpy's random streams."""
    from pvseval.harness import MANIFEST_COLUMNS
    from pvseval.metrics import METRIC_NAMES
    from pvseval.nifti import BinaryMask, Volume3D, write_volume
    from pvseval.phantom import PhantomSpec, Perturbation, generate, perturb

    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    INPUTS.mkdir()
    affine = np.zeros((3, 4))
    affine[0, 0], affine[1, 1], affine[2, 2] = SPACING

    def mask(name, m):
        write_volume(m, INPUTS / name, datatype=2)

    kinds = [Perturbation(kind="delete_fraction", fraction=0.3),
             Perturbation(kind="dilate_once"),
             Perturbation(kind="translate", offset=(1, 0, 0)),
             Perturbation(kind="drop_clusters", k=1)]
    subjects, truths = [], []
    for i in range(9):
        spec = PhantomSpec(dims=DIMS, spacing=SPACING, n_tubes=3, length_range=(6.0, 12.0),
                           seed=10 + i)
        _, truth, _ = generate(spec)
        pred = perturb(truth, kinds[i % len(kinds)], seed=i)
        sid, site = f"s{i + 1}", f"site{i // 3 + 1}"
        if i == 4:  # no prediction: its ppv values are undefined
            pred = BinaryMask.from_index(np.empty(0, np.int64), DIMS, SPACING, affine)
        truths.append(truth)
        mask(f"{sid}_ref.nii.gz", truth)
        mask(f"{sid}_pred.nii.gz", pred)
        subjects.append([sid, site, f"{sid}_pred.nii.gz", f"{sid}_ref.nii.gz",
                         "wm.nii.gz", "bg.nii.gz"])
    # WM is a thin slab, so some subjects have no lesion there
    wm = np.zeros(DIMS, bool)
    wm[:, :, :6] = True
    mask("wm.nii.gz", BinaryMask(wm, SPACING, affine))
    mask("bg.nii.gz", BinaryMask(~wm, SPACING, affine))
    mask("empty.nii.gz", BinaryMask(np.zeros(DIMS, bool), SPACING, affine))
    mask("small.nii.gz", BinaryMask(np.ones((8, 8, 8), bool), SPACING, affine))
    blob = (INPUTS / "s1_pred.nii.gz").read_bytes()
    (INPUTS / "truncated.nii.gz").write_bytes(blob[: len(blob) // 2])

    # a smooth integer image, brighter inside s1's reference
    x, y, z = np.indices(DIMS)
    image = ((x + 2 * y + 3 * z) % 17 + 40 * truths[0].data).astype(np.int16)
    write_volume(Volume3D(image, SPACING, affine), INPUTS / "image.nii.gz", datatype=4)

    _write_csv(INPUTS / "cohort.csv", MANIFEST_COLUMNS, subjects)
    bad = {"missing": "missing.nii.gz", "truncated": "truncated.nii.gz",
           "missized": "small.nii.gz"}
    for j, (kind, path) in enumerate(bad.items()):
        rows = [list(r) for r in subjects]
        rows[2 + 3 * j][2] = path  # a different site's subject each time
        _write_csv(INPUTS / f"bad_{kind}.csv", MANIFEST_COLUMNS, rows)
    rows = [list(r) for r in subjects]
    for row, path in zip(rows[3:6], bad.values()):  # every subject of site2
        row[2] = path
    _write_csv(INPUTS / "bad_site.csv", MANIFEST_COLUMNS, rows)

    header = ["subject_id", "region", "connectivity", *METRIC_NAMES]
    for model in ("a", "b"):
        _write_csv(INPUTS / f"cmp_{model}.csv", header, _compare_rows(model))


def regenerate(workdir: Path) -> dict:
    copy_inputs(workdir)
    with contextlib.chdir(workdir):
        return {name: run_case(name) for name in CASES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden-output hashes.")
    parser.add_argument("--inputs", action="store_true",
                        help="also rebuild the committed inputs from their seeds")
    args = parser.parse_args(argv)
    if args.inputs:
        make_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        cases = regenerate(Path(tmp))
    HASHES.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n")
    total = sum(p.stat().st_size for p in INPUTS.iterdir())
    print(f"wrote {HASHES} ({len(cases)} cases; inputs {total} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

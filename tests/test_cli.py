import contextlib
import csv
import dataclasses
import gzip
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvseval import cli, harness
from pvseval.ccl import label_components
from pvseval.cli import main
from pvseval.harness import SubjectRecord, write_manifest
from pvseval.metrics import METRIC_NAMES, RoiMask
from pvseval.morphology import contrast_stat, contrast_stat_per_cluster, shell
from pvseval.nifti import BinaryMask, Volume3D, read_volume, write_volume
from pvseval.phantom import PhantomSpec, Perturbation, generate, perturb

from conftest import write_nifti
from oracles import brute_dilate, read_nifti_grid


def run(*argv):
    return main([str(a) for a in argv])


def qform_only(path, quatern, qoffset):
    """Rewrite the little-endian .nii at path to carry its geometry as a
    qform alone: qform_code 1, sform_code 0, quatern (b, c, d), qoffset."""
    blob = bytearray(Path(path).read_bytes())
    struct.pack_into("<2h", blob, 252, 1, 0)
    struct.pack_into("<6f", blob, 256, *quatern, *qoffset)
    Path(path).write_bytes(blob)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def phantom_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantom")
    spec = PhantomSpec(dims=(40, 40, 40), n_tubes=4, length_range=(8.0, 14.0), seed=2)
    image, truth, _ = generate(spec)
    write_volume(image, root / "image.nii.gz", datatype=64)
    write_volume(truth, root / "truth.nii.gz", datatype=2)
    half = perturb(truth, Perturbation(kind="delete_fraction", fraction=0.5), seed=1)
    write_volume(half, root / "half.nii.gz", datatype=2)
    return {"root": root, "truth": truth, "half": half}


class TestMetricsCommand:
    def test_self_comparison_all_ones(self, phantom_files, tmp_path, capsys):
        root = phantom_files["root"]
        code = run("metrics", "--pred", root / "truth.nii.gz",
                   "--ref", root / "truth.nii.gz", "--out", tmp_path)
        assert code == 0
        rows = read_csv(tmp_path / "metrics.csv")
        assert len(rows) == 1
        for metric in ("dsc_vox", "sen_vox", "ppv_vox", "dsc_num", "sen_num", "ppv_num"):
            assert float(rows[0][metric]) == 1.0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["config"]["connectivity"] == 26
        assert set(payload["config"]) == {"connectivity", "strict_grid", "out_dir"}

    def test_dim_mismatch_exit_2(self, phantom_files, tmp_path, capsys):
        root = phantom_files["root"]
        from conftest import make_mask
        other = make_mask(np.zeros((8, 8, 8), bool))
        write_volume(other, tmp_path / "small.nii", datatype=2)
        code = run("metrics", "--pred", root / "truth.nii.gz",
                   "--ref", tmp_path / "small.nii", "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "(40, 40, 40)" in err and "(8, 8, 8)" in err

    @pytest.mark.parametrize("order", ["<", ">"])
    def test_uint16_reference_reads_as_its_nonzero_voxels(self, phantom_files, tmp_path,
                                                          monkeypatch, order):
        # a label map as ITK-SNAP saves it: uint16, labels 1 and 65535
        root, truth = phantom_files["root"], phantom_files["truth"]
        labels = np.where(truth.data, 1, 0).astype(np.uint16)
        labels[: truth.dims[0] // 2][truth.data[: truth.dims[0] // 2]] = 65535
        ref16 = write_nifti(tmp_path / "ref16.nii.gz", labels, 512, order,
                            affine=truth.affine)
        monkeypatch.chdir(tmp_path)
        for name, ref in (("u16", ref16), ("u8", root / "truth.nii.gz")):
            assert run("metrics", "--pred", root / "half.nii.gz", "--ref", ref,
                       "--subject-id", "s", "--out", name) == 0
            assert run("clusters", "--mask", ref, "--out", f"c{name}") == 0
        for got, want in (("u16/metrics.csv", "u8/metrics.csv"),
                          ("cu16/cluster_sizes.csv", "cu8/cluster_sizes.csv"),
                          ("cu16/size_histogram.csv", "cu8/size_histogram.csv")):
            assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes()
        assert read_csv(tmp_path / "u16" / "metrics.csv")[0]["dsc_vox"] != ""

    @pytest.mark.parametrize("code, label", [(1024, -2**63), (1280, 2**64 - 1)])
    def test_64_bit_reference_reads_as_its_nonzero_voxels(self, phantom_files, tmp_path,
                                                         monkeypatch, code, label):
        # labels beyond 2**53 still binarize; only read_voxels rejects them
        root, truth = phantom_files["root"], phantom_files["truth"]
        labels = np.where(truth.data, 1, 0).astype("i8" if code == 1024 else "u8")
        labels[: truth.dims[0] // 2][truth.data[: truth.dims[0] // 2]] = label
        ref64 = write_nifti(tmp_path / "ref64.nii.gz", labels, code, ">", affine=truth.affine)
        monkeypatch.chdir(tmp_path)
        for name, ref in (("w64", ref64), ("u8", root / "truth.nii.gz")):
            assert run("metrics", "--pred", root / "half.nii.gz", "--ref", ref,
                       "--subject-id", "s", "--out", name) == 0
        assert (tmp_path / "w64/metrics.csv").read_bytes() == (
            tmp_path / "u8/metrics.csv").read_bytes()

    def test_int8_prediction_reads_as_its_nonzero_voxels(self, phantom_files, tmp_path,
                                                        monkeypatch):
        # datatype 256, as some tools save a mask: -128 and 127 are foreground
        root, half = phantom_files["root"], phantom_files["half"]
        labels = np.where(half.data, 127, 0).astype(np.int8)
        labels[: half.dims[0] // 2][half.data[: half.dims[0] // 2]] = -128
        pred8 = write_nifti(tmp_path / "pred8.nii.gz", labels, 256, affine=half.affine)
        monkeypatch.chdir(tmp_path)
        for name, pred in (("i8", pred8), ("u8", root / "half.nii.gz")):
            assert run("metrics", "--pred", pred, "--ref", root / "truth.nii.gz",
                       "--subject-id", "s", "--out", name) == 0
        assert (tmp_path / "i8/metrics.csv").read_bytes() == (
            tmp_path / "u8/metrics.csv").read_bytes()

    def test_empty_reference_is_flagged_ref_empty(self, tmp_path):
        pred = np.zeros((6, 5, 4), bool)
        pred[1, 1, 1] = pred[4, 3, 2] = True
        write_volume(BinaryMask(pred, (1, 1, 1), np.eye(3, 4)), tmp_path / "p.nii.gz",
                     datatype=2)
        write_volume(BinaryMask(np.zeros_like(pred), (1, 1, 1), np.eye(3, 4)),
                     tmp_path / "r.nii.gz", datatype=2)
        assert run("metrics", "--pred", tmp_path / "p.nii.gz", "--ref", tmp_path / "r.nii.gz",
                   "--out", tmp_path / "o") == 0
        (row,) = read_csv(tmp_path / "o" / "metrics.csv")
        assert row["degenerate_flags"] == "ref_empty"
        assert (row["dsc_vox"], row["sen_vox"], row["ppv_vox"]) == ("0.0", "", "0.0")
        assert (row["n_manual"], row["n_algo"], row["vol_algo_vox"]) == ("0", "2", "2")

    def test_strict_grid_reads_a_qform_only_header(self, tmp_path, capsys):
        # 180 degrees about x: the qform quaternion (1, 0, 0) and this sform
        # are one geometry; the identity quaternion is another
        data = np.zeros((6, 5, 4), bool)
        data[2:4, 1:3, 1:3] = True
        flipped = np.array([[1.0, 0, 0, 10], [0, -1, 0, 20], [0, 0, -1, 30]])
        write_volume(BinaryMask(data, (1, 1, 1), flipped), tmp_path / "s.nii", datatype=2)
        for name, quatern, code in (("same", (1, 0, 0), 0), ("rotated", (0, 0, 0), 2)):
            pred = qform_only(write_nifti(tmp_path / f"{name}.nii", data, 2),
                              quatern, (10, 20, 30))
            args = ("metrics", "--pred", pred, "--ref", tmp_path / "s.nii")
            assert run(*args, "--out", tmp_path / name) == 0
            assert run(*args, "--strict-grid", "--out", tmp_path / f"{name}_strict") == code
        assert capsys.readouterr().err == (f"pvseval: error: {tmp_path / 's.nii'}: "
                                           "affines differ beyond 1e-4 in strict grid mode\n")

    def test_strict_grid_reads_a_half_turn_qform(self, tmp_path):
        # 180 degrees about x = y: float32 storage of the quaternion
        # (sqrt 0.5, sqrt 0.5, 0) leaves it short of unit length, which
        # nifti1_io.c reads as a = 0 and a renormalized (b, c, d)
        data = np.zeros((6, 5, 4), bool)
        data[2:4, 1:3, 1:3] = True
        swapped = np.array([[0.0, 1, 0, 10], [1, 0, 0, 20], [0, 0, -1, 30]])
        write_volume(BinaryMask(data, (1, 1, 1), swapped), tmp_path / "s.nii", datatype=2)
        pred = qform_only(write_nifti(tmp_path / "q.nii", data, 2),
                          (math.sqrt(0.5), math.sqrt(0.5), 0), (10, 20, 30))
        assert run("metrics", "--pred", pred, "--ref", tmp_path / "s.nii", "--strict-grid",
                   "--out", tmp_path / "out") == 0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = run("metrics", "--pred", tmp_path / "nope.nii",
                   "--ref", tmp_path / "nope.nii", "--out", tmp_path)
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_empty_pred_exit_2(self, phantom_files, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("metrics", "--pred", "", "--ref", phantom_files["root"] / "truth.nii.gz",
                   "--out", out) == 2
        assert capsys.readouterr().err == "pvseval: error: --pred is required\n"
        assert not out.exists()

    def test_half_deletion_dice_in_csv(self, phantom_files, tmp_path):
        root = phantom_files["root"]
        code = run("metrics", "--pred", root / "half.nii.gz",
                   "--ref", root / "truth.nii.gz", "--out", tmp_path,
                   "--subject-id", "half")
        assert code == 0
        row = read_csv(tmp_path / "metrics.csv")[0]
        total = phantom_files["truth"].foreground_count
        deleted = total - phantom_files["half"].foreground_count
        f = deleted / total
        assert float(row["dsc_vox"]) == pytest.approx(2 * (1 - f) / (2 - f), abs=1e-12)

    def test_internal_error_exit_1(self, phantom_files, tmp_path, monkeypatch, capsys):
        import pvseval.cli as cli_mod
        root = phantom_files["root"]

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "evaluate_subject", boom)
        code = run("metrics", "--pred", root / "truth.nii.gz",
                   "--ref", root / "truth.nii.gz", "--out", tmp_path)
        assert code == 1
        assert "internal error" in capsys.readouterr().err

    def test_out_names_a_file_exit_2(self, phantom_files, tmp_path, capsys):
        root = phantom_files["root"]
        (tmp_path / "taken").write_text("")
        code = run("metrics", "--pred", root / "truth.nii.gz",
                   "--ref", root / "truth.nii.gz", "--out", tmp_path / "taken")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pvseval: error: [Errno") and "File exists" in err
        assert str(tmp_path / "taken") in err

    def test_config_names_a_directory_exit_2(self, phantom_files, tmp_path, capsys):
        root = phantom_files["root"]
        code = run("metrics", "--pred", root / "truth.nii.gz",
                   "--ref", root / "truth.nii.gz", "--out", tmp_path / "out",
                   "--config", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pvseval: error: [Errno") and "Is a directory" in err
        assert str(tmp_path) in err

    def test_save_labels_names_a_directory_exit_2(self, phantom_files, tmp_path, capsys):
        root = phantom_files["root"]
        (tmp_path / "labels").mkdir()
        code = run("clusters", "--mask", root / "truth.nii.gz", "--out", tmp_path / "out",
                   "--save-labels", tmp_path / "labels")
        assert code == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: --save-labels: is a directory: {tmp_path / 'labels'}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("labels", ["out", "out/"])
    @pytest.mark.parametrize("out", ["out", "out/deeper"])
    def test_save_labels_names_out_or_its_parent_exit_2(self, phantom_files, tmp_path,
                                                       capsys, monkeypatch, out, labels):
        # neither exists yet, but --out is made before the label map is written
        monkeypatch.chdir(tmp_path)
        assert run("clusters", "--mask", phantom_files["root"] / "truth.nii.gz",
                   "--out", out, "--save-labels", labels) == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: --save-labels: is a directory: {labels}\n")
        assert not (tmp_path / "out").exists()

    def test_save_labels_in_no_directory_exit_2_before_any_write(self, phantom_files,
                                                                 tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("clusters", "--mask", phantom_files["root"] / "truth.nii.gz",
                   "--out", "out", "--save-labels", "nodir/labels.nii.gz") == 2
        assert capsys.readouterr().err == (
            "pvseval: error: --save-labels: no such directory: nodir\n")
        assert not (tmp_path / "out").exists()

    def test_save_labels_may_go_into_out(self, phantom_files, tmp_path):
        out = tmp_path / "out"
        assert run("clusters", "--mask", phantom_files["root"] / "truth.nii.gz",
                   "--out", out, "--save-labels", out / "labels.nii.gz") == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "cluster_sizes.csv", "clusters.json", "labels.nii.gz", "size_histogram.csv"]

    def test_strict_grid_compares_affines(self, phantom_files, tmp_path, capsys):
        root, truth = phantom_files["root"], phantom_files["truth"]
        affine = np.array(truth.affine)
        affine[0, 3] += 50.0  # same dims, 50 mm apart
        write_volume(BinaryMask(truth.data, truth.spacing, affine),
                     tmp_path / "shifted.nii.gz", datatype=2)
        args = ("metrics", "--pred", tmp_path / "shifted.nii.gz",
                "--ref", root / "truth.nii.gz", "--out", tmp_path)
        assert run(*args) == 0
        assert run(*args, "--strict-grid") == 2
        assert "affines" in capsys.readouterr().err

    def test_nan_mask_exit_2(self, phantom_files, tmp_path, capsys):
        root, truth = phantom_files["root"], phantom_files["truth"]
        data = truth.data.astype(np.float64)
        data[0, 0, 0] = np.nan
        path = tmp_path / "nan_pred.nii.gz"
        write_volume(Volume3D(data, truth.spacing, truth.affine), path, datatype=64)
        code = run("metrics", "--pred", path, "--ref", root / "truth.nii.gz",
                   "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "NaN" in err

    @pytest.mark.parametrize("flag", ["--ref", "--roi-wm", "--roi-bg"])
    def test_grid_mismatch_names_the_file(self, phantom_files, tmp_path, capsys, flag):
        """The prediction sets the grid; the error names the file off it."""
        root = phantom_files["root"]
        small = tmp_path / "small.nii.gz"
        write_volume(BinaryMask(np.ones((8, 8, 8), bool), (1, 1, 1), np.eye(3, 4)), small,
                     datatype=2)
        files = {"--ref": root / "truth.nii.gz", "--roi-wm": root / "truth.nii.gz",
                 "--roi-bg": root / "truth.nii.gz", flag: small}
        argv = [a for pair in files.items() for a in pair]
        assert run("metrics", "--pred", root / "half.nii.gz", *argv,
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {small}: grid mismatch: (8, 8, 8) vs (40, 40, 40)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--ref", "--roi-bg"])
    def test_strict_grid_names_the_shifted_file(self, phantom_files, tmp_path, capsys, flag):
        root, truth = phantom_files["root"], phantom_files["truth"]
        affine = np.array(truth.affine)
        affine[2, 3] += 1e-3
        shifted = tmp_path / "shifted.nii.gz"
        write_volume(BinaryMask(truth.data, truth.spacing, affine), shifted, datatype=2)
        files = {"--ref": root / "truth.nii.gz", "--roi-bg": root / "truth.nii.gz",
                 flag: shifted}
        argv = ["metrics", "--pred", root / "half.nii.gz",
                *[a for pair in files.items() for a in pair]]
        assert run(*argv, "--out", tmp_path / "lenient") == 0
        assert run(*argv, "--strict-grid", "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {shifted}: affines differ beyond 1e-4 in strict grid mode\n")

    def test_strict_grid_compares_spacings(self, phantom_files, tmp_path, capsys):
        # a 2 mm pixdim with the sform unchanged: dims and affines agree
        root = phantom_files["root"]
        coarse = with_header_float(root / "truth.nii.gz", tmp_path / "coarse.nii.gz", 80, 2.0)
        argv = ["metrics", "--pred", root / "half.nii.gz", "--ref", coarse]
        assert run(*argv, "--out", tmp_path / "lenient") == 0
        assert run(*argv, "--strict-grid", "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {coarse}: spacings differ beyond 1e-4 in strict grid mode: "
            f"(2.0, 1.0, 1.0) vs (1.0, 1.0, 1.0)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("strict", [(), ("--strict-grid",)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_pixdim_exit_2(self, phantom_files, tmp_path, capsys, value, strict):
        root = phantom_files["root"]
        bad = with_header_float(root / "truth.nii.gz", tmp_path / "bad.nii.gz", 84, value)
        assert run("metrics", "--pred", root / "half.nii.gz", "--ref", bad, *strict,
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {bad}: non-finite pixdim (1.0, {value}, 1.0), vox_offset 352.0 "
            f"or affine\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_vox_offset_exit_2(self, phantom_files, tmp_path, capsys, value):
        root = phantom_files["root"]
        bad = with_header_float(root / "truth.nii.gz", tmp_path / "bad.nii.gz", 108, value)
        assert run("clusters", "--mask", bad, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {bad}: non-finite pixdim (1.0, 1.0, 1.0), vox_offset {value} "
            f"or affine\n")
        assert not (tmp_path / "o").exists()


def with_header_float(src, dest, offset, value):
    """A copy of the little-endian .nii.gz at src whose header float at byte
    offset (80 pixdim[1], 84 pixdim[2], 108 vox_offset) is value."""
    raw = bytearray(gzip.decompress(Path(src).read_bytes()))
    struct.pack_into("<f", raw, offset, value)
    Path(dest).write_bytes(gzip.compress(bytes(raw)))
    return dest


def build_cohort(root, n_per_site, seed0=0):
    records = []
    base = root / "vols"
    base.mkdir(exist_ok=True)
    seed = seed0
    for site, count in n_per_site.items():
        for i in range(count):
            sid = f"{site}{i:02d}"
            spec = PhantomSpec(dims=(32, 32, 32), n_tubes=2,
                               length_range=(6.0, 10.0), seed=seed)
            _, truth, _ = generate(spec)
            pred = perturb(truth, Perturbation(kind="delete_fraction", fraction=0.25),
                           seed=seed + 1)
            write_volume(truth, base / f"{sid}_ref.nii.gz", datatype=2)
            write_volume(pred, base / f"{sid}_pred.nii.gz", datatype=2)
            records.append(SubjectRecord(sid, site,
                                         str(base / f"{sid}_pred.nii.gz"),
                                         str(base / f"{sid}_ref.nii.gz")))
            seed += 7
    manifest = root / "manifest.csv"
    write_manifest(records, manifest)
    return manifest, records


def write_rows(path, rows):
    """Rewrite a CSV from read_csv's rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


class TestAggregateCommand:
    @pytest.mark.parametrize("command", ["aggregate", "folds"])
    def test_manifest_not_utf8_exit_2(self, tmp_path, capsys, command):
        manifest, _ = build_cohort(tmp_path, {"A": 2})
        lines = manifest.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"A01", b"A\xff1")
        manifest.write_bytes(b"\n".join(lines))
        argv = ["--scheme", "5fcv"] if command == "folds" else []
        offset = manifest.read_bytes().index(b"\xff")
        assert run(command, "--manifest", manifest, *argv, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {manifest}: line 3: not UTF-8 text "
            f"(invalid start byte at byte {offset})\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("column", ["pred_path", "ref_path", "site"])
    def test_manifest_cell_with_nul_exit_2(self, tmp_path, capsys, column):
        manifest, _ = build_cohort(tmp_path, {"A": 2})
        rows = read_csv(manifest)
        rows[1][column] = rows[1][column][:3] + "\x00" + rows[1][column][3:]
        write_rows(manifest, rows)
        assert run("aggregate", "--manifest", manifest, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {manifest}: row 3, column {column}: holds a NUL byte\n")

    @pytest.mark.parametrize("text", ["\n", "\r", "\r\n"])
    @pytest.mark.parametrize("column", ["subject_id", "pred_path", "ref_path"])
    def test_manifest_cell_with_a_line_break_exit_2(self, tmp_path, capsys, column, text):
        # a path holding one was read, and its failure message spanned lines
        manifest, _ = build_cohort(tmp_path, {"A": 2})
        rows = read_csv(manifest)
        rows[1][column] = rows[1][column][:3] + text + rows[1][column][3:]
        write_rows(manifest, rows)
        assert run("aggregate", "--manifest", manifest, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {manifest}: row 3, column {column}: holds a line break\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["aggregate", "folds"])
    @pytest.mark.parametrize("column", ["site", "pred_path", "ref_path"])
    def test_manifest_empty_required_cell_exit_2(self, tmp_path, capsys, column, command):
        # an empty pred_path was read as the directory "", and an empty
        # site became a site named "" with LOSOCV headers _mean, _sd, _n
        manifest, _ = build_cohort(tmp_path, {"A": 2, "B": 2})
        rows = read_csv(manifest)
        rows[1][column] = " "
        write_rows(manifest, rows)
        argv = ["--scheme", "5fcv"] if command == "folds" else []
        assert run(command, "--manifest", manifest, *argv, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {manifest}: row 3: empty {column}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, cells", [("s9,A", 2), ("s9,A,p,r,,,extra", 7)])
    def test_manifest_row_of_the_wrong_width_exit_2(self, tmp_path, capsys, line, cells):
        manifest, _ = build_cohort(tmp_path, {"A": 2})
        with open(manifest, "a", newline="") as fh:
            fh.write(line + "\r\n")
        assert run("folds", "--manifest", manifest, "--scheme", "5fcv",
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {manifest}: row 4: {cells} cells, the header has 6\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["aggregate", "folds"])
    def test_manifest_duplicate_subject_exit_2(self, tmp_path, capsys, command):
        manifest = tmp_path / "m.csv"
        manifest.write_text("subject_id,site,pred_path,ref_path\n"
                            "s1,A,p1.nii,r1.nii\ns1,B,p2.nii,r2.nii\n", encoding="utf-8")
        argv = ["--scheme", "5fcv"] if command == "folds" else []
        assert run(command, "--manifest", manifest, *argv, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {manifest}: row 3: duplicate subject_id 's1'\n")
        assert not (tmp_path / "o").exists()

    def test_two_subject_hand_mean(self, tmp_path):
        manifest, _ = build_cohort(tmp_path, {"A": 2})
        out = tmp_path / "out"
        assert run("aggregate", "--manifest", manifest, "--out", out) == 0
        subjects = read_csv(out / "per_subject.csv")
        assert len(subjects) == 2
        values = [float(r["dsc_vox"]) for r in subjects]
        agg = read_csv(out / "aggregate.csv")
        all_sites = next(r for r in agg if r["site"] == "All Sites")
        assert float(all_sites["dsc_vox_mean"]) == pytest.approx(
            sum(values) / 2, abs=1e-12)
        hand_sd = (sum((v - sum(values) / 2) ** 2 for v in values)) ** 0.5
        assert float(all_sites["dsc_vox_sd"]) == pytest.approx(hand_sd, abs=1e-12)

    def test_losocv_table_shape(self, tmp_path):
        manifest, _ = build_cohort(tmp_path, {"A": 2, "B": 2, "C": 2})
        out = tmp_path / "out"
        assert run("aggregate", "--manifest", manifest, "--out", out,
                   "--scheme", "losocv") == 0
        rows = read_csv(out / "losocv_table.csv")
        assert len(rows) == 6  # one region x six metrics
        for site in ("A", "B", "C"):
            assert f"{site}_mean" in rows[0]
        assert "average_mean" in rows[0]

    def test_site_named_average_rejected(self, tmp_path, capsys):
        manifest, _ = build_cohort(tmp_path, {"A": 2, "average": 2})
        out = tmp_path / "out"
        assert run("aggregate", "--manifest", manifest, "--out", out) == 0
        assert run("aggregate", "--manifest", manifest, "--out", out / "losocv",
                   "--scheme", "losocv") == 2
        assert "site 'average'" in capsys.readouterr().err
        assert not (out / "losocv").exists()

    def test_parallel_matches_serial(self, tmp_path):
        manifest, _ = build_cohort(tmp_path, {"A": 3})
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run("aggregate", "--manifest", manifest, "--out", serial) == 0
        assert run("aggregate", "--manifest", manifest, "--out", parallel,
                   "--workers", 3) == 0
        assert (serial / "per_subject.csv").read_text() == \
            (parallel / "per_subject.csv").read_text()

    def test_strict_grid_checks_rois(self, tmp_path, capsys):
        manifest, records = build_cohort(tmp_path, {"A": 2})
        ref = read_volume(records[0].ref_path)
        affine = np.array(ref.affine)
        affine[2, 3] -= 50.0
        roi = tmp_path / "roi.nii.gz"
        write_volume(BinaryMask(np.ones(ref.dims, bool), ref.spacing, affine), roi, datatype=2)
        write_manifest([SubjectRecord(r.subject_id, r.site, r.pred_path, r.ref_path,
                                      roi_wm_path=str(roi)) for r in records], manifest)
        assert run("aggregate", "--manifest", manifest, "--out", tmp_path / "o") == 0
        code = run("aggregate", "--manifest", manifest, "--out", tmp_path / "o",
                   "--strict-grid", "--workers", "2")
        assert code == 2
        assert "affines" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_missing_file_names_subject(self, tmp_path, capsys, workers):
        manifest, records = build_cohort(tmp_path, {"A": 4})
        missing = str(tmp_path / "A03_MISSING.nii.gz")
        records[3] = SubjectRecord("A03", "A", missing, records[3].ref_path)
        write_manifest(records, manifest)
        code = run("aggregate", "--manifest", manifest, "--out", tmp_path / "o",
                   "--workers", workers)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pvseval: error: A03: {missing}: ")
        assert "No such file" in err and err.count(missing) == 1

    def test_grid_mismatch_names_subject(self, tmp_path, capsys):
        manifest, records = build_cohort(tmp_path, {"A": 2})
        roi = tmp_path / "small_roi.nii.gz"
        write_volume(BinaryMask(np.ones((8, 8, 8), bool), (1.0, 1.0, 1.0), np.eye(3, 4)),
                     roi, datatype=2)
        records[1] = SubjectRecord("A01", "A", records[1].pred_path, records[1].ref_path,
                                   roi_bg_path=str(roi))
        write_manifest(records, manifest)
        code = run("aggregate", "--manifest", manifest, "--out", tmp_path / "o",
                   "--workers", 2)
        assert code == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: A01: {roi}: grid mismatch: (8, 8, 8) vs (32, 32, 32)\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ref_grid_mismatch_names_the_ref(self, tmp_path, capsys, workers):
        manifest, records = build_cohort(tmp_path, {"A": 3})
        write_volume(BinaryMask(np.ones((8, 8, 8), bool), (1.0, 1.0, 1.0), np.eye(3, 4)),
                     records[2].ref_path, datatype=2)
        code = run("aggregate", "--manifest", manifest, "--out", tmp_path / "o",
                   "--workers", workers)
        assert code == 2
        assert capsys.readouterr().err == (f"pvseval: error: A02: {records[2].ref_path}: "
                                           "grid mismatch: (8, 8, 8) vs (32, 32, 32)\n")

    def test_losocv_cells_are_aggregate_cells(self, tmp_path):
        """Each LOSOCV cell is aggregate's cell, byte for byte: a site's own
        row, and the All Sites row for the average. The manifest lists the
        sites out of order, so a pooled mean summed site by site would
        differ in its last digits."""
        manifest, records = build_cohort(tmp_path, {"C": 5, "A": 6, "B": 5})
        half = read_volume(records[0].ref_path)
        roi = np.zeros(half.dims, bool)
        roi[: half.dims[0] // 2] = True
        for name, data in (("wm", roi), ("bg", ~roi)):
            write_volume(BinaryMask(data, half.spacing, half.affine),
                         tmp_path / f"{name}.nii.gz", datatype=2)
        write_manifest([SubjectRecord(r.subject_id, r.site, r.pred_path, r.ref_path,
                                      str(tmp_path / "wm.nii.gz"), str(tmp_path / "bg.nii.gz"))
                        for r in records], manifest)
        out = tmp_path / "out"
        assert run("aggregate", "--manifest", manifest, "--scheme", "losocv",
                   "--out", out) == 0
        cells = {(r["region"], r["site"]): r for r in read_csv(out / "aggregate.csv")}
        rows = read_csv(out / "losocv_table.csv")
        assert [(r["region"], r["metric"]) for r in rows] == [
            (region, m) for region in ("WM", "BG") for m in METRICS]
        for row in rows:
            for prefix, site in (("A", "A"), ("B", "B"), ("C", "C"),
                                 ("average", "All Sites")):
                cell = cells[row["region"], site]
                for field in ("mean", "sd", "n"):
                    assert row[f"{prefix}_{field}"] == cell[f"{row['metric']}_{field}"], (
                        row["region"], row["metric"], prefix, field)

    def test_single_site_losocv_rejected(self, tmp_path, capsys, monkeypatch):
        """Rejected before any subject is read, with folds' message."""
        import pvseval.cli as cli_mod
        manifest, _ = build_cohort(tmp_path, {"A": 2})
        assert run("folds", "--manifest", manifest, "--scheme", "losocv",
                   "--out", tmp_path / "folds") == 2
        folds_err = capsys.readouterr().err
        assert folds_err == "pvseval: error: LOSOCV needs >= 2 sites, got ['A']\n"
        monkeypatch.setattr(cli_mod, "evaluate_manifest", None)  # never reached
        assert run("aggregate", "--manifest", manifest, "--scheme", "losocv",
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == folds_err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [("--per-site",), ("--scheme", "losocv")])
    def test_site_named_all_sites_rejected(self, tmp_path, capsys, flags):
        manifest, _ = build_cohort(tmp_path, {"A": 2, "All Sites": 2})
        out = tmp_path / "out"
        assert run("aggregate", "--manifest", manifest, "--out", out) == 0
        assert run("aggregate", "--manifest", manifest, "--out", out / "per_site",
                   *flags) == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {manifest}: site 'All Sites' clashes with the pooled "
            "rows of every region\n")
        assert not (out / "per_site").exists()


def damage(path, kind):
    """Rewrite a .nii.gz in place: cut in half, CRC flipped, or a deflate
    block of the reserved type 3."""
    blob = path.read_bytes()
    if kind == "truncated":
        blob = blob[: len(blob) // 2]
    elif kind == "crc":
        blob = blob[:-8] + bytes([blob[-8] ^ 0xFF]) + blob[-7:]
    else:
        blob = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + b"\xff" * 32
    path.write_bytes(blob)
    return path


class TestDamagedGzip:
    """A damaged .nii.gz is bad input (exit 2, file named), not an internal
    failure (exit 1)."""

    @pytest.mark.parametrize("kind", ["truncated", "crc", "deflate"])
    @pytest.mark.parametrize("command", ["metrics", "contrast", "clusters"])
    def test_subject_commands(self, phantom_files, tmp_path, capsys, command, kind):
        root = phantom_files["root"]
        bad = tmp_path / "bad.nii.gz"
        shutil.copy(root / "half.nii.gz", bad)
        damage(bad, kind)
        argv = {
            "metrics": ("--pred", bad, "--ref", root / "truth.nii.gz"),
            "contrast": ("--image", root / "image.nii.gz", "--mask", bad),
            "clusters": ("--mask", bad),
        }[command]
        assert run(command, *argv, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pvseval: error: {bad}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["truncated", "crc", "deflate"])
    def test_aggregate_names_subject_and_file_once(self, tmp_path, capsys, kind, workers):
        manifest, records = build_cohort(tmp_path, {"A": 3})
        bad = damage(tmp_path / "vols" / "A02_pred.nii.gz", kind)
        code = run("aggregate", "--manifest", manifest, "--out", tmp_path / "o",
                   "--workers", workers)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pvseval: error: A02: {bad}: ")
        assert err.count(str(bad)) == 1

    def test_aggregate_nan_mask_names_file_once(self, tmp_path, capsys):
        manifest, records = build_cohort(tmp_path, {"A": 2})
        ref = read_volume(records[1].ref_path)
        data = ref.data.astype(np.float64)
        data[0, 0, 0] = np.nan
        write_volume(Volume3D(data, ref.spacing, ref.affine), records[1].pred_path,
                     datatype=64)
        assert run("aggregate", "--manifest", manifest, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pvseval: error: A01: {records[1].pred_path}: ")
        assert "NaN" in err and err.count(records[1].pred_path) == 1


class TestBadSubjects:
    """A subject whose files cannot be read is left out, not the run: the
    other subjects' outputs are those of a run without it, it is listed in
    failures.csv/json and named on stderr, and the run exits 2."""

    BAD = {"A01": "missing", "B02": "truncated", "C00": "missized"}

    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bad_subjects")
        _, records = build_cohort(root, {"A": 3, "B": 3, "C": 2})
        truncated = root / "truncated.nii.gz"
        shutil.copy(records[0].pred_path, truncated)
        damage(truncated, "truncated")
        small = root / "small.nii.gz"
        write_volume(BinaryMask(np.ones((8, 8, 8), bool), (1.0, 1.0, 1.0), np.eye(3, 4)),
                     small, datatype=2)
        paths = {"missing": str(root / "missing.nii.gz"), "truncated": str(truncated),
                 "missized": str(small)}
        return root, records, paths

    @staticmethod
    def manifest(path, records, paths, bad):
        """The cohort with each subject of `bad` given the file of its
        kind: a missing or truncated prediction, or a reference on an 8^3
        grid."""
        field = {"missing": "pred_path", "truncated": "pred_path", "missized": "ref_path"}
        write_manifest([dataclasses.replace(r, **{field[bad[r.subject_id]]:
                                                  paths[bad[r.subject_id]]})
                        if r.subject_id in bad else r for r in records], path)
        return path

    @pytest.mark.parametrize("workers", [1, 2])
    def test_other_subjects_write_what_a_run_without_the_bad_ones_writes(
            self, cohort, tmp_path, capsys, workers):
        root, records, paths = cohort
        full = self.manifest(tmp_path / "full.csv", records, paths, self.BAD)
        clean = tmp_path / "clean.csv"
        write_manifest([r for r in records if r.subject_id not in self.BAD], clean)
        argv = ("--scheme", "losocv", "--workers", workers)
        assert run("aggregate", "--manifest", clean, *argv, "--out", tmp_path / "clean") == 0
        capsys.readouterr()
        assert run("aggregate", "--manifest", full, *argv, "--out", tmp_path / "full") == 2
        lines = capsys.readouterr().err.splitlines()
        for name in ("per_subject.csv", "aggregate.csv", "losocv_table.csv"):
            assert (tmp_path / "full" / name).read_text() == \
                (tmp_path / "clean" / name).read_text(), name
        # one row and one stderr line per bad subject, in manifest order
        failures = read_csv(tmp_path / "full" / "failures.csv")
        assert [f"pvseval: error: {f['message']}" for f in failures] == lines
        assert [(f["subject_id"], f["site"], f["message"].split(": ")[:2]) for f in failures] \
            == [(sid, sid[0], [sid, paths[kind]]) for sid, kind in self.BAD.items()]
        assert [f["error"] for f in failures] == ["InputError", "InputError",
                                                  "DimMismatchError"]
        payload = json.loads((tmp_path / "full" / "failures.json").read_text())
        assert payload["failures"] == failures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_site_whose_subjects_all_failed_keeps_its_columns_empty(
            self, cohort, tmp_path, capsys, workers):
        root, records, paths = cohort
        bad = {"C00": "missized", "C01": "truncated"}
        manifest = self.manifest(tmp_path / "m.csv", records, paths, bad)
        out = tmp_path / "out"
        assert run("aggregate", "--manifest", manifest, "--scheme", "losocv",
                   "--workers", workers, "--out", out) == 2
        assert len(capsys.readouterr().err.splitlines()) == 2
        assert {r["site"] for r in read_csv(out / "aggregate.csv")} == {
            "All Sites", "A", "B"}
        rows = read_csv(out / "losocv_table.csv")
        assert len(rows) == 6
        for row in rows:
            assert (row["C_mean"], row["C_sd"], row["C_n"]) == ("", "", "0")
            assert row["A_n"] == "3" and row["average_n"] == "6"

    def test_no_subject_read_still_writes_every_output(self, cohort, tmp_path, capsys):
        root, records, paths = cohort
        bad = {r.subject_id: "missing" for r in records}
        manifest = self.manifest(tmp_path / "m.csv", records, paths, bad)
        out = tmp_path / "out"
        assert run("aggregate", "--manifest", manifest, "--scheme", "losocv",
                   "--out", out) == 2
        assert len(capsys.readouterr().err.splitlines()) == len(records)
        for name in ("per_subject.csv", "aggregate.csv", "losocv_table.csv"):
            assert read_csv(out / name) == [], name
        assert len(read_csv(out / "failures.csv")) == len(records)

    def test_a_clean_run_replaces_the_failures(self, cohort, tmp_path, capsys):
        root, records, paths = cohort
        manifest = self.manifest(tmp_path / "m.csv", records, paths, {"B02": "missing"})
        out = tmp_path / "out"
        assert run("aggregate", "--manifest", manifest, "--out", out) == 2
        assert len(read_csv(out / "failures.csv")) == 1
        write_manifest(records, manifest)
        assert run("aggregate", "--manifest", manifest, "--out", out) == 0
        assert capsys.readouterr().err.count("\n") == 1
        assert (out / "failures.csv").read_bytes() == b"subject_id,site,error,message\r\n"
        assert json.loads((out / "failures.json").read_text())["failures"] == []

    def test_an_internal_error_still_exits_1(self, cohort, tmp_path, capsys, monkeypatch):
        root, records, paths = cohort

        def broken(record, connectivity, strict):
            raise ValueError("bug")

        monkeypatch.setattr(harness, "evaluate_record", broken)
        write_manifest(records, tmp_path / "m.csv")
        assert run("aggregate", "--manifest", tmp_path / "m.csv", "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == "pvseval: internal error: ValueError: bug\n"


def mutate(blob, rng, suffix):
    """blob with one seeded mutation: 1-3 bit flips, a truncation, a gzip
    header byte replaced, or a NIfTI header byte replaced (inside the
    compressed stream for a .nii.gz, so its CRC still holds)."""
    blob = bytearray(blob)
    kind = rng.integers(4)
    if kind == 0:
        for at in rng.integers(len(blob) * 8, size=rng.integers(1, 4)):
            blob[at // 8] ^= 1 << (at % 8)
    elif kind == 1:
        del blob[rng.integers(len(blob)):]
    elif kind == 2 and suffix == ".nii.gz":
        blob[rng.integers(10)] = rng.integers(256)
    else:
        raw = bytearray(gzip.decompress(blob)) if suffix == ".nii.gz" else blob
        raw[rng.integers(352)] = rng.integers(256)
        blob = gzip.compress(raw) if suffix == ".nii.gz" else raw
    return bytes(blob)


class TestMutatedVolumes:
    """A seeded sweep of damaged volumes through the subject commands: each
    call exits 0 or 2, records no warning, and on 2 prints one error line
    that starts with the damaged file's path."""

    @pytest.fixture(scope="class")
    def volumes(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mutated")
        spec = PhantomSpec(dims=(20, 18, 16), n_tubes=3, length_range=(5.0, 9.0), seed=4)
        image, truth, _ = generate(spec)
        pred = perturb(truth, Perturbation(kind="delete_fraction", fraction=0.3), seed=2)
        paths = {}
        for suffix in (".nii", ".nii.gz"):
            for name, vol, code in (("image", image, 16), ("truth", truth, 2),
                                    ("pred", pred, 2)):
                paths[name + suffix] = root / f"{name}{suffix}"
                write_volume(vol, paths[name + suffix], datatype=code)
        return paths

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("command", ["metrics", "clusters", "contrast"])
    def test_exit_0_or_2_naming_the_file(self, volumes, tmp_path, capsys, command, suffix):
        rng = np.random.default_rng([7, len(command), len(suffix)])
        source = {"metrics": "truth", "clusters": "pred", "contrast": "image"}[command]
        good = volumes[source + suffix].read_bytes()
        bad = tmp_path / f"bad{suffix}"
        argv = {
            "metrics": ("--pred", volumes["pred" + suffix], "--ref", bad),
            "clusters": ("--mask", bad),
            "contrast": ("--image", bad, "--mask", volumes["pred" + suffix]),
        }[command]
        codes = Counter()
        for _ in range(50):
            bad.write_bytes(mutate(good, rng, suffix))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(command, *argv, "--out", tmp_path / "o")
            err = capsys.readouterr().err
            assert code in (0, 2) and not caught, (code, err, [str(w) for w in caught])
            if code == 2:
                assert err.startswith(f"pvseval: error: {bad}: ") and err.count("\n") == 1, err
            codes[code] += 1
        assert codes[2] > 0, codes


def mutate_text(blob, rng):
    """blob with one seeded mutation: 1-3 bit flips, a truncation, a byte
    replaced, or one of , " \\n \\r NUL inserted."""
    blob = bytearray(blob)
    kind, at = rng.integers(4), rng.integers(len(blob))
    if kind == 0:
        for bit in rng.integers(len(blob) * 8, size=rng.integers(1, 4)):
            blob[bit // 8] ^= 1 << (bit % 8)
    elif kind == 1:
        del blob[at:]
    elif kind == 2:
        blob[at] = rng.integers(256)
    else:
        blob.insert(at, b',"\n\r\x00'[rng.integers(5)])
    return bytes(blob)


class TestMutatedText:
    """A seeded sweep of damaged text inputs through the commands that read
    them: a manifest through aggregate and folds, a per-subject CSV through
    compare --a, a config file through compare. Each call exits 0 or 2,
    records no warning, and writes nothing to stderr but pvseval: error:
    lines. --out always names a directory under tmp_path, and flags
    override the config, so a damaged out_dir is never written to."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("text")
        (root / "v").mkdir()
        records = []
        for i, site in enumerate("AABBCC"):
            rng = np.random.default_rng(60 + i)
            ref = rng.random((10, 10, 10)) < 0.05
            pred = ref ^ (rng.random(ref.shape) < 0.01)
            sid = f"{site}{i}"
            write_mask(root / "v" / f"{sid}p.nii", pred)
            write_mask(root / "v" / f"{sid}r.nii", ref)
            # paths relative to root, which the calls run in
            records.append(SubjectRecord(sid, site, f"v/{sid}p.nii", f"v/{sid}r.nii"))
        write_manifest(records, root / "manifest.csv")
        with contextlib.chdir(root):
            assert run("aggregate", "--manifest", "manifest.csv", "--out", "agg",
                       "--workers", 1) == 0
        (root / "config.json").write_text(json.dumps(
            {"connectivity": 18, "fdr_q": 0.05, "out_dir": "cfg", "strict_grid": False,
             "workers": 1}))
        return root

    @pytest.mark.parametrize("case", ["aggregate", "folds", "compare-csv", "compare-config"])
    def test_exit_0_or_2_with_error_lines_only(self, inputs, tmp_path, monkeypatch, capsys,
                                               case):
        monkeypatch.chdir(inputs)
        bad = tmp_path / "bad"
        csv_path = inputs / "agg" / "per_subject.csv"
        source, argv = {
            "aggregate": ("manifest.csv", ("aggregate", "--manifest", bad, "--scheme",
                                           "losocv", "--workers", 1)),
            "folds": ("manifest.csv", ("folds", "--manifest", bad, "--scheme", "5fcv")),
            "compare-csv": (csv_path, ("compare", "--a", bad, "--b", csv_path)),
            "compare-config": ("config.json", ("compare", "--a", csv_path, "--b", csv_path,
                                               "--config", bad)),
        }[case]
        good = (inputs / source).read_bytes()
        rng = np.random.default_rng([11, len(case)])
        codes = Counter()
        for _ in range(100):
            bad.write_bytes(mutate_text(good, rng))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(*argv, "--out", tmp_path / "o")
            err = capsys.readouterr().err
            assert code in (0, 2) and not caught, (code, err, [str(w) for w in caught])
            lines = err.splitlines()
            assert all(line.startswith("pvseval: error: ") for line in lines), err
            if case == "aggregate":  # one line per subject that failed
                assert bool(lines) == (code == 2), err
            else:
                assert len(lines) == (code == 2), err
            codes[code] += 1
        assert codes[0] and codes[2], codes


def dense_read_subject(pred_path, ref_path, roi_wm_path="", roi_bg_path="", strict=False):
    """read_subject as it was before masks were held as indices: every file
    read whole into a grid, and each ROI kept whole."""
    def grid(path, like=None):
        mask = read_volume(path, like, strict)
        return BinaryMask(mask.data, mask.spacing, mask.affine)

    pred = grid(pred_path)
    ref = grid(ref_path, pred)
    rois = [(grid(path, pred), region)
            for path, region in ((roi_wm_path, "WM"), (roi_bg_path, "BG")) if path]
    return pred, ref, [RoiMask(roi, region, empty=not roi.data.any()) for roi, region in rois]


def outputs_in(cwd, monkeypatch, *argv, dense=False):
    """Every output file's bytes after running argv from cwd with --out o;
    dense reads each subject as dense_read_subject does."""
    cwd.mkdir(parents=True)
    with monkeypatch.context() as m:
        m.chdir(cwd)
        if dense:
            m.setattr(cli, "read_subject", dense_read_subject)
            m.setattr(harness, "read_subject", dense_read_subject)
        assert run(*argv, "--out", "o") == 0
    return {p.name: p.read_bytes() for p in sorted((cwd / "o").iterdir())}


def write_mask(path, data):
    write_volume(BinaryMask(data, (1.0, 1.0, 1.0), np.eye(3, 4)), path, datatype=2)
    return str(path)


@pytest.fixture(scope="module")
def roi_subjects(tmp_path_factory):
    """Three subjects on a 24^3 grid, each with WM and BG box ROIs. s0's WM
    ROI lies wholly outside its prediction and reference, and its BG ROI is
    all zero; s1's and s2's ROIs each cover part of both masks."""
    root = tmp_path_factory.mktemp("rois")
    dims = (24, 24, 24)
    records = []
    for i in range(3):
        rng = np.random.default_rng(40 + i)
        ref = np.zeros(dims, bool)
        ref[2:14, 2:14, 2:14] = rng.random((12, 12, 12)) < 0.08
        pred = ref & (rng.random(dims) < 0.7)
        pred[2:14, 2:14, 2:14] |= rng.random((12, 12, 12)) < 0.02
        wm, bg = np.zeros(dims, bool), np.zeros(dims, bool)
        if i == 0:
            wm[16:22, 16:22, 16:22] = True
        else:
            wm[0:8, :, :] = True
            bg[6:12, 6:12, 0:9] = True
        sid = f"s{i}"
        records.append(SubjectRecord(
            sid, "AB"[i % 2], write_mask(root / f"{sid}_pred.nii.gz", pred),
            write_mask(root / f"{sid}_ref.nii.gz", ref),
            roi_wm_path=write_mask(root / f"{sid}_wm.nii.gz", wm),
            roi_bg_path=write_mask(root / f"{sid}_bg.nii.gz", bg)))
    write_manifest(records, root / "manifest.csv")
    return root, records


class TestIndexFirstSubjectRead:
    """metrics and aggregate read each mask as its index and gather each ROI
    only at the prediction and the reference; every output and exit is the
    one of the dense read, and empty_region still means the whole ROI."""

    def test_metrics_equal_the_dense_read(self, roi_subjects, tmp_path, monkeypatch):
        _, records = roi_subjects
        for rec in records:
            argv = ("metrics", "--pred", rec.pred_path, "--ref", rec.ref_path,
                    "--roi-wm", rec.roi_wm_path, "--roi-bg", rec.roi_bg_path)
            got = outputs_in(tmp_path / rec.subject_id / "index", monkeypatch, *argv)
            want = outputs_in(tmp_path / rec.subject_id / "dense", monkeypatch, *argv,
                              dense=True)
            assert got == want and set(got) == {"metrics.csv", "metrics.json"}

    def test_empty_region_means_the_whole_roi(self, roi_subjects, tmp_path):
        # s0's WM ROI has foreground, all of it off both masks: no flag.
        # Its BG ROI is all zero: flagged
        rec = roi_subjects[1][0]
        assert run("metrics", "--pred", rec.pred_path, "--ref", rec.ref_path,
                   "--roi-wm", rec.roi_wm_path, "--roi-bg", rec.roi_bg_path,
                   "--out", tmp_path) == 0
        flags = {r["region"]: r["degenerate_flags"] for r in read_csv(tmp_path / "metrics.csv")}
        assert flags == {"WM": "both_empty", "BG": "both_empty|empty_region"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_aggregate_equals_the_dense_read(self, roi_subjects, tmp_path, monkeypatch,
                                             workers):
        root, _ = roi_subjects
        argv = ("aggregate", "--manifest", root / "manifest.csv", "--scheme", "losocv",
                "--workers", workers)
        got = outputs_in(tmp_path / "index", monkeypatch, *argv)
        want = outputs_in(tmp_path / "dense", monkeypatch, *argv, dense=True)
        assert got == want and "losocv_table.csv" in got
        rows = read_csv(tmp_path / "index" / "o" / "per_subject.csv")
        flags = {(r["subject_id"], r["region"]): r["degenerate_flags"] for r in rows}
        assert flags[("s0", "WM")] == "both_empty"
        assert flags[("s0", "BG")] == "both_empty|empty_region"
        assert flags[("s1", "WM")] == flags[("s2", "BG")] == ""

    def test_empty_masks_gather_nothing(self, roi_subjects, tmp_path, monkeypatch):
        _, records = roi_subjects
        empty = write_mask(tmp_path / "empty.nii.gz", np.zeros((24, 24, 24), bool))
        rec = records[1]
        argv = ("metrics", "--pred", empty, "--ref", empty,
                "--roi-wm", rec.roi_wm_path, "--roi-bg", records[0].roi_bg_path)
        got = outputs_in(tmp_path / "index", monkeypatch, *argv)
        assert got == outputs_in(tmp_path / "dense", monkeypatch, *argv, dense=True)
        flags = [r["degenerate_flags"] for r in read_csv(tmp_path / "index/o/metrics.csv")]
        assert flags == ["both_empty", "both_empty|empty_region"]

    @pytest.mark.parametrize("flag", ["--roi-wm", "--roi-bg"])
    def test_nan_roi_exit_2_names_it(self, roi_subjects, tmp_path, capsys, flag):
        rec = roi_subjects[1][1]
        roi = tmp_path / "nan_roi.nii.gz"
        data = read_volume(rec.roi_bg_path).data.astype(np.float32)
        data[23, 23, 23] = np.nan  # off the prediction and the reference
        write_volume(Volume3D(data, (1, 1, 1), np.eye(3, 4)), roi, datatype=16)
        rois = {"--roi-wm": rec.roi_wm_path, "--roi-bg": rec.roi_bg_path, flag: roi}
        assert run("metrics", "--pred", rec.pred_path, "--ref", rec.ref_path,
                   *[a for pair in rois.items() for a in pair], "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"pvseval: error: {roi}: mask holds NaN voxels\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["truncated", "crc", "deflate"])
    def test_damaged_roi_exit_2_names_it(self, roi_subjects, tmp_path, capsys, kind):
        rec = roi_subjects[1][2]
        bad = damage(Path(shutil.copy(rec.roi_wm_path, tmp_path / "bad.nii.gz")), kind)
        assert run("metrics", "--pred", rec.pred_path, "--ref", rec.ref_path,
                   "--roi-wm", bad, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith(f"pvseval: error: {bad}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["truncated", "nan"])
    def test_aggregate_bad_roi_names_subject_and_file(self, roi_subjects, tmp_path, capsys,
                                                     kind, workers):
        _, records = roi_subjects
        bad = tmp_path / "bad.nii.gz"
        if kind == "nan":
            data = np.zeros((24, 24, 24), np.float32)
            data[0, 0, 0] = np.nan
            write_volume(Volume3D(data, (1, 1, 1), np.eye(3, 4)), bad, datatype=16)
        else:
            damage(Path(shutil.copy(records[1].roi_bg_path, bad)), kind)
        manifest = tmp_path / "manifest.csv"
        write_manifest([records[0], SubjectRecord("s1", "B", records[1].pred_path,
                                                  records[1].ref_path, records[1].roi_wm_path,
                                                  str(bad)), records[2]], manifest)
        assert run("aggregate", "--manifest", manifest, "--workers", workers,
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pvseval: error: s1: {bad}: ") and err.count(str(bad)) == 1

    def test_every_input_file_is_checked_before_the_first_read(self, roi_subjects, tmp_path,
                                                               capsys):
        # a missing reference is reported before a damaged prediction, and a
        # missing BG ROI before a damaged WM ROI: no file is read until all
        # of them are found
        rec = roi_subjects[1][1]
        bad = damage(Path(shutil.copy(rec.pred_path, tmp_path / "bad.nii.gz")), "crc")
        missing = tmp_path / "missing.nii.gz"
        assert run("metrics", "--pred", bad, "--ref", missing, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"pvseval: error: --ref: no such file: {missing}\n"
        assert run("metrics", "--pred", rec.pred_path, "--ref", rec.ref_path,
                   "--roi-wm", damage(Path(shutil.copy(rec.roi_wm_path, tmp_path / "w.nii.gz")),
                                      "crc"),
                   "--roi-bg", missing, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"pvseval: error: --roi-bg: no such file: {missing}\n"
        assert run("metrics", "--pred", rec.pred_path, "--ref", missing,
                   "--roi-wm", missing, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"pvseval: error: --ref: no such file: {missing}\n"


def write_per_subject(path, rows):
    """A per-subject CSV of (subject_id, region, six metric values) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "region", *METRICS])
        writer.writerows([sid, region, *values] for sid, region, values in rows)
    return path


class TestCompareCommand:
    @pytest.mark.parametrize("q", ["0", "1"])
    def test_fdr_q_of_0_or_1_exit_2(self, tmp_path, capsys, q):
        inputs = Path(__file__).parent / "golden" / "inputs"
        assert run("compare", "--a", inputs / "cmp_a.csv", "--b", inputs / "cmp_b.csv",
                   "--fdr-q", q, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "pvseval: error: fdr q must lie in (0, 1)\n"
        assert not (tmp_path / "o").exists()

    def test_compare_against_self(self, tmp_path):
        manifest, _ = build_cohort(tmp_path, {"A": 3})
        out = tmp_path / "out"
        assert run("aggregate", "--manifest", manifest, "--out", out) == 0
        cmp_out = tmp_path / "cmp"
        assert run("compare", "--a", out / "per_subject.csv",
                   "--b", out / "per_subject.csv", "--out", cmp_out) == 0
        rows = read_csv(cmp_out / "compare.csv")
        assert rows and all(r["sig"] == "No" for r in rows)
        payload = json.loads((cmp_out / "compare.json").read_text())
        assert all(r["method"] == "all_zero_diffs" for r in payload["rows"])

    def test_compare_detects_degradation(self, tmp_path):
        manifest, records = build_cohort(tmp_path, {"A": 10})
        out_good = tmp_path / "good"
        assert run("aggregate", "--manifest", manifest, "--out", out_good) == 0
        # degrade: ref vs ref is perfect, so compare perfect vs damaged
        perfect_manifest = tmp_path / "perfect.csv"
        write_manifest(
            [SubjectRecord(r.subject_id, r.site, r.ref_path, r.ref_path)
             for r in records],
            perfect_manifest,
        )
        out_perfect = tmp_path / "perfect"
        assert run("aggregate", "--manifest", perfect_manifest, "--out", out_perfect) == 0
        cmp_out = tmp_path / "cmp"
        assert run("compare", "--a", out_perfect / "per_subject.csv",
                   "--b", out_good / "per_subject.csv", "--out", cmp_out,
                   "--metrics", "dsc_vox,sen_vox") == 0
        rows = read_csv(cmp_out / "compare.csv")
        for row in rows:
            assert float(row["median_diff"]) > 0
            assert float(row["r"]) == 1.0

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject_id,region,dsc_vox\ns1,WM,notanumber\n")
        good = tmp_path / "good.csv"
        good.write_text("subject_id,region,dsc_vox\ns1,WM,0.5\n")
        code = run("compare", "--a", bad, "--b", good, "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "missing columns" in err

    def test_bad_value_diagnostic(self, tmp_path, capsys):
        header = "subject_id,region,dsc_vox,sen_vox,ppv_vox,dsc_num,sen_num,ppv_num"
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\ns1,WM,oops,0.5,0.5,0.5,0.5,0.5\n")
        code = run("compare", "--a", bad, "--b", bad, "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "dsc_vox" in err

    @pytest.mark.parametrize("text", ["inf", "-inf", "Infinity", "1.5", "-0.25", "1e300"])
    def test_value_outside_unit_interval_exit_2(self, tmp_path, capsys, text):
        rows = [(f"s{i}", "WM", [str(0.1 * i)] * len(METRICS)) for i in range(1, 5)]
        good = write_per_subject(tmp_path / "good.csv", rows)
        rows[2][2][4] = text
        bad = write_per_subject(tmp_path / "bad.csv", rows)
        assert run("compare", "--a", good, "--b", bad, "--out", tmp_path / "cmp") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {bad}: row 4, column {METRICS[4]}: {text!r} is outside [0, 1]\n")
        assert not (tmp_path / "cmp").exists()

    def test_nan_and_unit_interval_edges_accepted(self, tmp_path):
        rows = [(f"s{i}", "WM", [str(0.1 * i)] * len(METRICS)) for i in range(1, 6)]
        rows[0][2][:3] = ["nan", "0", "1"]
        a = write_per_subject(tmp_path / "a.csv", rows)
        b = write_per_subject(tmp_path / "b.csv", [
            (sid, region, [str(0.05 + 0.1 * i)] * len(METRICS))
            for i, (sid, region, _) in enumerate(rows)])
        assert run("compare", "--a", a, "--b", b, "--out", tmp_path / "cmp") == 0
        records = json.loads((tmp_path / "cmp" / "compare.json").read_text())["rows"]
        assert [r["n"] for r in records] == [4, 5, 5, 5, 5, 5]

    def test_csv_not_utf8_exit_2(self, tmp_path, capsys):
        rows = [(f"s{i}", "WM", [str(0.1 * i)] * len(METRICS)) for i in range(1, 5)]
        good = write_per_subject(tmp_path / "good.csv", rows)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(good.read_bytes().replace(b"s3", b"s\xe93"))
        assert run("compare", "--a", good, "--b", bad, "--out", tmp_path / "cmp") == 2
        offset = bad.read_bytes().index(b"\xe9")
        assert capsys.readouterr().err == (
            f"pvseval: error: {bad}: line 4: not UTF-8 text "
            f"(invalid continuation byte at byte {offset})\n")

    def test_duplicate_row_exit_2(self, tmp_path, capsys):
        header = "subject_id,region,dsc_vox,sen_vox,ppv_vox,dsc_num,sen_num,ppv_num"
        good = tmp_path / "good.csv"
        good.write_text(f"{header}\ns1,WM,0.5,0.5,0.5,0.5,0.5,0.5\n")
        dup = tmp_path / "dup.csv"
        dup.write_text(f"{header}\ns1,WM,0.5,0.5,0.5,0.5,0.5,0.5\n"
                       "s1,WM,0.7,0.5,0.5,0.5,0.5,0.5\n")
        code = run("compare", "--a", good, "--b", dup, "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert str(dup) in err and "row 3" in err and "duplicate" in err

    def test_connectivity_mismatch_exit_2(self, tmp_path, capsys):
        manifest, _ = build_cohort(tmp_path, {"A": 3})
        assert run("aggregate", "--manifest", manifest, "--out", tmp_path / "c26") == 0
        assert run("aggregate", "--manifest", manifest, "--out", tmp_path / "c6",
                   "--connectivity", "6") == 0
        code = run("compare", "--a", tmp_path / "c26" / "per_subject.csv",
                   "--b", tmp_path / "c6" / "per_subject.csv", "--out", tmp_path / "cmp")
        assert code == 2
        assert "connectivity" in capsys.readouterr().err

    @pytest.mark.parametrize("connectivity", [6, 18])
    def test_config_records_the_csvs_connectivity(self, tmp_path, connectivity):
        manifest, _ = build_cohort(tmp_path, {"A": 3})
        for name in ("a", "b"):
            assert run("aggregate", "--manifest", manifest, "--out", tmp_path / name,
                       "--connectivity", connectivity) == 0
        assert run("compare", "--a", tmp_path / "a" / "per_subject.csv",
                   "--b", tmp_path / "b" / "per_subject.csv", "--out", tmp_path / "cmp") == 0
        config = json.loads((tmp_path / "cmp" / "compare.json").read_text())["config"]
        assert config["connectivity"] == connectivity

    def test_config_keeps_its_connectivity_without_the_column(self, tmp_path):
        # per-subject CSVs with no connectivity column say nothing to record
        values = ["0.5"] * len(METRICS)
        a = write_per_subject(tmp_path / "a.csv", [("s1", "WM", values)])
        b = write_per_subject(tmp_path / "b.csv", [("s1", "WM", values)])
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({"connectivity": 18}))
        assert run("compare", "--a", a, "--b", b, "--config", config_file,
                   "--out", tmp_path / "cmp") == 0
        config = json.loads((tmp_path / "cmp" / "compare.json").read_text())["config"]
        assert config == {"fdr_q": 0.05, "out_dir": str(tmp_path / "cmp")}

    def test_connectivity_not_a_class_exit_2(self, tmp_path, capsys):
        rows = [("s1", "WM", ["0.5"] * len(METRICS))]
        paths = []
        for name in ("a", "b"):
            path = write_per_subject(tmp_path / f"{name}.csv", rows)
            with open(path, newline="") as fh:
                table = list(csv.reader(fh))
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([row + [cell] for row, cell
                                          in zip(table, ["connectivity", "8"])])
            paths.append(path)
        assert run("compare", "--a", paths[0], "--b", paths[1],
                   "--out", tmp_path / "cmp") == 2
        assert "connectivity '8'" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_rows_at_two_connectivities_exit_2(self, tmp_path, capsys):
        path = write_per_subject(tmp_path / "a.csv", [("s1", "WM", ["0.5"] * len(METRICS)),
                                                      ("s2", "WM", ["0.4"] * len(METRICS))])
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([row + [cell] for row, cell
                                      in zip(table, ["connectivity", "6", "26"])])
        assert run("compare", "--a", path, "--b", path, "--out", tmp_path / "cmp") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {path}: rows name more than one connectivity: ['26', '6']\n")
        assert not (tmp_path / "cmp").exists()

    def test_metric_named_twice_exit_2(self, tmp_path, capsys):
        # a repeat would enter the BH family twice and move every p_fdr
        rows = [(f"s{i}", "WM", [str(0.1 * i)] * len(METRICS)) for i in range(1, 5)]
        a = write_per_subject(tmp_path / "a.csv", rows)
        assert run("compare", "--a", a, "--b", a, "--out", tmp_path / "cmp",
                   "--metrics", "dsc_vox,dsc_vox,dsc_vox,sen_vox,ppv_vox") == 2
        assert capsys.readouterr().err == (
            "pvseval: error: --metrics names 'dsc_vox' more than once\n")
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("cut, cells", [(4, 4), (None, 9)])
    def test_row_of_the_wrong_width_exit_2(self, tmp_path, capsys, cut, cells):
        # a row cut after its 4th cell, as a killed write leaves it, had
        # read as 4 undefined metrics; a long row's extra cell was dropped
        rows = [(f"s{i}", "WM", [str(0.1 * i)] * len(METRICS)) for i in range(1, 5)]
        good = write_per_subject(tmp_path / "good.csv", rows)
        lines = good.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:cut]) if cut else lines[2] + ",0.5"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run("compare", "--a", good, "--b", bad, "--out", tmp_path / "cmp") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {bad}: row 3: {cells} cells, the header has 8\n")
        assert not (tmp_path / "cmp").exists()

    def test_empty_csv_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("")
        assert run("compare", "--a", a, "--b", a, "--out", tmp_path / "cmp") == 2
        assert capsys.readouterr().err == f"pvseval: error: {a}: empty CSV\n"
        assert not (tmp_path / "cmp").exists()

    def test_unknown_metric_exit_2(self, tmp_path, capsys):
        rows = [(f"s{i}", "WM", [str(0.1 * i)] * len(METRICS)) for i in range(1, 5)]
        a = write_per_subject(tmp_path / "a.csv", rows)
        assert run("compare", "--a", a, "--b", a, "--out", tmp_path / "cmp",
                   "--metrics", "dsc_vox,bogus") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: unknown metric 'bogus'; choose from {METRICS}\n")
        assert not (tmp_path / "cmp").exists()

    def test_families_agree_when_a_region_shares_no_subjects(self, tmp_path):
        """BG has no subject in both CSVs: its rows are undefined in both
        families, and WM's are the same, as BG adds no p-value to BH."""
        rng = np.random.default_rng(4)
        wm = [(f"s{i}", "WM") for i in range(8)]
        a = write_per_subject(tmp_path / "a.csv", [
            *[(sid, region, rng.random(6)) for sid, region in wm],
            *[(f"a{i}", "BG", rng.random(6)) for i in range(3)]])
        b = write_per_subject(tmp_path / "b.csv", [
            *[(sid, region, rng.random(6)) for sid, region in wm],
            *[(f"b{i}", "BG", rng.random(6)) for i in range(3)]])
        outputs = {}
        for family in ("region", "table"):
            out = tmp_path / family
            assert run("compare", "--a", a, "--b", b, "--fdr-family", family,
                       "--out", out) == 0
            outputs[family] = out
        region, table = (read_csv(out / "compare.csv") for out in outputs.values())
        assert region == table
        assert [(r["region"], r["metric"]) for r in region] == [
            (name, m) for name in ("WM", "BG") for m in METRICS]
        assert all(r["p_fdr"] for r in region[:6])
        undefined = json.loads((outputs["region"] / "compare.json").read_text())["rows"][6:]
        assert [r["method"] for r in undefined] == ["undefined"] * 6

    def test_fdr_families_group_the_keys(self, tmp_path):
        """BH runs over each region's p-values, or over all of them."""
        from pvseval.stats import bh_fdr
        rng = np.random.default_rng(6)
        rows = [(f"s{i}", region, rng.random(6)) for region in ("WM", "BG") for i in range(9)]
        a = write_per_subject(tmp_path / "a.csv", rows)
        b = write_per_subject(tmp_path / "b.csv", [
            (sid, region, np.clip(values + rng.normal(0.3 if region == "WM" else 0.0, 0.2, 6),
                                  0.0, 1.0))
            for sid, region, values in rows])
        got = {}
        for family in ("region", "table"):
            assert run("compare", "--a", a, "--b", b, "--fdr-family", family,
                       "--out", tmp_path / family) == 0
            got[family] = json.loads((tmp_path / family / "compare.json").read_text())["rows"]
        assert [r["p_raw"] for r in got["region"]] == [r["p_raw"] for r in got["table"]]
        p_raw = [r["p_raw"] for r in got["table"]]
        assert [r["p_fdr"] for r in got["table"]] == bh_fdr(p_raw)
        assert [r["p_fdr"] for r in got["region"]] == bh_fdr(p_raw[:6]) + bh_fdr(p_raw[6:])
        assert [r["p_fdr"] for r in got["region"]] != [r["p_fdr"] for r in got["table"]]

    def test_empty_region_cell_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        values = [0.5] * 6
        write_per_subject("e.csv", [("s1", "WM", values), ("s2", "", values)])
        write_per_subject("g.csv", [("s1", "WM", values), ("s2", "WM", values)])
        assert run("compare", "--a", "e.csv", "--b", "g.csv", "--out", "o") == 2
        assert capsys.readouterr().err == (
            "pvseval: error: e.csv: row 3: empty subject_id or region\n")
        write_per_subject("e.csv", [("s1", "", values)])
        assert run("compare", "--a", "e.csv", "--b", "g.csv", "--out", "o") == 2
        assert capsys.readouterr().err == (
            "pvseval: error: e.csv: row 2: empty subject_id or region\n")
        assert not (tmp_path / "o").exists()

    def test_no_region_in_common_exit_2(self, tmp_path, capsys):
        values = [0.5] * 6
        a = write_per_subject(tmp_path / "a.csv", [("s1", "WM", values)])
        b = write_per_subject(tmp_path / "b.csv", [("s1", "BG", values)])
        for family in ("region", "table"):
            assert run("compare", "--a", a, "--b", b, "--fdr-family", family,
                       "--out", tmp_path / "o") == 2
            assert capsys.readouterr().err == (
                "pvseval: error: the two reports share no region\n")
        assert not (tmp_path / "o").exists()

    def test_no_subject_in_common_exit_2(self, tmp_path, capsys):
        values = [0.5] * 6
        a = write_per_subject(tmp_path / "a.csv", [("a1", "WM", values)])
        b = write_per_subject(tmp_path / "b.csv", [("b1", "WM", values)])
        for family in ("region", "table"):
            assert run("compare", "--a", a, "--b", b, "--fdr-family", family,
                       "--out", tmp_path / "o") == 2
            assert capsys.readouterr().err == (
                "pvseval: error: reports share no subject ids\n")

    @pytest.mark.parametrize("family", ["region", "table"])
    def test_region_with_a_colon_round_trips(self, tmp_path, family):
        rng = np.random.default_rng(5)
        rows = [(f"s{i}", region, 0.9 * rng.random(6)) for region in ("L:WM", "BG")
                for i in range(6)]
        a = write_per_subject(tmp_path / "a.csv", rows)
        b = write_per_subject(tmp_path / "b.csv", [(sid, region, values + 0.1)
                                                   for sid, region, values in rows])
        out = tmp_path / "out"
        assert run("compare", "--a", a, "--b", b, "--metrics", "dsc_vox,sen_num",
                   "--fdr-family", family, "--out", out) == 0
        want = [(region, m) for region in ("L:WM", "BG") for m in ("dsc_vox", "sen_num")]
        assert [(r["region"], r["metric"]) for r in read_csv(out / "compare.csv")] == want
        records = json.loads((out / "compare.json").read_text())["rows"]
        assert [(r["region"], r["metric"]) for r in records] == want
        assert all(float(r["median_diff"]) == pytest.approx(-0.1) for r in records)


# a valid header and row of each CSV reader's input
CSV_READERS = {
    "manifest": (["subject_id", "site", "pred_path", "ref_path"], ["s1", "A", "p", "r"]),
    "per_subject": (["subject_id", "region", *METRIC_NAMES], ["s1", "WM", *["0.5"] * 6]),
}


def run_reader(reader, path, out):
    """Read `path` as a manifest (through folds) or as a per-subject CSV
    (through compare)."""
    if reader == "manifest":
        return run("folds", "--manifest", path, "--scheme", "5fcv", "--out", out)
    return run("compare", "--a", path, "--b", path, "--out", out)


class TestCsvInput:
    """Manifests and per-subject CSVs are read by one harness.read_csv, with
    one set of rules and messages."""

    @pytest.mark.parametrize("reader", CSV_READERS)
    @pytest.mark.parametrize("case", ["empty", "repeated", "missing", "width", "nul",
                                      "newline", "return"])
    def test_each_rule_has_one_message(self, tmp_path, capsys, reader, case):
        header, row = CSV_READERS[reader]
        want = {
            "empty": ([], None, "empty CSV"),
            "repeated": ([*header, header[1]], [*row, "x"],
                         f"header names {header[1:2]} more than once"),
            # in schema order, not sorted
            "missing": (header[2:], row[2:], f"missing columns {header[:2]}"),
            "width": (header, [*row, "x"],
                      f"row 2: {len(header) + 1} cells, the header has {len(header)}"),
            "nul": (header, ["s\x001", *row[1:]],
                    "row 2, column subject_id: holds a NUL byte"),
            # quoted, so the csv reader keeps it in the cell
            "newline": (header, [row[0], '"W\nM"', *row[2:]],
                        f"row 2, column {header[1]}: holds a line break"),
            "return": (header, [row[0], '"W\rM"', *row[2:]],
                       f"row 2, column {header[1]}: holds a line break"),
        }
        lines, cells, message = want[case]
        path = tmp_path / "in.csv"
        path.write_text("".join(",".join(line) + "\n" for line in (lines, cells) if line),
                        encoding="utf-8")
        assert run_reader(reader, path, tmp_path / "o") == 2
        assert capsys.readouterr().err == f"pvseval: error: {path}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("reader", CSV_READERS)
    @pytest.mark.parametrize("case", ["blank_then_short", "blank_first", "empty_file"])
    def test_blank_lines(self, tmp_path, capsys, reader, case):
        # a blank line is skipped and not counted as a row; a blank first
        # line is a header of no columns
        header, row = CSV_READERS[reader]
        lines, message = {
            "blank_then_short": ([header, row, [], row[:-1]],
                                 f"row 3: {len(header) - 1} cells, the header has {len(header)}"),
            "blank_first": ([[], header, row], f"missing columns {header}"),
            "empty_file": ([], "empty CSV"),
        }[case]
        path = tmp_path / "in.csv"
        path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
        assert run_reader(reader, path, tmp_path / "o") == 2
        assert capsys.readouterr().err == f"pvseval: error: {path}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_manifest_unknown_column_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("subject_id,site,pred_path,ref_path,extra\ns1,A,p,r,x\n")
        assert run_reader("manifest", path, tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {path}: unknown columns ['extra']\n")

    @pytest.mark.parametrize("command", ["folds", "aggregate", "compare"])
    def test_header_naming_a_column_twice_exit_2(self, tmp_path, capsys, command):
        # DictReader kept the last cell: s1 was read at site B, or at the
        # second dsc_vox column's value
        path = tmp_path / "in.csv"
        if command == "compare":
            header, row = CSV_READERS["per_subject"]
            path.write_text(f"{','.join(header)},dsc_vox\n{','.join(row)},0.9\n")
            argv, repeated = ("--a", path, "--b", path), "dsc_vox"
        else:
            path.write_text("subject_id,site,pred_path,ref_path,site\ns1,A,p,r,B\n")
            argv, repeated = ("--manifest", path, "--scheme", "losocv"), "site"
        assert run(command, *argv, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {path}: header names [{repeated!r}] more than once\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("column, cell", [
        ("subject_id", "s\x002"), ("region", "W\x00M"), ("sen_vox", "0.\x002")])
    def test_per_subject_cell_with_nul_exit_2(self, tmp_path, capsys, column, cell):
        rows = [(f"s{i}", "WM", [str(0.1 * i)] * len(METRICS)) for i in range(1, 4)]
        path = write_per_subject(tmp_path / "a.csv", rows)
        table = read_csv(path)
        table[1][column] = cell
        write_rows(path, table)
        assert run("compare", "--a", path, "--b", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {path}: row 3, column {column}: holds a NUL byte\n")
        assert not (tmp_path / "o").exists()

    def test_manifest_with_a_byte_order_mark(self, tmp_path):
        manifest, _ = build_cohort(tmp_path, {"A": 3, "B": 3})
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        specs = []
        for path in (manifest, bom):
            out = tmp_path / path.stem
            assert run("folds", "--manifest", path, "--scheme", "5fcv", "--seed", "3",
                       "--out", out) == 0
            specs.append(json.loads((out / "foldspec.json").read_text()))
            del specs[-1]["config"]
        assert specs[0] == specs[1]

    def test_per_subject_csv_with_a_byte_order_mark(self, tmp_path):
        rows = [(f"s{i}", "WM", [str(0.1 * i)] * len(METRICS)) for i in range(1, 6)]
        a = write_per_subject(tmp_path / "a.csv", rows)
        b = write_per_subject(tmp_path / "b.csv", [
            (sid, region, [str(0.05 + 0.1 * i)] * len(METRICS))
            for i, (sid, region, _) in enumerate(rows)])
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + b.read_bytes())
        for path in (b, bom):
            assert run("compare", "--a", a, "--b", path, "--out", tmp_path / path.stem) == 0
        assert ((tmp_path / "b" / "compare.csv").read_bytes()
                == (tmp_path / "bom" / "compare.csv").read_bytes())

    def test_byte_order_mark_then_bad_byte(self, tmp_path, capsys):
        # the line and the byte count from the file's first byte, the mark's
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbfsubject_id,site,pred_path,ref_path\ns1,\xff,p,r\n")
        assert run_reader("manifest", path, tmp_path / "o") == 2
        offset = path.read_bytes().index(b"\xff")
        assert capsys.readouterr().err == (
            f"pvseval: error: {path}: line 2: not UTF-8 text "
            f"(invalid start byte at byte {offset})\n")

    def test_outputs_are_utf8_whatever_the_locale(self, tmp_path):
        # under an ASCII locale, the parent wrote per_subject.csv through the
        # locale's codec: UnicodeEncodeError, exit 1, a partial file
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                              os.environ.get("PYTHONPATH", "")])}
        codec = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            env=env, capture_output=True, text=True, check=True).stdout.strip()
        if codec.lower().replace("-", "").replace("_", "") == "utf8":
            pytest.skip(f"the C locale's codec is {codec} here")
        manifest, records = build_cohort(tmp_path, {"A": 2, "B": 2})
        write_manifest([dataclasses.replace(r, subject_id=f"Zürich-{r.subject_id}",
                                            site="Zürich" if r.site == "A" else r.site)
                        for r in records], manifest)

        def pvseval(*argv):
            return subprocess.run(
                [sys.executable, "-c", "import sys; from pvseval.cli import main; "
                                       "sys.exit(main(sys.argv[1:]))", *map(str, argv)],
                env=env, capture_output=True, text=True)

        proc = pvseval("aggregate", "--manifest", manifest, "--per-site", "--out", tmp_path / "o")
        assert (proc.returncode, proc.stderr) == (0, "")
        per_subject = tmp_path / "o" / "per_subject.csv"
        assert "Zürich-A00" in per_subject.read_bytes().decode("utf-8")
        assert "Zürich" in (tmp_path / "o" / "aggregate.csv").read_bytes().decode("utf-8")
        proc = pvseval("compare", "--a", per_subject, "--b", per_subject,
                       "--out", tmp_path / "cmp")
        assert (proc.returncode, proc.stderr) == (0, "")


class TestContrastCommand:
    def test_contrast_output(self, phantom_files, tmp_path):
        root = phantom_files["root"]
        assert run("contrast", "--image", root / "image.nii.gz",
                   "--mask", root / "truth.nii.gz", "--out", tmp_path,
                   "--modality", "T2w") == 0
        row = read_csv(tmp_path / "contrast.csv")[0]
        assert row["mode"] == "global"
        assert row["modality"] == "T2w"
        assert abs(float(row["abs_contrast"]) - 6.0) < 1.0

    def test_per_cluster_mode(self, phantom_files, tmp_path):
        root = phantom_files["root"]
        assert run("contrast", "--image", root / "image.nii.gz",
                   "--mask", root / "truth.nii.gz", "--out", tmp_path,
                   "--mode", "per_cluster") == 0
        row = read_csv(tmp_path / "contrast.csv")[0]
        assert row["mode"] == "per_cluster"
        assert abs(float(row["abs_contrast"]) - 6.0) < 1.5

    @pytest.mark.parametrize("mode", ["global", "per_cluster"])
    def test_empty_mask_exit_2(self, tmp_path, capsys, mode):
        inputs = Path(__file__).parent / "golden" / "inputs"
        assert run("contrast", "--image", inputs / "image.nii.gz",
                   "--mask", inputs / "empty.nii.gz", "--mode", mode,
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "pvseval: error: contrast needs a non-empty mask\n"
        assert not (tmp_path / "o").exists()

    def test_strict_grid_compares_image(self, phantom_files, tmp_path, capsys):
        root, truth = phantom_files["root"], phantom_files["truth"]
        affine = np.array(truth.affine)
        affine[1, 3] += 50.0
        write_volume(BinaryMask(truth.data, truth.spacing, affine),
                     tmp_path / "shifted.nii.gz", datatype=2)
        args = ("contrast", "--image", root / "image.nii.gz",
                "--mask", tmp_path / "shifted.nii.gz", "--out", tmp_path)
        assert run(*args) == 0
        assert run(*args, "--strict-grid") == 2
        assert "affines" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["global", "per_cluster"])
    def test_nan_image_voxel_exit_2(self, phantom_files, tmp_path, capsys, mode):
        root, truth = phantom_files["root"], phantom_files["truth"]
        stored = read_nifti_grid(root / "image.nii.gz")
        stored[tuple(np.argwhere(truth.data)[0])] = np.nan  # a mask voxel
        image = write_nifti(tmp_path / "nan.nii.gz", stored, 64, affine=truth.affine)
        assert run("contrast", "--image", image, "--mask", root / "truth.nii.gz",
                   "--mode", mode, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            "pvseval: error: image is NaN or infinite at 1 of the mask and ring voxels\n")
        assert not (tmp_path / "o").exists()

    def test_infinite_slope_exit_2(self, phantom_files, tmp_path, capsys):
        # after scaling, every value the contrast reads is infinite or NaN
        root, truth = phantom_files["root"], phantom_files["truth"]
        image = write_nifti(tmp_path / "inf.nii", read_nifti_grid(root / "image.nii.gz"), 64,
                            slope=math.inf, affine=truth.affine)
        assert run("contrast", "--image", image, "--mask", root / "truth.nii.gz",
                   "--out", tmp_path / "o") == 2
        read = truth.foreground_count + shell(truth, 26).foreground_count
        assert capsys.readouterr().err == (
            f"pvseval: error: image is NaN or infinite at {read} of the mask and ring voxels\n")

    @pytest.mark.parametrize("mode", ["global", "per_cluster"])
    def test_64_bit_image_beyond_2_53_exit_2(self, phantom_files, tmp_path, capsys, mode):
        root, truth = phantom_files["root"], phantom_files["truth"]
        stored = np.zeros(truth.dims, dtype=np.int64)
        stored[0, 0, 0] = 2**53 + 1  # on neither the mask nor its ring
        image = write_nifti(tmp_path / "image64.nii", stored, 1024, affine=truth.affine)
        assert run("contrast", "--image", image, "--mask", root / "truth.nii.gz",
                   "--out", tmp_path / "o", "--mode", mode) == 2
        assert f"{image}: voxel value {2**53 + 1} is beyond 2**53" in capsys.readouterr().err
        assert not (tmp_path / "o" / "contrast.csv").exists()


class TestContrastGather:
    """contrast gathers the image at the mask and ring voxels only; its
    output equals contrast_stat on the dense read, in both modes."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("gather")
        image, truth, _ = generate(PhantomSpec(dims=(30, 26, 22), n_tubes=4,
                                               length_range=(6.0, 12.0), seed=9))
        rng = np.random.default_rng(9)
        wide = image.data * 10.0 ** rng.integers(-4, 5, image.dims)
        write_nifti(root / "f64.nii.gz", wide, 64, affine=image.affine)
        write_nifti(root / "f32.nii", wide, 16, affine=image.affine, members=1)
        write_nifti(root / "f32be.nii.gz", wide, 16, ">", 2.0, -1.0, affine=image.affine,
                    members=2)
        write_nifti(root / "i16.nii.gz", np.round(image.data * 100), 4, "<", 0.01, -3.5,
                    affine=image.affine)
        write_nifti(root / "i16be.nii", np.round(image.data * 100), 4, ">", 0.01, 2.0,
                    affine=image.affine)
        speckle = truth.data | (rng.random(truth.dims) < 0.01)
        write_volume(BinaryMask(speckle, truth.spacing, truth.affine), root / "mask.nii.gz",
                     datatype=2)
        return root

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    @pytest.mark.parametrize("mode", ["global", "per_cluster"])
    @pytest.mark.parametrize("image", ["f64.nii.gz", "f32.nii", "f32be.nii.gz",
                                       "i16.nii.gz", "i16be.nii"])
    def test_equals_contrast_of_the_dense_read(self, files, tmp_path, image, mode,
                                               connectivity):
        assert run("contrast", "--image", files / image, "--mask", files / "mask.nii.gz",
                   "--mode", mode, "--connectivity", connectivity, "--out", tmp_path) == 0
        row = read_csv(tmp_path / "contrast.csv")[0]
        stat = contrast_stat if mode == "global" else contrast_stat_per_cluster
        mask = read_volume(files / "mask.nii.gz")
        dense = Volume3D(read_nifti_grid(files / image), mask.spacing, mask.affine)
        want = stat(dense, mask, connectivity)
        got = tuple(float(row[k]) for k in ("mask_mean", "shell_mean", "abs_contrast"))
        assert got == want

    def test_mask_on_another_grid(self, files, tmp_path, capsys):
        data = np.zeros((30, 26, 23), bool)
        data[5:8, 5:8, 5:8] = True
        write_volume(BinaryMask(data, (1, 1, 1), np.eye(3, 4)), tmp_path / "m.nii.gz",
                     datatype=2)
        assert run("contrast", "--image", files / "f32.nii", "--mask", tmp_path / "m.nii.gz",
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {files / 'f32.nii'}: grid mismatch: (30, 26, 22) vs (30, 26, 23)\n")
        assert not (tmp_path / "o").exists()

    def test_strict_grid_compares_the_image_header(self, files, tmp_path, capsys):
        mask = read_volume(files / "mask.nii.gz")
        affine = np.array(mask.affine)
        affine[0, 3] += 1e-3
        write_volume(BinaryMask(mask.data, mask.spacing, affine), tmp_path / "m.nii.gz",
                     datatype=2)
        args = ("contrast", "--image", files / "f64.nii.gz", "--mask", tmp_path / "m.nii.gz")
        assert run(*args, "--out", tmp_path / "lenient") == 0
        assert run(*args, "--strict-grid", "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (f"pvseval: error: {files / 'f64.nii.gz'}: "
                                           "affines differ beyond 1e-4 in strict grid mode\n")

    @pytest.mark.parametrize("kind", ["truncated", "crc", "junk"])
    def test_damaged_image_exits_2_and_names_it(self, files, tmp_path, capsys, kind):
        bad = tmp_path / "bad.nii.gz"
        shutil.copy(files / "f64.nii.gz", bad)
        if kind == "junk":
            bad.write_bytes(bad.read_bytes() + b"junk")
        else:
            damage(bad, kind)
        assert run("contrast", "--image", bad, "--mask", files / "mask.nii.gz",
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith(f"pvseval: error: {bad}: ")
        assert not (tmp_path / "o").exists()

    def test_peak_memory_well_below_the_float64_image(self, tmp_path):
        # a 4 MB float32 image: its float64 grid alone would be 8 MB
        rng = np.random.default_rng(10)
        dims = (100, 100, 100)
        path = tmp_path / "image.nii.gz"
        write_volume(Volume3D(rng.normal(size=dims).astype(np.float32), (1, 1, 1),
                              np.eye(3, 4)), path, datatype=16)
        write_volume(BinaryMask(rng.random(dims) < 0.0005, (1, 1, 1), np.eye(3, 4)),
                     tmp_path / "mask.nii.gz", datatype=2)
        for mode in ("global", "per_cluster"):
            tracemalloc.start()
            try:
                code = run("contrast", "--image", path, "--mask", tmp_path / "mask.nii.gz",
                           "--mode", mode, "--out", tmp_path / mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 8 * np.prod(dims) / 2, (mode, peak)


class TestClustersCommand:
    def test_sizes_and_histogram(self, phantom_files, tmp_path):
        root = phantom_files["root"]
        labels_path = tmp_path / "labels.nii.gz"
        assert run("clusters", "--mask", root / "truth.nii.gz", "--out", tmp_path,
                   "--log-binning", "--save-labels", labels_path) == 0
        sizes = read_csv(tmp_path / "cluster_sizes.csv")
        assert len(sizes) == 4
        hist = read_csv(tmp_path / "size_histogram.csv")
        assert abs(sum(float(r["density"]) for r in hist) - 1.0) < 1e-12
        bins = json.loads((tmp_path / "clusters.json").read_text())["histogram"]
        assert [(float(r["bin_lo"]), float(r["bin_hi"])) for r in hist] == [
            (b["lo"], b["hi"]) for b in bins]
        assert read_nifti_grid(labels_path).max() == 4

    def test_empty_mask(self, tmp_path):
        from conftest import make_mask
        write_volume(make_mask(np.zeros((8, 8, 8), bool)), tmp_path / "e.nii", datatype=2)
        assert run("clusters", "--mask", tmp_path / "e.nii", "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "clusters.json").read_text())
        assert payload["component_count"] == 0

    def test_save_labels_holds_no_label_grid(self, tmp_path):
        """On a 182x218x182 sparse phantom, the label map is written from its
        index: the call peaks below a quarter of the 28.9 MB int32 grid (the
        grid alone was ~29.5 MB), and the file holds exactly that grid."""
        dims = (182, 218, 182)
        _, truth, count = generate(PhantomSpec(dims=dims, n_tubes=40, seed=3))
        write_volume(truth, tmp_path / "m.nii.gz", datatype=2)
        labels_path = tmp_path / "labels.nii.gz"
        tracemalloc.start()
        try:
            assert run("clusters", "--mask", tmp_path / "m.nii.gz", "--out", tmp_path / "o",
                       "--save-labels", labels_path) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * np.prod(dims) / 4
        saved = read_nifti_grid(labels_path)
        lm = label_components(truth)
        assert lm.component_count == count
        assert np.array_equal(saved, lm.data)

    def test_empty_mask_saves_an_all_zero_label_map(self, tmp_path):
        dims = (182, 218, 182)
        empty = BinaryMask.from_index(np.array([], dtype=np.int64), dims, (1, 1, 1), np.eye(3, 4))
        write_volume(empty, tmp_path / "e.nii.gz", datatype=2)
        labels_path = tmp_path / "labels.nii.gz"
        assert run("clusters", "--mask", tmp_path / "e.nii.gz", "--out", tmp_path,
                   "--save-labels", labels_path) == 0
        raw = gzip.decompress(labels_path.read_bytes())
        assert len(raw) == 352 + 4 * np.prod(dims) and not any(raw[352:])
        saved = read_nifti_grid(labels_path)
        assert saved.shape == dims and saved.max() == 0


# -- clusters outputs, byte for byte against the scalar path --------------------

def clusters_reference(sizes, voxel_mm3, log_binning, config):
    """{file name: bytes} of what clusters writes, rendered the scalar way:
    bins as dicts, json.dumps(indent=2, sort_keys=True), and csv.writer over
    repr/str cells."""
    def csv_bytes(header, rows):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode()

    files = {"cluster_sizes.csv": csv_bytes(
        ("cluster_id", "size_voxels", "size_mm3"),
        [(str(cid), str(size), repr(size * voxel_mm3))
         for cid, size in enumerate(sizes, start=1)])}
    payload = {"component_count": len(sizes), "connectivity": config["connectivity"],
               "sizes_voxels": sizes, "config": config}
    if sizes:
        if log_binning:
            counts = Counter(s.bit_length() - 1 for s in sizes)
            edges = [(2.0**i, 2.0 ** (i + 1), counts[i])
                     for i in range(max(sizes).bit_length())]
        else:
            counts = Counter(sizes)
            edges = [(float(v), float(v + 1), counts[v])
                     for v in range(min(sizes), max(sizes) + 1)]
        bins = [{"lo": lo, "hi": hi, "count": n, "density": n / len(sizes)}
                for lo, hi, n in edges]
        payload["histogram"] = bins
        files["size_histogram.csv"] = csv_bytes(
            ("bin_lo", "bin_hi", "count", "density"),
            [(repr(b["lo"]), repr(b["hi"]), str(b["count"]), repr(b["density"])) for b in bins])
    files["clusters.json"] = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    return files


SPACING = (0.8, 1.0, 1.25)
# the spacing as the header stores it, float32
VOXEL_MM3 = math.prod(float(np.float32(v)) for v in SPACING)


def bars_mask(path, sizes):
    """One x-bar per size, every other y-line, so the bars are disjoint
    clusters at any connectivity, numbered in the order given."""
    data = np.zeros((max(sizes, default=1), 2 * len(sizes) + 1, 1), bool)
    for j, size in enumerate(sizes):
        data[:size, 2 * j, 0] = True
    write_volume(BinaryMask(data, SPACING, np.diag([*SPACING, 1.0])[:3]), path, datatype=2)
    return path


def assert_clusters_bytes(out, sizes, log_binning, connectivity=26):
    config = {"connectivity": connectivity, "out_dir": str(out)}
    want = clusters_reference(sizes, VOXEL_MM3, log_binning, config)
    assert sorted(p.name for p in Path(out).iterdir()) == sorted(want)
    for name, blob in want.items():
        assert (Path(out) / name).read_bytes() == blob, name


@pytest.fixture
def no_workers_env(monkeypatch):
    monkeypatch.delenv("PVSEVAL_WORKERS", raising=False)


@pytest.mark.usefixtures("no_workers_env")
class TestClustersBytes:
    @pytest.mark.parametrize("log_binning", [False, True], ids=["linear", "log"])
    @pytest.mark.parametrize("sizes", [[5], [], [3, 1, 4, 1, 5, 9, 2, 6]],
                             ids=["one_bin", "empty", "mixed"])
    def test_mask(self, tmp_path, sizes, log_binning):
        mask = bars_mask(tmp_path / "m.nii.gz", sizes)
        flags = ["--log-binning"] if log_binning else []
        assert run("clusters", "--mask", mask, "--out", tmp_path / "out", *flags) == 0
        assert_clusters_bytes(tmp_path / "out", sizes, log_binning)
        if not sizes:
            payload = json.loads((tmp_path / "out" / "clusters.json").read_text())
            assert "histogram" not in payload

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=12), st.booleans(),
           st.sampled_from([6, 18, 26]))
    def test_drawn_sizes(self, sizes, log_binning, connectivity):
        with tempfile.TemporaryDirectory() as tmp:
            mask = bars_mask(Path(tmp) / "m.nii", sizes)
            out = Path(tmp) / "out"
            flags = ["--log-binning"] if log_binning else []
            assert run("clusters", "--mask", mask, "--out", out,
                       "--connectivity", connectivity, *flags) == 0
            assert_clusters_bytes(out, sizes, log_binning, connectivity)

    @pytest.mark.parametrize("log_binning", [False, True], ids=["linear", "log"])
    def test_out_path_holding_the_histogram_key(self, tmp_path, log_binning):
        # the splice anchor, with and without its newline, inside the config's out_dir
        out = tmp_path / '"histogram": []\n  "histogram": '
        mask = bars_mask(tmp_path / "m.nii.gz", [2, 7, 2])
        flags = ["--log-binning"] if log_binning else []
        assert run("clusters", "--mask", mask, "--out", out, *flags) == 0
        assert_clusters_bytes(out, [2, 7, 2], log_binning)

    def test_powers_of_two_up_to_2_40(self, tmp_path, monkeypatch):
        # sizes no test mask can hold: only the labeling is replaced
        sizes = [2**k for k in range(41)] + [2**k - 1 for k in range(1, 41)]
        labels = SimpleNamespace(component_sizes=np.array(sizes, np.int64),
                                 component_count=len(sizes), connectivity=26)
        monkeypatch.setattr(cli, "label_components", lambda mask, connectivity: labels)
        mask = bars_mask(tmp_path / "m.nii", [1])
        assert run("clusters", "--mask", mask, "--out", tmp_path / "out", "--log-binning") == 0
        assert_clusters_bytes(tmp_path / "out", sizes, True)


@given(st.lists(st.tuples(st.integers(0, 2**62), st.floats(allow_nan=False,
                                                            allow_infinity=False)),
                max_size=20))
def test_json_columns_lay_out_as_json_dumps(records):
    """Any finite floats and ints, 5e-324 and 1e16 among them."""
    records += [(3, 5e-324), (2**53 + 1, 1e16), (0, 1 / 3), (7, -0.0)]
    ints = np.array([i for i, _ in records], np.int64)
    floats = np.array([f for _, f in records], np.float64)
    cfg = {"connectivity": 26, "out_dir": 'x\n  "rows": []'}
    payload = {"a": 1, "zz": [1.5]}
    want = json.dumps({**payload, "rows": [{"n": i, "v": f} for i, f in records],
                       "config": cfg}, indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        cli._write_json(path, payload, cfg,
                        ("rows", {"v": cli._texts(floats), "n": cli._texts(ints)}))
        assert path.read_text() == want


class TestPhantomCommand:
    def test_deterministic_outputs(self, tmp_path):
        out = tmp_path / "p"
        args = ("phantom", "--out", out, "--dims", "32,32,32", "--n-tubes", "3",
                "--seed", "9", "--perturb", "delete_fraction:0.5")
        assert run(*args) == 0
        snapshot = {
            name: (out / name).read_bytes()
            for name in ("image.nii.gz", "truth.nii.gz", "pred.nii.gz",
                         "phantom_spec.json")
        }
        shutil.rmtree(out)
        assert run(*args) == 0
        for name, blob in snapshot.items():
            assert (out / name).read_bytes() == blob, name

    def test_phantom_then_metrics(self, tmp_path):
        out = tmp_path / "p"
        assert run("phantom", "--out", out, "--dims", "32,32,32",
                   "--n-tubes", "2", "--seed", "3",
                   "--perturb", "drop_clusters:1") == 0
        mout = tmp_path / "m"
        assert run("metrics", "--pred", out / "pred.nii.gz",
                   "--ref", out / "truth.nii.gz", "--out", mout) == 0
        row = read_csv(mout / "metrics.csv")[0]
        assert float(row["sen_num"]) == pytest.approx(0.5, abs=1e-15)
        assert float(row["ppv_num"]) == 1.0

    @pytest.mark.parametrize("conn", [6, 18])
    def test_connectivity_reaches_perturbation(self, tmp_path, conn):
        out = tmp_path / "p"
        assert run("phantom", "--out", out, "--dims", "24,24,24", "--n-tubes", "2",
                   "--seed", "4", "--perturb", "dilate_once",
                   "--connectivity", conn) == 0
        truth = read_volume(out / "truth.nii.gz")
        pred = read_volume(out / "pred.nii.gz")
        assert np.array_equal(pred.data, brute_dilate(truth.data, conn))
        payload = json.loads((out / "phantom_spec.json").read_text())
        assert payload["perturbation"]["connectivity"] == conn
        assert payload["config"]["connectivity"] == conn

    def test_bad_perturb_exit_2(self, tmp_path, capsys):
        code = run("phantom", "--out", tmp_path, "--perturb", "explode:1")
        assert code == 2
        assert "unknown perturbation" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (("--n-tubes", "2", "--perturb", "delete_fraction:1.5"), "fraction 1.5 outside [0, 1]"),
        (("--n-tubes", "1", "--perturb", "drop_clusters:3"), "cannot drop 3 of 1 clusters"),
    ])
    def test_perturbation_rejected_before_any_write(self, tmp_path, capsys, args, message):
        out = tmp_path / "p"
        assert run("phantom", "--dims", "24,24,24", *args, "--out", out) == 2
        assert capsys.readouterr().err == f"pvseval: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (("--perturb", "delete_fraction:abc"), "--perturb delete_fraction"),
        (("--perturb", "drop_clusters:x"), "--perturb drop_clusters"),
        (("--radius-range", "1,x"), "--radius-range"),
        (("--length-range", "x,1"), "--length-range"),
    ])
    def test_number_that_does_not_parse_exit_2(self, tmp_path, capsys, args, flag):
        out = tmp_path / "p"
        assert run("phantom", "--out", out, "--dims", "16,16,16", "--n-tubes", "1", *args) == 2
        assert capsys.readouterr().err.startswith(f"pvseval: error: {flag}: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--dims", "1,2", "--dims expects three comma-separated values, got '1,2'"),
        ("--radius-range", "1", "--radius-range expects lo,hi, got '1'"),
    ])
    def test_wrong_number_of_values_exit_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "p"
        assert run("phantom", "--out", out, flag, value) == 2
        assert capsys.readouterr().err == f"pvseval: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (("--dims", "1.5,2,3"), "--dims: invalid literal for int() with base 10: '1.5'"),
        (("--perturb", "bogus"), "unknown perturbation 'bogus'"),
        (("--perturb", "delete_fraction"),
         "--perturb delete_fraction: could not convert string to float: ''"),
        (("--perturb", "translate"),
         "--perturb translate expects three comma-separated values, got ''"),
        (("--perturb", "drop_clusters:x"),
         "--perturb drop_clusters: invalid literal for int() with base 10: 'x'"),
    ])
    def test_value_that_does_not_parse_message(self, tmp_path, capsys, args, message):
        out = tmp_path / "p"
        assert run("phantom", "--out", out, *args) == 2
        assert capsys.readouterr().err == f"pvseval: error: {message}\n"
        assert not out.exists()

    def test_scalar_flag_is_typed_by_argparse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            run("phantom", "--out", tmp_path / "p", "--n-tubes", "x")
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            "pvseval phantom: error: argument --n-tubes: invalid int value: 'x'\n")
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--length-range", "0,5", "bad length range (0.0, 5.0)"),
        ("--bend-amplitude", "-1", "bend_amplitude must be >= 0"),
        ("--bg-sd", "-1", "bg_sd must be >= 0"),
        ("--dims", "4,64,64", "grid too small for tubes: (4, 64, 64)"),
    ])
    def test_spec_rejected_before_any_write(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "p"
        assert run("phantom", "--out", out, f"{flag}={value}") == 2
        assert capsys.readouterr().err == f"pvseval: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--clearance", "nan", "clearance"),
        ("--offset", "nan", "tube_offset"),
        ("--bg-mean", "inf", "bg_mean"),
        ("--radius-range", "1,nan", "radius_range"),
        ("--bend-amplitude", "nan", "bend_amplitude"),
        ("--length-range", "inf,inf", "length_range"),
        ("--spacing", "nan,1,1", "spacing"),
        ("--bg-sd", "inf", "bg_sd"),
    ])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, flag, value, field):
        # at --clearance nan no placement was ever rejected: the spec claimed
        # 8 clusters over a truth mask of 5
        out = tmp_path / "p"
        assert run("phantom", "--out", out, "--dims", "32,32,32", "--n-tubes", "8",
                   "--seed", "3", f"{flag}={value}") == 2
        assert capsys.readouterr().err.startswith(f"pvseval: error: {field} must be finite")
        assert not out.exists()


class TestFoldsCommand:
    def test_folds_json(self, tmp_path):
        manifest, records = build_cohort(tmp_path, {"A": 3, "B": 3})
        out = tmp_path / "f"
        assert run("folds", "--manifest", manifest, "--scheme", "losocv",
                   "--out", out) == 0
        payload = json.loads((out / "foldspec.json").read_text())
        assert payload["scheme"] == "losocv"
        assert set(payload["assignments"].values()) == {"A", "B"}

    def test_config_file_merged_under_flags(self, tmp_path):
        manifest, _ = build_cohort(tmp_path, {"A": 2})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"connectivity": 6, "workers": 2}))
        out = tmp_path / "o"
        assert run("aggregate", "--manifest", manifest, "--out", out,
                   "--config", cfg, "--connectivity", "18") == 0
        payload = json.loads((out / "aggregate.json").read_text())
        assert payload["config"]["connectivity"] == 18  # flag wins
        assert payload["config"]["workers"] == 2  # file fills the gap

    @pytest.mark.parametrize("key", ["units", "degenerate_policy"])
    def test_removed_config_key_rejected(self, tmp_path, capsys, key):
        manifest, _ = build_cohort(tmp_path, {"A": 2})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "voxels" if key == "units" else "exclude"}))
        code = run("folds", "--manifest", manifest, "--scheme", "5fcv",
                   "--config", cfg, "--out", tmp_path / "o")
        assert code == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_workers_env_default(self, tmp_path, monkeypatch):
        manifest, _ = build_cohort(tmp_path, {"A": 2})
        monkeypatch.setenv("PVSEVAL_WORKERS", "2")
        out = tmp_path / "o"
        assert run("aggregate", "--manifest", manifest, "--out", out) == 0
        payload = json.loads((out / "aggregate.json").read_text())
        assert payload["config"]["workers"] == 2


class TestConfigTypes:
    """A config value must already have its field's JSON type, and
    PVSEVAL_WORKERS must be an integer: bad input exits 2, never coerced."""

    @pytest.fixture
    def manifest(self, tmp_path):
        return build_cohort(tmp_path, {"A": 2})[0]

    def test_workers_env_not_an_integer(self, manifest, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PVSEVAL_WORKERS", "abc")
        assert run("folds", "--manifest", manifest, "--scheme", "5fcv",
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            "pvseval: error: PVSEVAL_WORKERS must be an integer, got 'abc'\n")

    @pytest.mark.parametrize("key, value, want", [
        ("strict_grid", "false", "true or false"),
        ("strict_grid", 0, "true or false"),
        ("connectivity", 6.9, "an integer"),
        ("connectivity", True, "an integer"),
        ("workers", "2", "an integer"),
        ("fdr_q", "0.1", "a number"),
        ("fdr_q", False, "a number"),
        ("out_dir", 5, "a string"),
    ])
    def test_value_of_the_wrong_type(self, manifest, tmp_path, capsys, key, value, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run("folds", "--manifest", manifest, "--scheme", "5fcv", "--config", cfg,
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {cfg}: config key {key!r} must be {want}, "
            f"got {json.dumps(value)}\n")
        assert not (tmp_path / "o").exists()

    def test_values_of_the_right_type(self, manifest, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strict_grid": False, "connectivity": 6, "workers": 2,
                                   "fdr_q": 0.1}))
        out = tmp_path / "o"
        assert run("folds", "--manifest", manifest, "--scheme", "5fcv", "--config", cfg,
                   "--out", out) == 0
        # accepted, and dropped: folds reads none of them
        config = json.loads((out / "foldspec.json").read_text())["config"]
        assert config == {"out_dir": str(out)}

    @pytest.mark.parametrize("argv, config, message", [
        (("folds", "--scheme", "5fcv"), {"connectivity": 7},
         "connectivity must be one of (6, 18, 26)"),
        # folds does not read fdr_q, but a value the file gives is checked all the same
        (("folds", "--scheme", "5fcv"), {"fdr_q": 1.5}, "fdr q must lie in (0, 1)"),
        (("aggregate", "--workers", "0"), {}, "workers must be >= 1"),
        (("folds", "--scheme", "5fcv"), {"fdr_q": 0}, "fdr q must lie in (0, 1)"),
        (("folds", "--scheme", "5fcv"), {"fdr_q": 1}, "fdr q must lie in (0, 1)"),
    ])
    def test_value_out_of_range(self, manifest, tmp_path, capsys, argv, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run(*argv, "--manifest", manifest, "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == f"pvseval: error: {message}\n"
        assert not out.exists()

    def test_config_not_utf8_exit_2(self, manifest, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(b'{\n  "out_dir": "\xff"\n}\n')
        assert run("folds", "--manifest", manifest, "--scheme", "5fcv",
                   "--config", config) == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {config}: line 2: not UTF-8 text "
            f"(invalid start byte at byte 16)\n")

    def test_config_with_a_byte_order_mark(self, manifest, tmp_path):
        # as a spreadsheet's or an editor's "UTF-8 with BOM" save writes it
        config = tmp_path / "c.json"
        out = tmp_path / "o"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"out_dir": str(out)}).encode())
        assert run("folds", "--manifest", manifest, "--scheme", "5fcv",
                   "--config", config) == 0
        assert json.loads((out / "foldspec.json").read_text())["config"] == {
            "out_dir": str(out)}

    def test_config_path_with_nul_exit_2(self, manifest, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "a\x00b")}))
        assert run("folds", "--manifest", manifest, "--scheme", "5fcv",
                   "--config", config) == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {config}: config key 'out_dir' holds a NUL byte\n")

    def test_config_not_an_object(self, manifest, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run("folds", "--manifest", manifest, "--scheme", "5fcv", "--config", cfg,
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"pvseval: error: {cfg}: config must be a JSON object\n")


# the settings each command reads, and so the keys of its JSON `config` block
CONFIG_ROWS = {
    "metrics": {"connectivity", "strict_grid", "out_dir"},
    "aggregate": {"connectivity", "strict_grid", "out_dir", "workers"},
    "compare": {"fdr_q", "out_dir"},
    "contrast": {"connectivity", "strict_grid", "out_dir"},
    "clusters": {"connectivity", "out_dir"},
    "phantom": {"connectivity", "out_dir"},
    "folds": {"out_dir"},
}
# every setting away from its default; one file serves every command
SHARED_CONFIG = {"connectivity": 6, "strict_grid": True, "workers": 2, "fdr_q": 0.1,
                 "out_dir": "never-written"}


@pytest.fixture(scope="module")
def command_argv(tmp_path_factory, phantom_files):
    """command -> its inputs; compare's CSVs were computed at connectivity 18."""
    root = tmp_path_factory.mktemp("rows")
    manifest, _ = build_cohort(root, {"A": 2, "B": 2})
    assert run("aggregate", "--manifest", manifest, "--connectivity", 18,
               "--out", root / "agg") == 0
    vols = phantom_files["root"]
    return {
        "metrics": ["--pred", vols / "half.nii.gz", "--ref", vols / "truth.nii.gz"],
        "aggregate": ["--manifest", manifest],
        "compare": ["--a", root / "agg" / "per_subject.csv",
                    "--b", root / "agg" / "per_subject.csv"],
        "contrast": ["--image", vols / "image.nii.gz", "--mask", vols / "truth.nii.gz"],
        "clusters": ["--mask", vols / "truth.nii.gz"],
        "phantom": ["--dims", "16,16,16", "--n-tubes", "1"],
        "folds": ["--manifest", manifest, "--scheme", "5fcv"],
    }


@pytest.mark.parametrize("command", sorted(CONFIG_ROWS))
def test_config_block_is_the_commands_row(command_argv, tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SHARED_CONFIG))
    out = tmp_path / "out"
    assert run(command, *command_argv[command], "--config", cfg, "--out", out) == 0
    want = {key: SHARED_CONFIG[key] for key in CONFIG_ROWS[command]}
    want["out_dir"] = str(out)
    if command == "compare":
        want["connectivity"] = 18  # what its CSVs name, not the file's 6
    written = sorted(out.glob("*.json"))
    assert written
    for path in written:
        assert json.loads(path.read_text())["config"] == want, path.name


@pytest.mark.parametrize("argv", [
    ["folds", "--manifest", "m.csv", "--scheme", "5fcv"],
    ["clusters", "--mask", "m.nii"],
    ["compare", "--a", "a.csv", "--b", "b.csv"],
    ["phantom"],
], ids=["folds", "clusters", "compare", "phantom"])
def test_strict_grid_rejected_where_no_grids_compared(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--strict-grid", "--out", tmp_path / "o")
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict-grid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,flag", [
    (["metrics", "--pred", "p.nii", "--ref", "r.nii"], "--workers"),
    (["contrast", "--image", "i.nii", "--mask", "m.nii"], "--workers"),
    (["clusters", "--mask", "m.nii"], "--workers"),
    (["phantom"], "--workers"),
    (["compare", "--a", "a.csv", "--b", "b.csv"], "--workers"),
    (["folds", "--manifest", "m.csv", "--scheme", "5fcv"], "--workers"),
    (["compare", "--a", "a.csv", "--b", "b.csv"], "--connectivity"),
    (["folds", "--manifest", "m.csv", "--scheme", "5fcv"], "--connectivity"),
], ids=["metrics-workers", "contrast-workers", "clusters-workers", "phantom-workers",
        "compare-workers", "folds-workers", "compare-connectivity", "folds-connectivity"])
def test_flag_rejected_where_unused(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(*argv, flag, "6", "--out", tmp_path / "o")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 6" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# -- every CSV mirrors its JSON ------------------------------------------------

METRICS = ("dsc_vox", "sen_vox", "ppv_vox", "dsc_num", "sen_num", "ppv_num")
# a subject id and a modality that need CSV quoting: comma, quote, newline
AWKWARD = 'sub,01 "x"\nT2'


def same(*names):
    return {name: (name,) for name in names}


SUMMARY = (("mean", "mean"), ("sd", "sd"), ("n", "n_used"))


def summary(prefix, path, cells=SUMMARY):
    return {f"{prefix}_{suffix}": (*path, key) for suffix, key in cells}


SUBJECT_MAP = same("subject_id", "region", "connectivity", *METRICS,
                   "vol_manual_vox", "vol_algo_vox", "vol_overlap_vox",
                   "n_manual", "n_algo", "n_manual_hit", "n_algo_hit", "degenerate_flags")
SUBJECT_KEYS = {*SUBJECT_MAP, "vol_manual_mm3", "vol_algo_mm3"}
AGGREGATE_MAP = {
    **same("region", "site", "scheme", "n_subjects"),
    **{col: path for m in METRICS for col, path in summary(
        m, ("metrics", m), SUMMARY + (("excluded", "n_excluded"),)).items()},
    **same("r_vox", "r_vox_mm3", "r_num"),
}
AGGREGATE_KEYS = {"region", "site", "scheme", "n_subjects", "metrics",
                  "r_vox", "r_vox_mm3", "r_num"}
LOSOCV_MAP = {**same("region", "metric"),
              **summary("A", ("external", "A")), **summary("B", ("external", "B")),
              **summary("C", ("external", "C")), **summary("average", ("average",))}
COMPARE_MAP = {**same("region", "metric", "n", "median_a", "median_b", "median_diff", "p_fdr"),
               "sig": ("significant",), "r": ("rank_biserial",), **same("n_pairs", "method")}
COMPARE_KEYS = {"region", "metric", "n", "n_pairs", "median_a", "median_b", "median_diff",
                "w_plus", "w_minus", "p_raw", "p_fdr", "significant", "rank_biserial",
                "method"}
CONTRAST_MAP = same("subject_id", "modality", "mask_mean", "shell_mean", "abs_contrast",
                    "mode")
HISTOGRAM_MAP = {"bin_lo": ("lo",), "bin_hi": ("hi",), **same("count", "density")}
HISTOGRAM_KEYS = {"lo", "hi", "count", "density"}
FAILURE_MAP = same("subject_id", "site", "error", "message")

# case -> (run, csv file, json file, json key, column map, json record keys)
MIRRORS = {
    "metrics": ("metrics", "metrics.csv", "metrics.json", "records",
                SUBJECT_MAP, SUBJECT_KEYS),
    "per_subject": ("aggregate", "per_subject.csv", "per_subject.json", "records",
                    SUBJECT_MAP, SUBJECT_KEYS),
    "aggregate": ("aggregate", "aggregate.csv", "aggregate.json", "reports",
                  AGGREGATE_MAP, AGGREGATE_KEYS),
    "losocv_table": ("aggregate", "losocv_table.csv", "losocv_table.json", "rows",
                     LOSOCV_MAP, {"region", "metric", "external", "average"}),
    **{f"compare_{family}": (f"compare_{family}", "compare.csv", "compare.json", "rows",
                             COMPARE_MAP, COMPARE_KEYS) for family in ("region", "table")},
    **{f"contrast_{mode}": (f"contrast_{mode}", "contrast.csv", "contrast.json", "rows",
                            CONTRAST_MAP, set(CONTRAST_MAP))
       for mode in ("global", "per_cluster")},
    **{f"histogram_{bins}": (f"clusters_{bins}", "size_histogram.csv", "clusters.json",
                             "histogram", HISTOGRAM_MAP, HISTOGRAM_KEYS)
       for bins in ("linear", "log")},
    "failures": ("failed", "failures.csv", "failures.json", "failures",
                 FAILURE_MAP, set(FAILURE_MAP)),
}


def expected_cell(value):
    """The CSV text of a JSON value: None empty, float repr, bool Yes/No,
    the flag list |-joined."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "Yes" if value else "No"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "|".join(value)
    return str(value)


@pytest.fixture(scope="module")
def mirror_outputs(tmp_path_factory, phantom_files):
    """Run each command once; returns run name -> output directory."""
    root = tmp_path_factory.mktemp("mirror")
    manifest, records = build_cohort(root, {"A": 2, "B": 2, "C": 2})
    truth = phantom_files["truth"]
    # an empty WM ROI (all undefined, two flags) and a whole-grid BG ROI
    for name, fill in (("empty", False), ("full", True)):
        write_volume(BinaryMask(np.full(truth.dims, fill), truth.spacing, truth.affine),
                     root / f"{name}.nii.gz", datatype=2)
    ref0 = read_volume(records[0].ref_path)
    cohort_roi = np.zeros(ref0.dims, bool)
    cohort_roi[: ref0.dims[0] // 2] = True
    for name, data in (("cwm", cohort_roi), ("cbg", ~cohort_roi)):
        write_volume(BinaryMask(data, ref0.spacing, ref0.affine), root / f"{name}.nii.gz",
                     datatype=2)
    rois = {"roi_wm_path": str(root / "cwm.nii.gz"), "roi_bg_path": str(root / "cbg.nii.gz")}
    write_manifest([SubjectRecord(r.subject_id, r.site, r.pred_path, r.ref_path, **rois)
                    for r in records], manifest)
    perfect = root / "perfect.csv"
    write_manifest([SubjectRecord(r.subject_id, r.site, r.ref_path, r.ref_path, **rois)
                    for r in records], perfect)
    src = phantom_files["root"]
    runs = {
        "metrics": ["metrics", "--pred", root / "empty.nii.gz", "--ref", src / "truth.nii.gz",
                    "--roi-wm", root / "empty.nii.gz", "--roi-bg", root / "full.nii.gz",
                    "--subject-id", AWKWARD],
        "aggregate": ["aggregate", "--manifest", manifest, "--scheme", "losocv", "--per-site"],
        "perfect": ["aggregate", "--manifest", perfect],
        "contrast_global": ["contrast", "--image", src / "image.nii.gz",
                            "--mask", src / "truth.nii.gz",
                            "--subject-id", AWKWARD, "--modality", AWKWARD],
        "contrast_per_cluster": ["contrast", "--image", src / "image.nii.gz",
                                 "--mask", src / "half.nii.gz", "--mode", "per_cluster"],
        "clusters_linear": ["clusters", "--mask", src / "truth.nii.gz"],
        "clusters_log": ["clusters", "--mask", src / "half.nii.gz", "--log-binning"],
    }
    for family in ("region", "table"):
        runs[f"compare_{family}"] = [
            "compare", "--a", root / "aggregate" / "per_subject.csv",
            "--b", root / "perfect" / "per_subject.csv", "--fdr-family", family]
    # a subject whose prediction is missing, under a name that CSV quotes
    failing = root / "failing.csv"
    write_manifest([dataclasses.replace(r, pred_path=str(root / 'no "such",file.nii.gz'))
                    if r.subject_id == "B00" else r for r in records], failing)
    runs["failed"] = ["aggregate", "--manifest", failing]
    for name, argv in runs.items():
        assert run(*argv, "--out", root / name) == (2 if name == "failed" else 0), name
    return root


class TestCsvMirrorsJson:
    @pytest.mark.parametrize("case", list(MIRRORS))
    def test_every_cell_is_its_json_value(self, mirror_outputs, case):
        run_name, csv_name, json_name, key, columns, record_keys = MIRRORS[case]
        out = mirror_outputs / run_name
        with open(out / csv_name, newline="") as fh:
            header = tuple(next(csv.reader(fh)))
        assert header == tuple(columns)
        records = json.loads((out / json_name).read_text())[key]
        rows = read_csv(out / csv_name)
        assert len(rows) == len(records) > 0
        for row, record in zip(rows, records):
            assert set(record) == record_keys
            for column, path in columns.items():
                value = record
                for step in path:
                    value = value[step]
                assert row[column] == expected_cell(value), (column, path)

    def test_none_and_flags_occur(self, mirror_outputs):
        """The empty prediction leaves undefined metrics and flags to mirror."""
        wm, bg = read_csv(mirror_outputs / "metrics" / "metrics.csv")
        assert wm["degenerate_flags"] == "both_empty|empty_region"
        assert wm["dsc_vox"] == wm["sen_num"] == ""
        assert bg["degenerate_flags"] == "pred_empty"
        assert (bg["sen_vox"], bg["ppv_vox"]) == ("0.0", "")

    @pytest.mark.parametrize("run_name,stem,key,columns", [
        ("metrics", "metrics", "records", ("subject_id",)),
        ("contrast_global", "contrast", "rows", ("subject_id", "modality")),
    ])
    def test_awkward_text_round_trips(self, mirror_outputs, run_name, stem, key, columns):
        out = mirror_outputs / run_name
        record = json.loads((out / f"{stem}.json").read_text())[key][0]
        row = read_csv(out / f"{stem}.csv")[0]
        for column in columns:
            assert row[column] == record[column] == AWKWARD


@pytest.mark.parametrize("family", ["region", "table"])
def test_compare_json_names_the_bare_metric(mirror_outputs, family):
    out = mirror_outputs / f"compare_{family}"
    names = [(r["region"], r["metric"]) for r in read_csv(out / "compare.csv")]
    records = json.loads((out / "compare.json").read_text())["rows"]
    assert [(r["region"], r["metric"]) for r in records] == names
    assert {region for region, _ in names} == {"WM", "BG"}
    assert {metric for _, metric in names} == set(METRICS)

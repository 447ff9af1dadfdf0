"""Seeded inputs for the benchmark workloads and the CLI calls each one runs.

Every input is made by pvseval's own phantom generator and written with
pvseval's NIfTI writer, so set-up time is program time. The inputs depend
only on the workload seed. Each builder also returns the in-memory ground
truth the oracle needs, so the oracle never reads through pvseval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pvseval.harness import SubjectRecord, write_manifest
from pvseval.nifti import BinaryMask, Volume3D, write_volume
from pvseval.phantom import Perturbation, PhantomSpec, generate, perturb

DEFAULT_SEED = 20250828

# ROI boxes as fractions of each axis: disjoint, WM ~45 % and BG ~2 % of the grid
WM_BOX = ((0.05, 0.95), (0.05, 0.95), (0.20, 0.76))
BG_BOX = ((0.30, 0.60), (0.30, 0.75), (0.80, 0.95))

COHORT_SITES = ("site0", "site1", "site2", "site3", "site4", "site5")
COHORT_SUBJECTS = 40


@dataclass
class Subject:
    """One subject's files and the ground truth they were written from."""

    ref_path: str
    pred_path: str
    ref: np.ndarray
    pred: np.ndarray
    rois: dict[str, np.ndarray] = field(default_factory=dict)  # region -> mask
    roi_paths: dict[str, str] = field(default_factory=dict)
    image_path: str = ""
    image: np.ndarray | None = None  # float32, as stored


@dataclass
class Cohort:
    manifests: dict[str, str]  # model -> manifest path
    sites: dict[str, str]  # subject_id -> site
    refs: dict[str, np.ndarray]
    preds: dict[str, dict[str, np.ndarray]]  # model -> subject_id -> mask
    rois: dict[str, dict[str, np.ndarray]]  # subject_id -> region -> mask
    probe: Subject | None = None  # the subject the single-subject commands run on


def _seeds(seed: int, n: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(n)
    return [int(s) for s in state]


def _box(dims, fractions) -> np.ndarray:
    out = np.zeros(dims, dtype=bool, order="F")
    sl = tuple(slice(int(lo * n), int(hi * n)) for (lo, hi), n in zip(fractions, dims))
    out[sl] = True
    return out


def _write_mask(data: np.ndarray, like: Volume3D, path: Path) -> str:
    write_volume(BinaryMask(data=data, spacing=like.spacing, affine=like.affine),
                 path, datatype=2)
    return str(path)


def _write_image(image: Volume3D, path: Path) -> tuple[str, np.ndarray]:
    write_volume(image, path, datatype=16)
    return str(path), image.data.astype(np.float32)


def _with_rois(subject: Subject, like: Volume3D, dest: Path, prefix: str) -> None:
    for region, box in (("WM", WM_BOX), ("BG", BG_BOX)):
        mask = _box(like.dims, box)
        subject.rois[region] = mask
        subject.roi_paths[region] = _write_mask(mask, like, dest / f"{prefix}_{region.lower()}.nii.gz")


def build_subject_sparse(seed: int, dest: Path, dims=(182, 218, 182), n_tubes=80) -> Subject:
    """The 1 mm MNI grid, ~0.1 % foreground: dropped clusters, then deletions."""
    s_phantom, s_drop, s_delete = _seeds(seed, 3)
    image, truth, _ = generate(PhantomSpec(dims=dims, n_tubes=n_tubes, seed=s_phantom))
    pred = perturb(truth, Perturbation(kind="drop_clusters", k=10), seed=s_drop)
    pred = perturb(pred, Perturbation(kind="delete_fraction", fraction=0.3), seed=s_delete)
    subject = Subject(
        ref_path=_write_mask(truth.data, truth, dest / "ref.nii.gz"),
        pred_path=_write_mask(pred.data, truth, dest / "pred.nii.gz"),
        ref=truth.data, pred=pred.data,
    )
    _with_rois(subject, truth, dest, "roi")
    subject.image_path, subject.image = _write_image(image, dest / "image.nii.gz")
    return subject


def build_subject_noisy(seed: int, dest: Path, dims=(112, 112, 112), n_tubes=30) -> Subject:
    """Dense noisy prediction: the truth plus a Bernoulli(0.3) artifact slab
    at z < 4 and Bernoulli(0.001) speckle elsewhere; no ROIs."""
    s_phantom, s_noise = _seeds(seed, 2)
    image, truth, _ = generate(PhantomSpec(dims=dims, n_tubes=n_tubes, seed=s_phantom))
    u = np.random.default_rng(s_noise).random(dims)
    slab = np.arange(dims[2])[None, None, :] < 4
    pred = np.asfortranarray(truth.data | np.where(slab, u < 0.3, u < 0.001))
    subject = Subject(
        ref_path=_write_mask(truth.data, truth, dest / "ref.nii.gz"),
        pred_path=_write_mask(pred, truth, dest / "pred.nii.gz"),
        ref=truth.data, pred=pred,
    )
    subject.image_path, subject.image = _write_image(image, dest / "image.nii.gz")
    return subject


def build_cohort(seed: int, dest: Path, dims=(80, 80, 80), n_tubes=6,
                 n_subjects=COHORT_SUBJECTS) -> Cohort:
    """Subjects dealt round-robin over six sites. Model A deletes 20 % of the
    truth voxels; model B drops two whole clusters."""
    records: dict[str, list[SubjectRecord]] = {"A": [], "B": []}
    cohort = Cohort({}, {}, {}, {"A": {}, "B": {}}, {})
    for i, s in enumerate(_seeds(seed, n_subjects)):
        sid = f"sub{i:03d}"
        site = COHORT_SITES[i % len(COHORT_SITES)]
        s_phantom, s_a, s_b = _seeds(s, 3)
        _, truth, _ = generate(PhantomSpec(dims=dims, n_tubes=n_tubes, seed=s_phantom))
        preds = {
            "A": perturb(truth, Perturbation(kind="delete_fraction", fraction=0.2), seed=s_a),
            "B": perturb(truth, Perturbation(kind="drop_clusters", k=2), seed=s_b),
        }
        subject = Subject(
            ref_path=_write_mask(truth.data, truth, dest / f"{sid}_ref.nii.gz"),
            pred_path="", ref=truth.data, pred=preds["A"].data,
        )
        _with_rois(subject, truth, dest, sid)
        cohort.sites[sid] = site
        cohort.refs[sid] = truth.data
        cohort.rois[sid] = subject.rois
        for model, pred in preds.items():
            path = _write_mask(pred.data, truth, dest / f"{sid}_{model.lower()}.nii.gz")
            cohort.preds[model][sid] = pred.data
            records[model].append(SubjectRecord(
                sid, site, path, subject.ref_path,
                roi_wm_path=subject.roi_paths["WM"], roi_bg_path=subject.roi_paths["BG"]))
    for model, model_records in records.items():
        path = dest / f"manifest_{model.lower()}.csv"
        write_manifest(model_records, path)
        cohort.manifests[model] = str(path)
    return cohort


def build_cohort_noisy(seed: int, dest: Path) -> Cohort:
    """The cohort study, with the noisy subject as the one the
    single-subject commands run on."""
    s_cohort, s_noisy = _seeds(seed, 2)
    cohort = build_cohort(s_cohort, dest)
    cohort.probe = build_subject_noisy(s_noisy, dest)
    return cohort

"""Evaluation toolkit for 3D binary segmentations of thin tubular lesions.

Voxel- and cluster-level overlap metrics, paired nonparametric model
comparison, cross-validation fold plumbing, and a synthetic phantom
generator so the whole pipeline is verifiable without clinical data.
"""

__version__ = "0.1.0"

from .ccl import LabelMap, label_components, size_histogram
from .metrics import (
    ClusterCounts,
    RoiMask,
    SubjectMetrics,
    VoxelCounts,
    cluster_metrics,
    evaluate_subject,
    intersect,
    pearson_r,
    voxel_metrics,
)
from .morphology import contrast_stat, dilate_once, shell
from .nifti import (
    BinaryMask,
    NiftiHeader,
    Volume3D,
    parse_header,
    read_volume,
    read_voxels,
    write_volume,
)
from .phantom import Perturbation, PhantomSpec, generate, perturb
from .stats import StatResult, bh_fdr, compare_models, rank_biserial, wilcoxon_signed_rank

__all__ = [
    "BinaryMask",
    "ClusterCounts",
    "LabelMap",
    "NiftiHeader",
    "Perturbation",
    "PhantomSpec",
    "RoiMask",
    "StatResult",
    "SubjectMetrics",
    "Volume3D",
    "VoxelCounts",
    "bh_fdr",
    "cluster_metrics",
    "compare_models",
    "contrast_stat",
    "dilate_once",
    "evaluate_subject",
    "generate",
    "intersect",
    "label_components",
    "parse_header",
    "pearson_r",
    "perturb",
    "rank_biserial",
    "read_volume",
    "read_voxels",
    "shell",
    "size_histogram",
    "voxel_metrics",
    "wilcoxon_signed_rank",
    "write_volume",
]

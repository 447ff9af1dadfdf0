"""Command-line surface.

Subcommands: metrics, aggregate, compare, contrast, clusters, phantom,
folds. JSON is the canonical machine output and every JSON report embeds
the resolved run configuration. Each command builds its records once and
writes them to `<stem>.json` under one key; `<stem>.csv` is a projection
of the same records through one of the column maps below, which send each
CSV header to a key path in the record. A header is its key, except:
a metric summary nested under `{m}` (a metric in aggregate, a site or the
average in the LOSOCV table) gives `{m}_mean`, `{m}_sd`, `{m}_n` <-
`n_used` and, in aggregate, `{m}_excluded` <- `n_excluded`; compare writes
`sig` <- `significant` and `r` <- `rank_biserial`. A cell is empty for
None, `repr` for a float, Yes/No for a bool and `|`-joined for the flag
tuple. `clusters` works from numpy columns instead: it renders each
column's cell text once (`repr` of each value, as the cell rule gives),
and the same strings feed `cluster_sizes.csv`, `size_histogram.csv`
(`bin_lo`/`bin_hi` <- `lo`/`hi`) and the `histogram` list of
`clusters.json`, which `_write_json` lays out as json.dumps would.
Exit codes: 0 success, 2 user/input error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass, asdict
from pathlib import Path

from . import __version__
from .ccl import CONNECTIVITIES, label_components, size_histogram
from .errors import InputError
from .harness import (
    ALL_SITES,
    aggregate,
    evaluate_manifest,
    load_rois,
    losocv_table,
    make_folds,
    read_manifest,
)
from .metrics import METRIC_NAMES, evaluate_subject
from .morphology import contrast_stat, contrast_stat_per_cluster
from .nifti import Volume3D, read_volume, read_voxels, write_volume
from .phantom import PhantomSpec, Perturbation, generate, perturb
from .stats import compare_models

WORKERS_ENV = "PVSEVAL_WORKERS"


@dataclass
class RunConfig:
    connectivity: int = 26
    fdr_q: float = 0.05
    out_dir: str = "."
    workers: int = 1
    strict_grid: bool = False


# what the config file must hold for each field's type; no coercion, so
# "false" is not a bool and 6.9 is not an int (nor is true a number)
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Explicit flags override the config file, which overrides defaults."""
    cfg = RunConfig()
    workers = os.environ.get(WORKERS_ENV)
    if workers is not None:
        try:
            cfg.workers = int(workers)
        except ValueError:
            raise InputError(f"{WORKERS_ENV} must be an integer, got {workers!r}") from None
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"{config_path}: invalid JSON config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InputError(f"{config_path}: config must be a JSON object")
        for key, value in loaded.items():
            if not hasattr(cfg, key):
                raise InputError(f"{config_path}: unknown config key {key!r}")
            want = type(getattr(cfg, key))
            if type(value) is not want and not (want is float and type(value) is int):
                raise InputError(f"{config_path}: config key {key!r} must be "
                                 f"{_JSON_TYPES[want]}, got {json.dumps(value)}")
            setattr(cfg, key, want(value))
    for key in ("connectivity", "fdr_q", "workers"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    if getattr(args, "strict_grid", False):
        cfg.strict_grid = True
    if cfg.connectivity not in CONNECTIVITIES:
        raise InputError(f"connectivity must be one of {CONNECTIVITIES}")
    if not 0.0 < cfg.fdr_q < 1.0:
        raise InputError("fdr q must lie in (0, 1)")
    if cfg.workers < 1:
        raise InputError("workers must be >= 1")
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _same(*names: str) -> dict[str, tuple]:
    """Columns whose header is the record's own key."""
    return {name: (name,) for name in names}


# a MetricSummary's cells: header suffix -> field
_SUMMARY_CELLS = {"mean": "mean", "sd": "sd", "n": "n_used", "excluded": "n_excluded"}

SUBJECT_COLUMNS = _same(
    "subject_id", "region", "connectivity", *METRIC_NAMES,
    "vol_manual_vox", "vol_algo_vox", "vol_overlap_vox",
    "n_manual", "n_algo", "n_manual_hit", "n_algo_hit", "degenerate_flags",
)
AGGREGATE_COLUMNS = {
    **_same("region", "site", "scheme", "n_subjects"),
    **{f"{m}_{suffix}": ("metrics", m, field)
       for m in METRIC_NAMES for suffix, field in _SUMMARY_CELLS.items()},
    **_same("r_vox", "r_vox_mm3", "r_num"),
}
COMPARE_COLUMNS = {
    **_same("region", "metric", "n", "median_a", "median_b", "median_diff", "p_fdr"),
    "sig": ("significant",),
    "r": ("rank_biserial",),
}
CONTRAST_COLUMNS = _same("subject_id", "modality", "mask_mean", "shell_mean",
                         "abs_contrast", "mode")
CLUSTER_SIZE_COLUMNS = ("cluster_id", "size_voxels", "size_mm3")
# size_histogram.csv header -> SizeHistogram column, also the JSON record key
HISTOGRAM_COLUMNS = {"bin_lo": "lo", "bin_hi": "hi", "count": "count", "density": "density"}


def _losocv_columns(sites) -> dict[str, tuple]:
    """Each left-out site, then the pooled average: mean, sd and n of each."""
    cells = [(site, ("external", site)) for site in sites] + [("average", ("average",))]
    return {
        **_same("region", "metric"),
        **{f"{prefix}_{suffix}": (*path, _SUMMARY_CELLS[suffix])
           for prefix, path in cells for suffix in ("mean", "sd", "n")},
    }


def _cell(record, path: tuple) -> str:
    """The CSV text of the value at `path`; a None on the way gives ""."""
    for key in path:
        if record is None:
            break
        record = record[key]
    if record is None:
        return ""
    if isinstance(record, bool):
        return "Yes" if record else "No"
    if isinstance(record, float):
        return repr(record)
    if isinstance(record, tuple):
        return "|".join(record)
    return str(record)


def _texts(column) -> list[str]:
    """The cell text of each value of a numpy column: repr of the Python
    float or int, as _cell writes it and as json writes a finite float."""
    return list(map(repr, column.tolist()))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict, cfg: RunConfig,
                columns: tuple[str, dict[str, list[str]]] | None = None) -> None:
    """`payload` and the run config as json.dumps(indent=2, sort_keys=True).

    `columns`, if given, is (key, {field: JSON text of each record's
    value}): a top-level list of flat records held as rendered columns. It
    is laid out with one template per record, byte for byte as json.dumps
    would, and spliced into the text of the rest at its key's line;
    json's indenting encoder is pure Python and slow on ~10^4 records.
    """
    payload = dict(payload)
    payload["config"] = asdict(cfg)
    if columns is not None:
        key, cells = columns
        payload[key] = []
    pieces = [json.dumps(payload, indent=2, sort_keys=True), "\n"]
    if columns is not None:
        fields = sorted(cells)
        template = "    {\n" + ",\n".join(f"      {json.dumps(f)}: %s" for f in fields) + "\n    }"
        records = ",\n".join(map(template.__mod__, zip(*(cells[f] for f in fields))))
        if records:
            # a JSON string holds no raw newline, so only the key's own line
            # matches; the records go between its brackets, written uncopied
            head, anchor, tail = pieces[0].partition(f"\n  {json.dumps(key)}: [")
            pieces[:1] = [head, anchor, "\n", records, "\n  ", tail]
    with open(path, "w") as fh:
        fh.writelines(pieces)


def _write_table(out: Path, stem: str, key: str, columns: dict[str, tuple],
                 records: list, cfg: RunConfig) -> None:
    """`stem.csv` through `columns`, and the same records as `stem.json`."""
    paths = list(columns.values())
    _write_csv(out / f"{stem}.csv", columns,
               ([_cell(rec, p) for p in paths] for rec in records))
    _write_json(out / f"{stem}.json", {key: records}, cfg)


def _require_file(path: str, flag: str) -> str:
    if not path:
        raise InputError(f"{flag} is required")
    if not Path(path).is_file():
        raise InputError(f"{flag}: no such file: {path}")
    return path


# -- metrics ---------------------------------------------------------------

def cmd_metrics(args) -> int:
    cfg = _resolve_config(args)
    # the prediction sets the grid; each later volume is checked as it is read
    pred = read_volume(_require_file(args.pred, "--pred"), "mask")
    read = functools.partial(read_volume, mode="mask", grid=pred, strict=cfg.strict_grid)
    ref = read(_require_file(args.ref, "--ref"))
    rois = load_rois(args.roi_wm and _require_file(args.roi_wm, "--roi-wm"),
                     args.roi_bg and _require_file(args.roi_bg, "--roi-bg"), read)
    subject_id = args.subject_id or Path(args.pred).name.split(".")[0]
    records = evaluate_subject(pred, ref, rois, cfg.connectivity,
                               subject_id=subject_id, strict=cfg.strict_grid)
    _write_table(_out_dir(cfg), "metrics", "records", SUBJECT_COLUMNS,
                 [asdict(r) for r in records], cfg)
    return 0


# -- aggregate ---------------------------------------------------------------

def cmd_aggregate(args) -> int:
    cfg = _resolve_config(args)
    manifest = read_manifest(_require_file(args.manifest, "--manifest"))
    scheme = args.scheme or ""
    per_site = args.per_site or scheme == "losocv"
    sites = sorted({r.site for r in manifest})
    if per_site and ALL_SITES in sites:
        # its per-site rows would share the key of each region's pooled row
        raise InputError(f"{args.manifest}: site {ALL_SITES!r} clashes with the "
                         f"pooled rows of every region")
    if scheme == "losocv":
        make_folds(manifest, scheme)  # rejects a single site, as folds does
        if "average" in sites:
            # its columns would be the pooled average's average_mean/sd/n
            raise InputError(f"{args.manifest}: site 'average' clashes with the "
                             f"LOSOCV table's pooled average columns")
    per_subject = evaluate_manifest(manifest, cfg.connectivity, cfg.workers,
                                    cfg.strict_grid)
    out = _out_dir(cfg)
    _write_table(out, "per_subject", "records", SUBJECT_COLUMNS,
                 [asdict(r) for r in per_subject], cfg)

    site_of = {r.subject_id: r.site for r in manifest}
    reports = aggregate(per_subject, site_of, per_site=per_site, scheme=scheme)
    _write_table(out, "aggregate", "reports", AGGREGATE_COLUMNS,
                 [asdict(r) for r in reports], cfg)

    if scheme == "losocv":
        _write_table(out, "losocv_table", "rows", _losocv_columns(sites),
                     [asdict(r) for r in losocv_table(reports)], cfg)
    return 0


# -- compare ---------------------------------------------------------------

def _read_per_subject_csv(path: str):
    """(subject_id -> {"region:metric": value or None}, the regions in
    first-seen order, the connectivity values)."""
    by_subject: dict[str, dict[str, float | None]] = {}
    regions: dict[str, set[str]] = {}  # region -> its subject ids
    connectivities = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputError(f"{path}: empty CSV")
        needed = {"subject_id", "region", *METRIC_NAMES}
        missing = sorted(needed - set(reader.fieldnames))
        if missing:
            raise InputError(f"{path}: missing columns {missing}")
        for i, row in enumerate(reader, start=2):
            sid = (row.get("subject_id") or "").strip()
            region = (row.get("region") or "").strip()
            if not sid or not region:
                raise InputError(f"{path}: row {i}: empty subject_id or region")
            if sid in regions.setdefault(region, set()):
                raise InputError(
                    f"{path}: row {i}: duplicate row for subject {sid!r}, region {region!r}")
            regions[region].add(sid)
            if row.get("connectivity"):
                connectivities.add(row["connectivity"].strip())
            values = by_subject.setdefault(sid, {})
            for metric in METRIC_NAMES:
                text = (row.get(metric) or "").strip()
                try:
                    values[f"{region}:{metric}"] = float(text) if text else None
                except ValueError as exc:
                    raise InputError(
                        f"{path}: row {i}, column {metric}: not a number: {text!r}"
                    ) from exc
    if not by_subject:
        raise InputError(f"{path}: no rows")
    return by_subject, list(regions), connectivities


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    a, regions_a, conn_a = _read_per_subject_csv(_require_file(args.a, "--a"))
    b, regions_b, conn_b = _read_per_subject_csv(_require_file(args.b, "--b"))
    if conn_a and conn_b and conn_a != conn_b:
        raise InputError(f"--a and --b were computed at different connectivity: "
                         f"{sorted(conn_a)} vs {sorted(conn_b)}")
    if len(conn_a) == 1 and conn_a == conn_b:
        # the config records the connectivity the CSVs were computed at
        (text,) = conn_a
        if text not in map(str, CONNECTIVITIES):
            raise InputError(f"--a and --b: connectivity {text!r} is not one of "
                             f"{CONNECTIVITIES}")
        cfg.connectivity = int(text)
    metrics = args.metrics.split(",") if args.metrics else list(METRIC_NAMES)
    for m in metrics:
        if m not in METRIC_NAMES:
            raise InputError(f"unknown metric {m!r}; choose from {METRIC_NAMES}")
    regions = [r for r in regions_a if r in regions_b]
    if not regions:
        raise InputError("the two reports share no region")

    # one set of paired tests keyed region:metric; the FDR family is each
    # region's keys, or all of them for the whole table
    families = [[f"{region}:{m}" for m in metrics] for region in regions]
    if args.fdr_family == "table":
        families = [[key for family in families for key in family]]
    records = []
    for family in families:
        for res in compare_models(a, b, family, cfg.fdr_q):
            region, _, metric = res.metric.rpartition(":")  # metric names hold no ":"
            records.append({**asdict(res), "region": region, "metric": metric})
    _write_table(_out_dir(cfg), "compare", "rows", COMPARE_COLUMNS, records, cfg)
    return 0


# -- contrast ---------------------------------------------------------------

def cmd_contrast(args) -> int:
    cfg = _resolve_config(args)
    image_path = _require_file(args.image, "--image")
    mask = read_volume(_require_file(args.mask, "--mask"), "mask")
    # the image is read only where contrast needs it, at the mask and ring voxels
    image = functools.partial(read_voxels, image_path, grid=mask, strict=cfg.strict_grid)
    subject_id = args.subject_id or Path(args.mask).name.split(".")[0]
    if args.mode == "per_cluster":
        mask_mean, shell_mean, contrast = contrast_stat_per_cluster(
            image, mask, cfg.connectivity)
    else:
        mask_mean, shell_mean, contrast = contrast_stat(image, mask, cfg.connectivity)
    row = {
        "subject_id": subject_id,
        "modality": args.modality,
        "mask_mean": mask_mean,
        "shell_mean": shell_mean,
        "abs_contrast": contrast,
        "mode": args.mode,
    }
    _write_table(_out_dir(cfg), "contrast", "rows", CONTRAST_COLUMNS, [row], cfg)
    return 0


# -- clusters ---------------------------------------------------------------

def cmd_clusters(args) -> int:
    cfg = _resolve_config(args)
    mask = read_volume(_require_file(args.mask, "--mask"), "mask")
    lm = label_components(mask, cfg.connectivity)
    out = _out_dir(cfg)
    sizes = lm.component_sizes
    # the same IEEE product as the int size times the float voxel volume
    _write_csv(out / "cluster_sizes.csv", CLUSTER_SIZE_COLUMNS,
               zip(map(str, range(1, sizes.size + 1)), _texts(sizes),
                   _texts(sizes * mask.voxel_volume_mm3)))
    payload = {
        "component_count": lm.component_count,
        "connectivity": lm.connectivity,
        "sizes_voxels": sizes.tolist(),
    }
    histogram = None
    if lm.component_count > 0:
        hist = size_histogram(payload["sizes_voxels"], log_binning=args.log_binning)
        cells = {field: _texts(getattr(hist, field)) for field in HISTOGRAM_COLUMNS.values()}
        _write_csv(out / "size_histogram.csv", HISTOGRAM_COLUMNS, zip(*cells.values()))
        histogram = ("histogram", cells)
    _write_json(out / "clusters.json", payload, cfg, histogram)
    if args.save_labels:
        label_vol = Volume3D(data=lm.data, spacing=mask.spacing, affine=mask.affine)
        write_volume(label_vol, args.save_labels, datatype=8)
    return 0


# -- phantom ---------------------------------------------------------------

def _parse_triple(text: str, flag: str, cast=int) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"{flag} expects three comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}") from exc


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"{flag} expects lo,hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_perturbation(text: str, connectivity: int) -> Perturbation:
    kind, _, param = text.partition(":")
    if kind == "delete_fraction":
        fields = {"fraction": float(param)}
    elif kind == "dilate_once":
        fields = {}
    elif kind == "drop_clusters":
        fields = {"k": int(param)}
    elif kind == "translate":
        fields = {"offset": _parse_triple(param, "--perturb translate")}
    else:
        raise InputError(f"unknown perturbation {kind!r}")
    return Perturbation(kind=kind, connectivity=connectivity, **fields)


def cmd_phantom(args) -> int:
    cfg = _resolve_config(args)
    spec = PhantomSpec(
        dims=_parse_triple(args.dims, "--dims"),
        spacing=_parse_triple(args.spacing, "--spacing", float),
        n_tubes=args.n_tubes,
        radius_range=_parse_range(args.radius_range, "--radius-range"),
        length_range=_parse_range(args.length_range, "--length-range"),
        clearance=args.clearance,
        bend_amplitude=args.bend_amplitude,
        bg_mean=args.bg_mean,
        bg_sd=args.bg_sd,
        tube_offset=args.offset,
        seed=args.seed,
    )
    image, truth, count = generate(spec)
    out = _out_dir(cfg)
    write_volume(image, out / "image.nii.gz", datatype=64)
    write_volume(truth, out / "truth.nii.gz", datatype=2)
    payload = {"spec": asdict(spec), "cluster_count": count}
    if args.perturb:
        p = _parse_perturbation(args.perturb, cfg.connectivity)
        pred = perturb(truth, p, seed=args.perturb_seed)
        write_volume(pred, out / "pred.nii.gz", datatype=2)
        payload["perturbation"] = asdict(p)
        payload["perturb_seed"] = args.perturb_seed
    _write_json(out / "phantom_spec.json", payload, cfg)
    return 0


# -- folds ---------------------------------------------------------------

def cmd_folds(args) -> int:
    cfg = _resolve_config(args)
    manifest = read_manifest(_require_file(args.manifest, "--manifest"))
    spec = make_folds(manifest, args.scheme, args.seed)
    out = _out_dir(cfg)
    _write_json(out / "foldspec.json", spec.to_json_dict(), cfg)
    return 0


# -- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvseval",
        description="Voxel- and cluster-level evaluation of 3D binary segmentations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument("--config", help="JSON config file merged under explicit flags")
    # only the commands that label clusters take --connectivity, and only
    # the commands that compare grids take --strict-grid
    conn = argparse.ArgumentParser(add_help=False)
    conn.add_argument("--connectivity", type=int, choices=CONNECTIVITIES,
                      default=None, help="cluster adjacency (default 26)")
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict-grid", action="store_true",
                        help="also require affines to match within 1e-4")

    p = sub.add_parser("metrics", parents=[common, conn, strict],
                       help="evaluate one prediction against one reference")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--roi-wm")
    p.add_argument("--roi-bg")
    p.add_argument("--subject-id")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("aggregate", parents=[common, conn, strict],
                       help="evaluate a manifest and aggregate per region/site")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker processes (default ${WORKERS_ENV} or 1)")
    p.add_argument("--per-site", action="store_true")
    p.add_argument("--scheme", choices=["5fcv", "losocv"],
                   help="labels the report; losocv also emits the site matrix")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("compare", parents=[common],
                       help="paired Wilcoxon + FDR between two per-subject CSVs")
    p.add_argument("--a", required=True, help="per-subject CSV of model A")
    p.add_argument("--b", required=True, help="per-subject CSV of model B")
    p.add_argument("--metrics", help="comma-separated metric subset")
    p.add_argument("--fdr-q", type=float, default=None, dest="fdr_q")
    p.add_argument("--fdr-family", choices=["region", "table"], default="region")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("contrast", parents=[common, conn, strict],
                       help="mask-vs-surroundings intensity contrast")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--mode", choices=["global", "per_cluster"], default="global")
    p.add_argument("--subject-id")
    p.add_argument("--modality", default="")
    p.set_defaults(func=cmd_contrast)

    p = sub.add_parser("clusters", parents=[common, conn],
                       help="cluster sizes and size histogram of one mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--log-binning", action="store_true")
    p.add_argument("--save-labels", help="write the label map as NIfTI i32")
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("phantom", parents=[common, conn],
                       help="generate a synthetic tubular phantom")
    p.add_argument("--dims", default="64,64,64")
    p.add_argument("--spacing", default="1,1,1")
    p.add_argument("--n-tubes", type=int, default=5)
    p.add_argument("--radius-range", default="1,2")
    p.add_argument("--length-range", default="10,25")
    p.add_argument("--clearance", type=float, default=3.0)
    p.add_argument("--bend-amplitude", type=float, default=1.0)
    p.add_argument("--bg-mean", type=float, default=0.0)
    p.add_argument("--bg-sd", type=float, default=1.0)
    p.add_argument("--offset", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb",
                   help="also write pred.nii.gz, e.g. delete_fraction:0.5, "
                        "drop_clusters:2, dilate_once, translate:1,0,0")
    p.add_argument("--perturb-seed", type=int, default=0)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("folds", parents=[common],
                       help="deterministic 5-fold or leave-one-site-out split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scheme", choices=["5fcv", "losocv"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_folds)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"pvseval: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"pvseval: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Subcommands: metrics, aggregate, compare, contrast, clusters, phantom,
folds. JSON is the canonical machine output and every JSON report embeds,
as `config`, the settings its command read (its COMMAND_SETTINGS row).
Each command builds its records once and writes them to `<stem>.json`
under one key; `<stem>.csv` is a projection of the same records through
one of the column maps below, which send each CSV header to a key path in
the record. A header is its key, except:
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
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .ccl import CONNECTIVITIES, label_components, size_histogram
from .errors import InputError
from .harness import (
    ALL_SITES,
    aggregate,
    evaluate_manifest,
    losocv_table,
    make_folds,
    read_csv,
    read_manifest,
    read_subject,
    read_text,
    write_csv,
)
from .metrics import METRIC_NAMES, evaluate_subject
from .morphology import contrast_stat, contrast_stat_per_cluster
from .nifti import read_volume, read_voxels, write_volume
from .phantom import PERTURBATION_PARAMS, PhantomSpec, Perturbation, generate, perturb
from .stats import compare_models

WORKERS_ENV = "PVSEVAL_WORKERS"

# setting -> (default, flag, the flag's argparse options); a flag not given
# is None, so the config file's value stands
SETTINGS = {
    "connectivity": (26, "--connectivity", {
        "type": int, "choices": CONNECTIVITIES, "help": "cluster adjacency (default 26)"}),
    "strict_grid": (False, "--strict-grid", {
        "action": "store_true", "help": "also require affines to match within 1e-4"}),
    "workers": (1, "--workers", {
        "type": int, "help": f"worker processes (default ${WORKERS_ENV} or 1)"}),
    "fdr_q": (0.05, "--fdr-q", {"type": float}),
    "out_dir": (".", "--out", {"help": "output directory (default: current)"}),
}
# command -> the settings it reads: its flags, and its JSON `config` block
COMMAND_SETTINGS = {
    "metrics": ("connectivity", "strict_grid", "out_dir"),
    "aggregate": ("connectivity", "strict_grid", "out_dir", "workers"),
    "compare": ("fdr_q", "out_dir"),
    "contrast": ("connectivity", "strict_grid", "out_dir"),
    "clusters": ("connectivity", "out_dir"),
    "phantom": ("connectivity", "out_dir"),
    "folds": ("out_dir",),
}

# what the config file must hold for each setting's type; no coercion, so
# "false" is not a bool and 6.9 is not an int (nor is true a number)
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _resolve_config(args: argparse.Namespace) -> dict:
    """The settings `args.command` reads: explicit flags override the config
    file, which overrides $PVSEVAL_WORKERS and the defaults. Every setting
    the file or the environment gives is checked, read or not, so one file
    serves every command."""
    cfg = {key: default for key, (default, _, _) in SETTINGS.items()}
    workers = os.environ.get(WORKERS_ENV)
    if workers is not None:
        try:
            cfg["workers"] = int(workers)
        except ValueError:
            raise InputError(f"{WORKERS_ENV} must be an integer, got {workers!r}") from None
    if args.config:
        try:
            loaded = json.loads(read_text(args.config))
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: invalid JSON config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InputError(f"{args.config}: config must be a JSON object")
        for key, value in loaded.items():
            if key not in SETTINGS:
                raise InputError(f"{args.config}: unknown config key {key!r}")
            want = type(SETTINGS[key][0])
            if type(value) is not want and not (want is float and type(value) is int):
                raise InputError(f"{args.config}: config key {key!r} must be "
                                 f"{_JSON_TYPES[want]}, got {json.dumps(value)}")
            if want is str and "\x00" in value:  # no path holds one, and open() fails on it
                raise InputError(f"{args.config}: config key {key!r} holds a NUL byte")
            cfg[key] = want(value)
    row = COMMAND_SETTINGS[args.command]
    for key in row:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if cfg["connectivity"] not in CONNECTIVITIES:
        raise InputError(f"connectivity must be one of {CONNECTIVITIES}")
    if not 0.0 < cfg["fdr_q"] < 1.0:
        raise InputError("fdr q must lie in (0, 1)")
    if cfg["workers"] < 1:
        raise InputError("workers must be >= 1")
    return {key: cfg[key] for key in row}


def _out_dir(cfg: dict) -> Path:
    path = Path(cfg["out_dir"])
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
    **_same("n_pairs", "method"),
}
FAILURE_COLUMNS = _same("subject_id", "site", "error", "message")
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
    """The CSV text of the value at `path` in the nested dicts of `record`;
    None gives ""."""
    for key in path:
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


def _write_json(path: Path, payload: dict, cfg: dict,
                columns: tuple[str, dict[str, list[str]]] | None = None) -> None:
    """`payload`, with `cfg` under `config`, as json.dumps(indent=2,
    sort_keys=True).

    `columns`, if given, is (key, {field: JSON text of each record's
    value}): a top-level list of flat records held as rendered columns. It
    is laid out with one template per record, byte for byte as json.dumps
    would, and spliced into the text of the rest at its key's line;
    json's indenting encoder is pure Python and slow on ~10^4 records.
    """
    payload = dict(payload)
    payload["config"] = cfg
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def _write_table(out: Path, stem: str, key: str, columns: dict[str, tuple],
                 records: list, cfg: dict) -> None:
    """`stem.csv` through `columns`, and the same records as `stem.json`."""
    paths = list(columns.values())
    write_csv(out / f"{stem}.csv", columns,
              ([_cell(rec, p) for p in paths] for rec in records))
    _write_json(out / f"{stem}.json", {key: records}, cfg)


def _require_file(path: str, flag: str) -> str:
    if not path:
        raise InputError(f"{flag} is required")
    if not Path(path).is_file():
        raise InputError(f"{flag}: no such file: {path}")
    return path


# -- metrics ---------------------------------------------------------------

def cmd_metrics(args, cfg: dict) -> int:
    # every input file must exist before the first read
    _require_file(args.pred, "--pred")
    _require_file(args.ref, "--ref")
    for path, flag in ((args.roi_wm, "--roi-wm"), (args.roi_bg, "--roi-bg")):
        if path:
            _require_file(path, flag)
    pred, ref, rois = read_subject(args.pred, args.ref, args.roi_wm, args.roi_bg,
                                   cfg["strict_grid"])
    subject_id = args.subject_id or Path(args.pred).name.split(".")[0]
    records = evaluate_subject(pred, ref, rois, cfg["connectivity"],
                               subject_id=subject_id, strict=cfg["strict_grid"])
    _write_table(_out_dir(cfg), "metrics", "records", SUBJECT_COLUMNS,
                 [asdict(r) for r in records], cfg)
    return 0


# -- aggregate ---------------------------------------------------------------

def cmd_aggregate(args, cfg: dict) -> int:
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
    # a subject that cannot be read is left out of every table, listed in
    # failures.csv/json and named on stderr, and the run exits 2
    per_subject, failures = evaluate_manifest(manifest, cfg["connectivity"],
                                              cfg["workers"], cfg["strict_grid"])
    out = _out_dir(cfg)
    _write_table(out, "per_subject", "records", SUBJECT_COLUMNS,
                 [asdict(r) for r in per_subject], cfg)

    site_of = {r.subject_id: r.site for r in manifest}
    reports = aggregate(per_subject, site_of if per_site else None, scheme=scheme)
    _write_table(out, "aggregate", "reports", AGGREGATE_COLUMNS,
                 [asdict(r) for r in reports], cfg)

    if scheme == "losocv":
        _write_table(out, "losocv_table", "rows", _losocv_columns(sites),
                     [asdict(r) for r in losocv_table(reports, sites)], cfg)
    _write_table(out, "failures", "failures", FAILURE_COLUMNS,
                 [asdict(f) for f in failures], cfg)
    for failure in failures:
        print(f"pvseval: error: {failure.message}", file=sys.stderr)
    return 2 if failures else 0


# -- compare ---------------------------------------------------------------

def _read_per_subject_csv(path: str):
    """(subject_id -> {(region, metric): value or None}, the regions in
    first-seen order, the one connectivity the rows name or None)."""
    by_subject: dict[str, dict[tuple[str, str], float | None]] = {}
    regions: dict[str, set[str]] = {}  # region -> its subject ids
    connectivities = set()
    for i, row in read_csv(path, ["subject_id", "region", *METRIC_NAMES]):
        sid, region = row["subject_id"], row["region"]
        if not sid or not region:
            raise InputError(f"{path}: row {i}: empty subject_id or region")
        if sid in regions.setdefault(region, set()):
            raise InputError(
                f"{path}: row {i}: duplicate row for subject {sid!r}, region {region!r}")
        regions[region].add(sid)
        if row.get("connectivity"):
            connectivities.add(row["connectivity"])
        values = by_subject.setdefault(sid, {})
        for metric in METRIC_NAMES:
            text = row[metric]
            try:
                value = float(text) if text else None
            except ValueError as exc:
                raise InputError(
                    f"{path}: row {i}, column {metric}: not a number: {text!r}"
                ) from exc
            # every metric is a ratio; nan is undefined, as an empty cell
            if value is not None and not math.isnan(value) and not 0.0 <= value <= 1.0:
                raise InputError(
                    f"{path}: row {i}, column {metric}: {text!r} is outside [0, 1]")
            values[region, metric] = value
    if not by_subject:
        raise InputError(f"{path}: no rows")
    if len(connectivities) > 1:
        raise InputError(f"{path}: rows name more than one connectivity: "
                         f"{sorted(connectivities)}")
    return by_subject, list(regions), min(connectivities, default=None)


def cmd_compare(args, cfg: dict) -> int:
    a, regions_a, conn_a = _read_per_subject_csv(_require_file(args.a, "--a"))
    b, regions_b, conn_b = _read_per_subject_csv(_require_file(args.b, "--b"))
    if conn_a and conn_b and conn_a != conn_b:
        raise InputError(f"--a and --b were computed at different connectivity: "
                         f"{conn_a!r} vs {conn_b!r}")
    if conn_a and conn_a == conn_b:
        # the config records the connectivity the CSVs were computed at
        if conn_a not in map(str, CONNECTIVITIES):
            raise InputError(f"--a and --b: connectivity {conn_a!r} is not one of "
                             f"{CONNECTIVITIES}")
        cfg["connectivity"] = int(conn_a)
    metrics = args.metrics.split(",") if args.metrics else list(METRIC_NAMES)
    for i, m in enumerate(metrics):
        if m not in METRIC_NAMES:
            raise InputError(f"unknown metric {m!r}; choose from {METRIC_NAMES}")
        if m in metrics[:i]:
            # a repeat would be tested twice and enlarge the FDR family
            raise InputError(f"--metrics names {m!r} more than once")
    regions = [r for r in regions_a if r in regions_b]
    if not regions:
        raise InputError("the two reports share no region")

    # one set of paired tests keyed (region, metric); the FDR family is
    # each region's keys, or all of them for the whole table
    families = [[(region, m) for m in metrics] for region in regions]
    if args.fdr_family == "table":
        families = [[key for family in families for key in family]]
    records = []
    for family in families:
        for res in compare_models(a, b, family, cfg["fdr_q"]):
            region, metric = res.metric
            records.append({**asdict(res), "region": region, "metric": metric})
    _write_table(_out_dir(cfg), "compare", "rows", COMPARE_COLUMNS, records, cfg)
    return 0


# -- contrast ---------------------------------------------------------------

def cmd_contrast(args, cfg: dict) -> int:
    image_path = _require_file(args.image, "--image")
    mask = read_volume(_require_file(args.mask, "--mask"))
    # the image is read only where contrast needs it, at the mask and ring voxels
    image = functools.partial(read_voxels, image_path, grid=mask, strict=cfg["strict_grid"])
    subject_id = args.subject_id or Path(args.mask).name.split(".")[0]
    if args.mode == "per_cluster":
        mask_mean, shell_mean, contrast = contrast_stat_per_cluster(
            image, mask, cfg["connectivity"])
    else:
        mask_mean, shell_mean, contrast = contrast_stat(image, mask, cfg["connectivity"])
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

def cmd_clusters(args, cfg: dict) -> int:
    if args.save_labels:
        # a file, in a directory that exists unless it is --out; --out and
        # its parents are directories once it is made below
        labels, out_dir = Path(args.save_labels), Path(cfg["out_dir"]).resolve()
        if labels.is_dir() or out_dir.is_relative_to(labels.resolve()):
            raise InputError(f"--save-labels: is a directory: {args.save_labels}")
        if not labels.parent.is_dir() and labels.parent.resolve() != out_dir:
            raise InputError(f"--save-labels: no such directory: {labels.parent}")
    mask = read_volume(_require_file(args.mask, "--mask"))
    lm = label_components(mask, cfg["connectivity"])
    out = _out_dir(cfg)
    sizes = lm.component_sizes
    # the same IEEE product as the int size times the float voxel volume
    write_csv(out / "cluster_sizes.csv", CLUSTER_SIZE_COLUMNS,
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
        write_csv(out / "size_histogram.csv", HISTOGRAM_COLUMNS, zip(*cells.values()))
        histogram = ("histogram", cells)
    _write_json(out / "clusters.json", payload, cfg, histogram)
    if args.save_labels:
        write_volume(lm, args.save_labels, datatype=8)
    return 0


# -- phantom ---------------------------------------------------------------

# a tuple value's shape, by its length, as its parse error states it
_TUPLE_FORMS = {2: "lo,hi", 3: "three comma-separated values"}
# PhantomSpec field -> its flag, where that is not --<field> with - for _
_PHANTOM_FLAGS = {"tube_offset": "--offset"}


def _phantom_flag(name: str) -> str:
    return _PHANTOM_FLAGS.get(name, "--" + name.replace("_", "-"))


def _parse_value(text: str, flag: str, default):
    """`text` as a value shaped as `default`: a scalar of its type, or a
    tuple of as many comma-separated values, each of its item's type."""
    items = default if isinstance(default, tuple) else (default,)
    parts = text.split(",") if isinstance(default, tuple) else [text]
    if len(parts) != len(items):
        raise InputError(f"{flag} expects {_TUPLE_FORMS[len(items)]}, got {text!r}")
    try:
        values = tuple(type(item)(part) for item, part in zip(items, parts))
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}") from exc
    return values if isinstance(default, tuple) else values[0]


def _parse_perturbation(text: str, connectivity: int) -> Perturbation:
    kind, _, param = text.partition(":")
    if kind not in PERTURBATION_PARAMS:
        raise InputError(f"unknown perturbation {kind!r}")
    name = PERTURBATION_PARAMS[kind]
    given = {}
    if name is not None:  # dilate_once has no parameter, and ignores one given
        default = Perturbation.__dataclass_fields__[name].default
        given[name] = _parse_value(param, f"--perturb {kind}", default)
    return Perturbation(kind=kind, connectivity=connectivity, **given)


def cmd_phantom(args, cfg: dict) -> int:
    p = _parse_perturbation(args.perturb, cfg["connectivity"]) if args.perturb else None
    # a flag not given keeps its field's default; argparse has typed the scalars
    given = {}
    for field in fields(PhantomSpec):
        value = getattr(args, field.name)
        if value is not None:
            given[field.name] = (_parse_value(value, _phantom_flag(field.name), field.default)
                                 if isinstance(field.default, tuple) else value)
    spec = PhantomSpec(**given)
    image, truth, count = generate(spec)
    # a perturbation that does not apply to this truth is rejected before any write
    pred = perturb(truth, p, seed=args.perturb_seed) if p is not None else None
    out = _out_dir(cfg)
    write_volume(image, out / "image.nii.gz", datatype=64)
    write_volume(truth, out / "truth.nii.gz", datatype=2)
    payload = {"spec": asdict(spec), "cluster_count": count}
    if p is not None:
        write_volume(pred, out / "pred.nii.gz", datatype=2)
        payload["perturbation"] = asdict(p)
        payload["perturb_seed"] = args.perturb_seed
    _write_json(out / "phantom_spec.json", payload, cfg)
    return 0


# -- folds ---------------------------------------------------------------

def cmd_folds(args, cfg: dict) -> int:
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

    def command(name, func, help):
        """A subcommand with the flags of the settings it reads, and --config."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for key in COMMAND_SETTINGS[name]:
            _, flag, options = SETTINGS[key]
            p.add_argument(flag, dest=key, default=None, **options)
        p.add_argument("--config", help="JSON config file merged under explicit flags")
        return p

    p = command("metrics", cmd_metrics, "evaluate one prediction against one reference")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--roi-wm")
    p.add_argument("--roi-bg")
    p.add_argument("--subject-id")

    p = command("aggregate", cmd_aggregate,
                "evaluate a manifest and aggregate per region/site")
    p.add_argument("--manifest", required=True)
    p.add_argument("--per-site", action="store_true")
    p.add_argument("--scheme", choices=["5fcv", "losocv"],
                   help="labels the report; losocv also emits the site matrix")

    p = command("compare", cmd_compare,
                "paired Wilcoxon + FDR between two per-subject CSVs")
    p.add_argument("--a", required=True, help="per-subject CSV of model A")
    p.add_argument("--b", required=True, help="per-subject CSV of model B")
    p.add_argument("--metrics", help="comma-separated metric subset")
    p.add_argument("--fdr-family", choices=["region", "table"], default="region")

    p = command("contrast", cmd_contrast, "mask-vs-surroundings intensity contrast")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--mode", choices=["global", "per_cluster"], default="global")
    p.add_argument("--subject-id")
    p.add_argument("--modality", default="")

    p = command("clusters", cmd_clusters, "cluster sizes and size histogram of one mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--log-binning", action="store_true")
    p.add_argument("--save-labels", help="write the label map as NIfTI i32")

    p = command("phantom", cmd_phantom, "generate a synthetic tubular phantom")
    for field in fields(PhantomSpec):
        flag = _phantom_flag(field.name)
        scalar = not isinstance(field.default, tuple)  # a tuple is parsed by _parse_value
        p.add_argument(flag, dest=field.name, type=type(field.default) if scalar else str,
                       metavar=flag[2:].replace("-", "_").upper())
    p.add_argument("--perturb",
                   help="also write pred.nii.gz, e.g. delete_fraction:0.5, "
                        "drop_clusters:2, dilate_once, translate:1,0,0")
    p.add_argument("--perturb-seed", type=int, default=0)

    p = command("folds", cmd_folds, "deterministic 5-fold or leave-one-site-out split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scheme", choices=["5fcv", "losocv"], required=True)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _resolve_config(args))
    except (InputError, OSError) as exc:
        print(f"pvseval: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"pvseval: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

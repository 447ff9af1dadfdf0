#!/usr/bin/env python3
"""Layered, oracle-checked benchmark of the pvseval CLI.

    python3 perfbench/run.py --workload subject_sparse --seed 20250828 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload, untraced and traced

Run from the root of a source checkout; pvseval is imported from its `src/`.
Set-up builds the workload's inputs from the seed (timed, several times),
the oracle's expectations are computed from the ground truth (untimed), and
measure.py then runs the workload's CLI commands in a fresh process and
checks every output. The last stdout line is the result object; the line
before it is the run record (machine, inputs, diagnostics). Both, and the
spans of a traced run, are also written under .perfbench_work/<workload>/.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

# numpy, scipy, pvseval and this directory's modules are imported inside
# functions: run() starts measure.py before this process grows (see there)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("subject_sparse", "cohort_noisy")
SETUP_REPEATS = 2  # a cohort_noisy build takes ~7 s; two keep its run under a minute
MIN_ITERATIONS = 3  # after the warm-up iteration
RUN_BUDGET_S = 160  # the whole run must end within 180 s

END_TO_END = {
    "setup_s": "s", "metrics_ms": "ms", "contrast_ms": "ms", "contrast_cluster_ms": "ms",
    "clusters_ms": "ms", "subjects_per_s": "1/s", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("bytes", "bytes_in", "bytes_out")):
        return "bytes"
    if name.endswith("mb_s"):
        return "MB/s"
    if name.endswith(("_frac", "_ratio", "efficiency")):
        return "ratio"
    return "count"


def _op(out: Path, label: str, check: str, expect: str, argv: list[str]) -> dict:
    span = "cli." + ("aggregate" if label.startswith("aggregate") else label)
    return {"label": label, "span": span, "check": check, "expect": expect,
            "argv": argv + ["--out", str(out / label)], "out": str(out / label)}


def subject_ops(subject, out: Path) -> list[dict]:
    rois = []
    if subject.roi_paths:
        rois = ["--roi-wm", subject.roi_paths["WM"], "--roi-bg", subject.roi_paths["BG"]]
    image, pred = subject.image_path, subject.pred_path
    return [
        _op(out, "metrics", "metrics", "metrics",
            ["metrics", "--pred", pred, "--ref", subject.ref_path, *rois]),
        _op(out, "contrast", "contrast", "contrast",
            ["contrast", "--image", image, "--mask", pred, "--mode", "global"]),
        _op(out, "contrast_cluster", "contrast", "contrast_cluster",
            ["contrast", "--image", image, "--mask", pred, "--mode", "per_cluster"]),
        _op(out, "clusters", "clusters", "clusters",
            ["clusters", "--mask", pred, "--save-labels", str(out / "clusters" / "labels.nii.gz")]),
    ]


def subject_expectations(subject) -> dict:
    import oracle

    labels, n = oracle.label(subject.pred)
    contrast = oracle.contrast(subject.image, subject.pred, labels, n)
    return {
        "metrics": oracle.subject_records(subject.pred, subject.ref, subject.rois),
        "contrast": contrast["global"],
        "contrast_cluster": contrast["per_cluster"],
        "clusters": oracle.canonical_labels(labels, n),
    }


def cohort_ops(cohort, out: Path, workers: int, seed: int) -> list[dict]:
    manifest_a, manifest_b = cohort.manifests["A"], cohort.manifests["B"]
    aggregate = ["aggregate", "--scheme", "losocv", "--workers", str(workers), "--manifest"]
    return [
        _op(out, "aggregate_a", "aggregate_a", "cohort", aggregate + [manifest_a]),
        _op(out, "aggregate_b", "aggregate_b", "cohort", aggregate + [manifest_b]),
        _op(out, "compare", "compare", "cohort",
            ["compare", "--a", str(out / "aggregate_a" / "per_subject.csv"),
             "--b", str(out / "aggregate_b" / "per_subject.csv"), "--fdr-family", "region"]),
        _op(out, "folds", "folds", "cohort",
            ["folds", "--manifest", manifest_a, "--scheme", "5fcv", "--seed", str(seed)]),
    ]


def setup(workload: str, seed: int, dest: Path):
    """Build the inputs once; returns (seconds, built workload)."""
    import workloads

    builders = {"subject_sparse": workloads.build_subject_sparse,
                "cohort_noisy": workloads.build_cohort_noisy}
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    start = perf_counter()
    built = builders[workload](seed, dest)
    return perf_counter() - start, built


def plan_for(workload: str, built, seed: int, out: Path) -> tuple[dict, dict, dict]:
    """(plan, expectations, input record) for the measuring process."""
    import oracle

    workers = min(2, os.cpu_count() or 1)
    if workload == "cohort_noisy":
        probe = built.probe
        expectations = subject_expectations(probe)
        expectations["cohort"] = oracle.cohort_expectations(built)
        plan = {"study": cohort_ops(built, out, workers, seed), "probe": subject_ops(probe, out),
                "evaluations": 2 * len(built.refs), "workers": workers}
        n_subjects, study_grid = len(built.refs), next(iter(built.refs.values()))
    else:
        probe = built
        expectations = subject_expectations(built)
        plan = {"study": subject_ops(built, out), "probe": [], "evaluations": 1, "workers": 1}
        n_subjects, study_grid = 1, built.ref
    # array sizes are those of the single-subject commands' grid
    voxels = probe.ref.size
    llc = cache_bytes()
    record = {
        "subjects": n_subjects,
        "study_dims": list(study_grid.shape),
        "dims": list(probe.ref.shape),
        "voxels": voxels,
        "bool_grid_bytes": voxels,
        "int32_label_map_bytes": 4 * voxels,
        "float64_image_bytes": 8 * voxels,
        "llc_bytes": llc,
        "float64_image_per_llc": 8 * voxels / llc if llc else None,
        "probe_pred_fg_voxels": int(probe.pred.sum()),
        "probe_pred_clusters": int(expectations["clusters"]["sizes"].size),
        "probe_pred_largest_cluster": int(expectations["clusters"]["sizes"].max()),
        "input_bytes": sum(p.stat().st_size for p in (out.parent / "inputs").iterdir()),
    }
    return plan, expectations, record


def prepare(args, work: Path):
    """Build the inputs SETUP_REPEATS times (timed), then the plan and the
    oracle's expectations from the last build (untimed)."""
    import spans

    tracer = spans.Tracer()
    phantom = [("workloads", "generate", "phantom.generate", None),
               ("workloads", "perturb", "phantom.perturb", None)]
    setup_s, phantom_ms = [], {"phantom.generate.ms": [], "phantom.perturb.ms": []}
    for _ in range(SETUP_REPEATS):
        first = len(tracer.names)
        with tracer.installed(phantom if args.trace else ()):
            seconds, built = setup(args.workload, args.seed, work / "inputs")
        setup_s.append(seconds)
        totals = tracer.layer_totals(first)
        for name in phantom_ms:
            phantom_ms[name].append(totals[name[:-3]]["ms"])
    plan, expectations, inputs = plan_for(args.workload, built, args.seed, work / "out")
    return plan, expectations, inputs, setup_s, phantom_ms


def cache_bytes() -> int | None:
    """Size of the highest cache level of cpu0, from sysfs."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        best = int(text.rstrip("KMG")) * scale
    return best


def machine_record() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc_bytes": cache_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run(args) -> dict:
    started = time.time()
    deadline = started + RUN_BUDGET_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # started while this process is small: see measure.py
    child = subprocess.Popen([sys.executable, str(HERE / "measure.py"), str(work)],
                             stdin=subprocess.PIPE, text=True)
    try:
        plan, expectations, inputs, setup_s, phantom_ms = prepare(args, work)
        plan.update(trace=bool(args.trace), seconds=args.seconds, deadline=deadline,
                    min_iterations=1 if args.trace else MIN_ITERATIONS,
                    src=str(SRC))
        with open(work / "plan.pkl", "wb") as fh:
            pickle.dump((plan, expectations), fh)
        child.stdin.write("go\n")
        child.stdin.close()
        child.wait(timeout=max(deadline - time.time(), 0) + 15)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"measure.py exited with {child.returncode}")
    measured = json.loads((work / "measure.json").read_text())

    if args.trace:
        values = dict(measured["per_layer"])
        values.update({name: statistics.median(ms) for name, ms in phantom_ms.items()})
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in sorted(values.items())}
        (work / "spans.json").write_text(json.dumps(measured.pop("spans")))
        diagnostics = {"ops": measured["ops"]}
    else:
        stats = dict(measured["metrics"])
        stats["setup_s"] = {"median": statistics.median(setup_s), "n": len(setup_s),
                            "max": max(setup_s), "samples": setup_s}
        metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END.items()}
        diagnostics = {name: {k: v for k, v in s.items() if k != "median"} for name, s in stats.items()}
    diagnostics["run_s"] = time.time() - started
    attempted, failed = measured["attempted"], measured["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(), "inputs": inputs, "diagnostics": diagnostics,
        "failed_frac": failed / attempted if attempted else 1.0, "problems": measured["problems"],
    }
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    shutil.rmtree(work / "inputs", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "plan.pkl").unlink()
    print(json.dumps({"record": record}))
    return result


def run_all(args) -> int:
    """Each workload untraced, then traced, each in its own process; prints
    every metric with its unit."""
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            correct &= result["correct"]
            print(f"{workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:46s} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure at least this long, and at least three "
                             "iterations after a warm-up one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run that reports per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "pvseval" / "__init__.py").is_file():
        print(f"perfbench: no pvseval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pvseval
    import workloads

    if Path(pvseval.__file__).resolve().parent != SRC / "pvseval":
        print(f"perfbench: pvseval imported from {pvseval.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

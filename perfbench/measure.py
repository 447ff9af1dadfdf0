"""Measuring process: runs a plan of CLI calls and checks each one.

    python3 perfbench/measure.py WORKDIR

run.py starts this script before it builds anything, then builds the inputs
and the oracle's expectations, pickles them with the op table into
WORKDIR/plan.pkl and writes a line to our stdin. Starting first keeps this
process's peak RSS (which Linux carries over from the parent at exec) to
the measured commands alone. Every op is one `pvseval.cli.main(argv)` call,
timed from outside; its outputs are then checked against the oracle's
expectations. The result goes to WORKDIR/measure.json.
"""

from __future__ import annotations

import gc
import json
import pickle
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import checks

SUBJECT_OPS = ("metrics", "contrast", "contrast_cluster", "clusters")


class Runner:
    """Runs ops, counts attempts and failures, and keeps per-op walls."""

    def __init__(self, plan: dict, expectations: dict):
        self.plan = plan
        self.expectations = expectations
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[float]] = {}

    def run_op(self, op: dict, tracer=None, argv=None) -> float:
        from pvseval import cli

        out = Path(op["out"])
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()  # each op starts without the previous op's garbage
        if tracer is not None:
            tracer.start_op(op["label"])
            index = tracer.open(op["span"])
        start = perf_counter()
        try:
            code = cli.main(argv or op["argv"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        finally:
            wall = perf_counter() - start
            if tracer is not None:
                tracer.close(index)
        self.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else None
        if problems is None:
            try:
                problems = checks.check(op["check"], out, self.expectations[op["expect"]])
            except Exception as exc:  # noqa: BLE001 - a missing or unreadable output is a failure
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"{op['label']}: {p}" for p in problems[:5]]
        self.walls.setdefault(op["label"], []).append(wall)
        return wall

    def iteration(self, tracer=None, workers: int | None = None) -> float:
        """One pass over the study ops, then the probe ops; returns study wall."""
        study = 0.0
        for op in self.plan["study"]:
            study += self.run_op(op, tracer, _with_workers(op["argv"], workers))
        for op in self.plan["probe"]:
            self.run_op(op, tracer)
        return study


def _with_workers(argv: list[str], workers: int | None) -> list[str]:
    if workers is None or "--workers" not in argv:
        return argv
    argv = list(argv)
    argv[argv.index("--workers") + 1] = str(workers)
    return argv


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _spread(samples: list[float]) -> dict:
    """Median, sample count and the samples; the largest is the tail, as no
    run has ten samples beyond any lower percentile."""
    return {"median": statistics.median(samples), "n": len(samples), "max": max(samples),
            "samples": samples}


def _keep_going(started: float, iterations: int, last: float, plan: dict) -> bool:
    if time.time() + last > plan["deadline"]:
        return False
    return iterations < plan["min_iterations"] or perf_counter() - started < plan["seconds"]


def measure(runner: Runner) -> dict:
    """Untraced iterations: the end-to-end metrics."""
    plan = runner.plan
    per_study = []
    started, last = perf_counter(), 0.0
    while _keep_going(started, len(per_study), last, plan):
        begin = perf_counter()
        per_study.append(plan["evaluations"] / runner.iteration())
        last = perf_counter() - begin
    metrics = {f"{label}_ms": _spread([w * 1e3 for w in runner.walls[label]])
               for label in SUBJECT_OPS}
    metrics["subjects_per_s"] = _spread(per_study)
    metrics["peak_rss_mb"] = _spread([peak_rss_mb()])
    return {"metrics": metrics}


def measure_traced(runner: Runner) -> dict:
    """Alternate untraced and traced iterations; derive per-layer metrics
    from the spans of each traced one. Cohort iterations run with one worker
    so every span stays in this process."""
    from spans import PATCHES, Tracer  # imports scipy, for the comparator

    plan = runner.plan
    serial = 1 if plan["workers"] > 1 else None
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    started, last = perf_counter(), 0.0
    while _keep_going(started, len(traced), last, plan):
        begin = perf_counter()
        t0 = perf_counter()
        runner.iteration(workers=serial)
        untraced.append(perf_counter() - t0)
        first = len(tracer.names)
        with tracer.installed():
            t0 = perf_counter()
            runner.iteration(tracer, workers=serial)
            wall = perf_counter() - t0
        totals = tracer.layer_totals(first)
        traced.append(wall - totals["trace.bookkeeping"]["ms"] / 1e3)
        op_ids = sorted(set(tracer.ops[first:]))
        layers.append(layer_metrics(totals, _sum_counts(tracer, op_ids)))
        last = perf_counter() - begin

    per_layer = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    per_layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    per_layer["harness.parallel_efficiency"] = 0.0
    if any(op["label"].startswith("aggregate") for op in plan["study"]):
        # evaluate_manifest wall at the gated worker count, timed without spans
        timer = Tracer()
        with timer.installed([p for p in PATCHES if p[2] == "harness.evaluate_manifest"]):
            runner.iteration(timer)
        wall_ms = timer.layer_totals()["harness.evaluate_manifest"]["ms"]
        per_layer["harness.parallel_efficiency"] = (
            per_layer["harness.evaluate_record.busy_ms"] / (plan["workers"] * wall_ms))
    # work counts of each op in the last traced iteration
    ops = {tracer.op_labels[i]: dict(tracer.counts[i]) for i in op_ids}
    return {"per_layer": per_layer, "ops": ops, "spans": tracer.spans()}


def _sum_counts(tracer, op_ids) -> dict[str, float]:
    out: dict[str, float] = {}
    for i in op_ids:
        for key, value in tracer.counts[i].items():
            out[key] = out.get(key, 0.0) + value
    return out


LAYER_TIMES = (
    # (metric, span name, field)
    ("nifti.read_volume.ms", "nifti.read_volume", "ms"),
    ("nifti.write_volume.ms", "nifti.write_volume", "ms"),
    ("volume.intersect.ms", "volume.intersect", "ms"),
    ("ccl.label_components.ms", "ccl.label_components", "ms"),
    ("ccl.size_histogram.ms", "ccl.size_histogram", "ms"),
    ("metrics.evaluate_subject.self_ms", "metrics.evaluate_subject", "self_ms"),
    ("metrics.voxel_metrics.self_ms", "metrics.voxel_metrics", "self_ms"),
    ("metrics.cluster_metrics.self_ms", "metrics.cluster_metrics", "self_ms"),
    ("morphology.contrast_stat.self_ms", "morphology.contrast_stat", "self_ms"),
    ("morphology.contrast_stat_per_cluster.self_ms", "morphology.contrast_stat_per_cluster", "self_ms"),
    ("harness.read_manifest.ms", "harness.read_manifest", "ms"),
    ("harness.evaluate_manifest.ms", "harness.evaluate_manifest", "ms"),
    ("harness.evaluate_record.busy_ms", "harness.evaluate_record", "ms"),
    ("harness.aggregate.ms", "harness.aggregate", "ms"),
    ("harness.losocv_table.ms", "harness.losocv_table", "ms"),
    ("harness.make_folds.ms", "harness.make_folds", "ms"),
    ("stats.compare_models.ms", "stats.compare_models", "ms"),
    ("stats.bh_fdr.ms", "stats.bh_fdr", "ms"),
    ("cli.metrics.self_ms", "cli.metrics", "self_ms"),
    ("cli.contrast.self_ms", "cli.contrast", "self_ms"),
    ("cli.contrast_cluster.self_ms", "cli.contrast_cluster", "self_ms"),
    ("cli.clusters.self_ms", "cli.clusters", "self_ms"),
    ("cli.aggregate.self_ms", "cli.aggregate", "self_ms"),
    ("cli.compare.self_ms", "cli.compare", "self_ms"),
    ("cli.folds.self_ms", "cli.folds", "self_ms"),
)
LAYER_CALLS = (
    ("nifti.read_volume.calls", "nifti.read_volume"),
    ("volume.intersect.calls", "volume.intersect"),
    ("ccl.label_components.calls", "ccl.label_components"),
    ("stats.wilcoxon_signed_rank.calls", "stats.wilcoxon_signed_rank"),
)
LAYER_COUNTS = (
    "nifti.read_volume.bytes_in", "nifti.read_volume.raw_bytes",
    "nifti.write_volume.bytes_out", "nifti.write_volume.raw_bytes",
    "ccl.grid_voxels", "ccl.fg_voxels", "ccl.runs", "ccl.components",
    "morphology.clusters_contrasted",
)


def layer_metrics(totals: dict, counts: dict) -> dict[str, float]:
    """Per-layer values of one traced iteration; a layer that did not run is 0."""
    def get(span, field):
        return totals[span][field] if span in totals else 0.0

    out = {metric: get(span, field) for metric, span, field in LAYER_TIMES}
    out.update({metric: get(span, "calls") for metric, span in LAYER_CALLS})
    out.update({key: counts.get(key, 0.0) for key in LAYER_COUNTS})
    read_ms = out["nifti.read_volume.ms"]
    out["nifti.read_volume.mb_s"] = (
        out["nifti.read_volume.raw_bytes"] / 1e6 / (read_ms / 1e3) if read_ms else 0.0)
    scipy_ms = counts.get("ccl.scipy_ms", 0.0)
    out["ccl.label_components.scipy_ratio"] = out["ccl.label_components.ms"] / scipy_ms if scipy_ms else 0.0
    calls = out["stats.wilcoxon_signed_rank.calls"]
    out["stats.wilcoxon.exact_frac"] = counts.get("stats.wilcoxon.exact", 0.0) / calls if calls else 0.0
    return out


def main(argv: list[str]) -> int:
    (work,) = argv
    if sys.stdin.readline().strip() != "go":
        return 1  # run.py gave up before the plan was ready
    with open(Path(work) / "plan.pkl", "rb") as fh:  # written by run.py in this checkout
        plan, expectations = pickle.load(fh)
    sys.path.insert(0, plan["src"])
    runner = Runner(plan, expectations)
    runner.iteration()  # warm-up: checked and counted, but its walls are not samples
    runner.walls.clear()
    result = measure_traced(runner) if plan["trace"] else measure(runner)
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems[:50])
    (Path(work) / "measure.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

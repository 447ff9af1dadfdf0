#!/usr/bin/env python3
"""Seeded mutation sampler: how many one-site mutants of a module the tests kill.

Each mutant changes one site of a module: it swaps a comparison, arithmetic
or and/or operator, or adds 1 to an integer constant. For each module named,
the sampler draws --sample of its sites with random.Random(--seed), writes
each mutant into a copy of the repository (never into its src/), and runs
the module's own test files plus test_golden.py. A mutant that survives them
is run again against all of tier-1. It prints each survivor with its line
and its before/after text, then killed/total per module.

    python scripts/mutants.py ccl morphology harness nifti --sample 30 --seed 1

A mutant is written as ast.unparse of the mutated module, so each module is
first checked to pass its tests unparsed and unmutated. The score is a
measurement, not a gate: a surviving mutant may be one that no output can
tell apart from the original.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# each module's own test files; test_golden.py runs with every module
TESTS = {
    "ccl": ["test_ccl.py"],
    "cli": ["test_cli.py"],
    "harness": ["test_harness.py", "test_cli.py"],
    "metrics": ["test_metrics.py", "test_volume.py"],
    "morphology": ["test_morphology.py"],
    "nifti": ["test_nifti.py"],
    "phantom": ["test_phantom.py"],
    "stats": ["test_stats.py"],
}
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.MatMult: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}
TIMEOUT = 900  # seconds; a mutant that runs longer counts as killed


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """(node, index of the operator in a comparison, else None) of every
    mutable site outside type annotations, which are never evaluated, in
    ast.walk order, which is fixed for a given source."""
    annotations = [getattr(node, field) for node in ast.walk(tree)
                   for field in ("annotation", "returns") if getattr(node, field, None)]
    skip = {id(node) for annotation in annotations for node in ast.walk(annotation)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)):
            if type(node.op) in SWAPS:
                found.append((node, None))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, None))
    return found


def mutant(source: str, k: int) -> tuple[str, int, str, str]:
    """(mutated module, line, site before, site after) of site k."""
    tree = ast.parse(source)
    node, i = sites(tree)[k]
    before = ast.unparse(node)
    if i is not None:
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), node.lineno, before, ast.unparse(node)


def passes(root: Path, tests: list[str]) -> bool:
    """Whether pytest passes the given test files (all of tier-1 if none)."""
    # no bytecode: two mutants of one size written within a second would
    # otherwise share a stale .pyc
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *(f"tests/{t}" for t in tests)]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def score(root: Path, module: str, sample: int, seed: int) -> tuple[int, int]:
    """Run the sampled mutants of one module in the copy at root; print each
    survivor and return (killed, total)."""
    path = root / "src" / "pvseval" / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    tests = [*TESTS[module], "test_golden.py"]
    count = len(sites(ast.parse(source)))
    chosen = sorted(random.Random(seed).sample(range(count), min(sample, count)))
    try:
        path.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        if not passes(root, tests):
            sys.exit(f"{module}: its tests fail on the unmutated, unparsed module")
        killed = 0
        for k in chosen:
            text, line, before, after = mutant(source, k)
            path.write_text(text, encoding="utf-8")
            if not passes(root, tests) or not passes(root, []):
                killed += 1
            else:
                print(f"{module}:{line}: survived: {before}  ->  {after}", flush=True)
    finally:
        path.write_text(source, encoding="utf-8")
    return killed, len(chosen)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", choices=sorted(TESTS))
    parser.add_argument("--sample", type=int, default=30, help="sites drawn per module")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the repository to measure (copied, never written)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="pvseval-mutants-") as work:
        root = Path(work) / "repo"
        shutil.copytree(args.repo, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "runs", ".perfbench_work"))
        scores = {m: score(root, m, args.sample, args.seed) for m in args.modules}
    for module, (killed, total) in scores.items():
        print(f"{module}: {killed}/{total} killed")


if __name__ == "__main__":
    main()

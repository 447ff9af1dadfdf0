"""Paired nonparametric comparison of two models' per-subject metrics.

Wilcoxon signed-rank with zero differences dropped; the two-sided p-value
is exact (distribution of the rank sum over all 2^n sign assignments,
tabulated with integer counts) when n_eff <= 25 and |d| has no ties,
otherwise a normal approximation with tie-corrected variance and a 0.5
continuity correction. Benjamini-Hochberg adjusts p across a caller-chosen
family of metrics, and the matched-pairs rank-biserial correlation
(w_plus - w_minus)/(w_plus + w_minus) is the effect size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroDifferencesError,
    LengthMismatchError,
    NoCommonSubjectsError,
    OutOfRangeError,
    ZeroRankSumError,
)

EXACT_LIMIT = 25


@dataclass(frozen=True)
class WilcoxonResult:
    w_plus: float
    w_minus: float
    p_value: float
    method: str  # "exact" or "normal_approx"
    n_eff: int


@dataclass
class StatResult:
    """One metric's paired-comparison outcome (positive favors model A).

    A row with no test (method "undefined" or "all_zero_diffs") keeps the
    test fields' defaults."""

    metric: str | tuple[str, str]  # the report key compared
    n: int  # effective pairs after zero-difference removal
    n_pairs: int  # defined pairs entering medians
    median_a: float
    median_b: float
    median_diff: float
    method: str
    w_plus: float | None = None
    w_minus: float | None = None
    p_raw: float | None = None
    p_fdr: float | None = None
    significant: bool = False
    rank_biserial: float | None = None


def _exact_tail_counts(n: int) -> np.ndarray:
    """counts[w] = number of sign assignments of ranks 1..n with W+ == w."""
    counts = np.zeros(n * (n + 1) // 2 + 1, dtype=np.int64)
    counts[0] = 1
    top = 0
    for r in range(1, n + 1):
        top += r
        counts[r : top + 1] += counts[0 : top + 1 - r].copy()
    return counts


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a, b, method: str = "auto") -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test of a vs b.

    method="auto" picks the exact path when n_eff <= 25 and |d| is
    tie-free, else the normal approximation; "exact"/"approx" force a path
    (exact is refused when ties are present).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatchError(f"paired samples differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise LengthMismatchError("need at least one pair")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise AllZeroDifferencesError("all paired differences are zero")

    # each |d| tie group of size t ending at rank e shares the midrank
    # e - (t - 1)/2, an exact half-integer
    _, inverse, ties = np.unique(np.abs(d), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(ties) - 0.5 * (ties - 1))[inverse]
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    has_ties = ties.size < n

    if method == "auto":
        method = "exact" if (n <= EXACT_LIMIT and not has_ties) else "approx"
    if method == "exact":
        if has_ties:
            raise ValueError("exact method is undefined with ties in |d|")
        w_min = int(round(min(w_plus, w_minus)))
        counts = _exact_tail_counts(n)
        tail = int(counts[: w_min + 1].sum())
        p = min(1.0, 2.0 * tail / float(2**n))
        return WilcoxonResult(w_plus, w_minus, max(p, math.ulp(0.0)), "exact", n)
    if method != "approx":
        raise ValueError(f"method must be auto/exact/approx, got {method!r}")

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= float((ties.astype(np.float64) ** 3 - ties).sum()) / 48.0
    z = (min(w_plus, w_minus) - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * _normal_sf(-z))
    return WilcoxonResult(w_plus, w_minus, max(p, math.ulp(0.0)), "normal_approx", n)


def bh_fdr(p_values) -> list[float]:
    """Benjamini-Hochberg step-up adjustment, original order preserved."""
    p = np.asarray(list(p_values), dtype=np.float64)
    if p.size == 0:
        return []
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise OutOfRangeError("p-values must lie in (0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    # p * (m/j), not p*m/j: the j == m factor must be exactly 1 so the
    # largest p is never rounded below itself
    scaled = p[order] * (m / np.arange(1, m + 1))
    adjusted = np.minimum.accumulate(scaled[::-1])[::-1]
    adjusted = np.minimum(adjusted, 1.0)
    out = np.empty(m, dtype=np.float64)
    out[order] = adjusted
    return out.tolist()


def rank_biserial(w_plus: float, w_minus: float) -> float:
    """Matched-pairs effect size in [-1, 1]; positive favors sample A."""
    total = w_plus + w_minus
    if total <= 0:
        raise ZeroRankSumError("w_plus + w_minus must be positive")
    return (w_plus - w_minus) / total


def compare_models(
    a_report: dict[str, dict],
    b_report: dict[str, dict],
    metrics: list,
    q: float = 0.05,
) -> list[StatResult]:
    """Paired comparison per metric, FDR-adjusted across the given family.

    Reports map subject_id -> {key: value or None}, a key being a metric
    name or any other label such as (region, metric). Subjects missing
    from either report, and pairs where either value is None or NaN, are
    dropped pairwise per key.
    """
    if not 0.0 < q < 1.0:
        raise OutOfRangeError(f"q must lie in (0, 1), got {q}")
    common = sorted(set(a_report) & set(b_report))
    if not common:
        raise NoCommonSubjectsError("reports share no subject ids")

    results: list[StatResult] = []
    for metric in metrics:
        # (a, b) of each common subject; None reads as NaN, and a pair
        # holding one is dropped
        pairs = np.array([(a_report[sid].get(metric), b_report[sid].get(metric))
                          for sid in common], dtype=np.float64)
        av, bv = pairs[~np.isnan(pairs).any(axis=1)].T
        if not av.size:
            results.append(StatResult(metric, 0, 0, math.nan, math.nan, math.nan, "undefined"))
            continue
        medians = float(np.median(av)), float(np.median(bv)), float(np.median(av - bv))
        try:
            test = wilcoxon_signed_rank(av, bv)
        except AllZeroDifferencesError:
            results.append(StatResult(metric, 0, av.size, *medians, "all_zero_diffs"))
            continue
        results.append(StatResult(metric, test.n_eff, av.size, *medians, test.method,
                                  test.w_plus, test.w_minus, test.p_value,
                                  rank_biserial=rank_biserial(test.w_plus, test.w_minus)))

    defined = [r for r in results if r.p_raw is not None]
    if defined:
        adjusted = bh_fdr([r.p_raw for r in defined])
        for r, p_adj in zip(defined, adjusted):
            r.p_fdr = p_adj
            r.significant = p_adj <= q
    return results

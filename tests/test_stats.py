import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvseval import stats
from pvseval.errors import (
    AllZeroDifferencesError,
    LengthMismatchError,
    NoCommonSubjectsError,
    OutOfRangeError,
    ZeroRankSumError,
)
from pvseval.stats import (
    bh_fdr,
    compare_models,
    rank_biserial,
    wilcoxon_signed_rank,
)

from oracles import bh_direct, wilcoxon_enum_p


def diffs_with_w_plus(n: int, w: int) -> np.ndarray:
    """Tie-free paired differences with magnitudes 1..n and W+ == w."""
    signs = [-1] * n
    remaining = w
    for magnitude in range(n, 0, -1):
        if remaining >= magnitude:
            signs[magnitude - 1] = 1
            remaining -= magnitude
    assert remaining == 0
    return np.array([s * m for m, s in zip(range(1, n + 1), signs)], float)


class TestWilcoxon:
    def test_all_positive_n5(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert res.w_minus == 0.0
        assert res.w_plus == 15.0
        assert res.method == "exact"
        assert res.p_value == 0.0625

    def test_all_zero_differences(self):
        with pytest.raises(AllZeroDifferencesError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_zeros_dropped(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 5.0], [1.0, 0.0, 1.0])
        assert res.n_eff == 2

    def test_exact_matches_enumeration_all_cases_up_to_8(self):
        # smaller sweep here; the full n<=12 sweep runs in the acceptance suite
        for n in range(1, 9):
            for w in range(n * (n + 1) // 2 + 1):
                d = diffs_with_w_plus(n, w)
                res = wilcoxon_signed_rank(d, np.zeros(n))
                assert res.method == "exact"
                assert abs(res.p_value - wilcoxon_enum_p(d, np.zeros(n))) < 1e-12

    def test_random_no_tie_pairs_match_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=12)
            b = rng.normal(size=12)
            res = wilcoxon_signed_rank(a, b)
            assert res.method == "exact"
            assert abs(res.p_value - wilcoxon_enum_p(a, b)) < 1e-12

    def test_normal_approx_close_to_enumeration_n20(self, monkeypatch):
        # tie-free n = 20 is exact by default; a zero limit takes the approximation
        monkeypatch.setattr(stats, "EXACT_LIMIT", 0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=20)
            b = rng.normal(size=20)
            approx = wilcoxon_signed_rank(a, b)
            assert approx.method == "normal_approx"
            assert abs(approx.p_value - wilcoxon_enum_p(a, b)) < 0.01

    def test_ties_force_approximation(self):
        a = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.5])
        res = wilcoxon_signed_rank(a, np.zeros(6))
        assert res.method == "normal_approx"

    def test_large_n_uses_approximation(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=40)
        res = wilcoxon_signed_rank(a, np.zeros(40))
        assert res.method == "normal_approx"

    def test_exact_limit_is_25_tie_free_pairs(self):
        assert stats.EXACT_LIMIT == 25
        for n, method in ((25, "exact"), (26, "normal_approx")):
            d = np.arange(1.0, n + 1)
            res = wilcoxon_signed_rank(d, np.zeros(n))
            assert (res.n_eff, res.method) == (n, method)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])

    def test_no_pairs(self):
        with pytest.raises(LengthMismatchError) as got:
            wilcoxon_signed_rank([], [])
        assert str(got.value) == "need at least one pair"

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for n in (8, 20, 30):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            ab = wilcoxon_signed_rank(a, b)
            ba = wilcoxon_signed_rank(b, a)
            assert ab.p_value == ba.p_value
            assert ab.w_plus == ba.w_minus and ab.w_minus == ba.w_plus

    def test_midranks_tie_corrected_variance(self):
        # hand case: d = [1, 1] -> ranks 1.5 each, w in {0, 1.5, 3}
        res = wilcoxon_signed_rank([1.0, 1.0], [0.0, 0.0])
        assert res.w_plus == 3.0
        # mean 1.5, var = 2*3*5/24 - (2^3-2)/48 = 1.125, z = (0-1.5+0.5)/sqrt(1.125)
        expected = min(1.0, 2 * 0.5 * math.erfc((1.0 / math.sqrt(1.125)) / math.sqrt(2)))
        assert res.p_value == pytest.approx(expected, abs=1e-15)


class TestBhFdr:
    def test_hand_case(self):
        assert bh_fdr([0.01, 0.02, 0.03]) == pytest.approx([0.03, 0.03, 0.03], abs=1e-15)

    def test_single_p_unchanged(self):
        assert bh_fdr([0.2]) == [0.2]

    def test_no_p_values(self):
        assert bh_fdr([]) == []

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            bh_fdr([0.0, 0.5])
        with pytest.raises(OutOfRangeError):
            bh_fdr([0.5, 1.5])

    @given(st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=40))
    def test_dominance_and_bounds(self, ps):
        adjusted = bh_fdr(ps)
        assert all(q >= p for p, q in zip(ps, adjusted))
        assert all(q <= 1.0 for q in adjusted)
        order = np.argsort(ps, kind="stable")
        sorted_q = [adjusted[i] for i in order]
        assert all(a <= b + 1e-15 for a, b in zip(sorted_q, sorted_q[1:]))

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ps = rng.uniform(1e-6, 1.0, size=rng.integers(1, 20)).tolist()
            assert bh_fdr(ps) == pytest.approx(bh_direct(ps), abs=1e-12)


class TestRankBiserial:
    def test_extremes(self):
        assert rank_biserial(15.0, 0.0) == 1.0
        assert rank_biserial(0.0, 15.0) == -1.0
        assert rank_biserial(7.5, 7.5) == 0.0

    def test_zero_rank_sum(self):
        with pytest.raises(ZeroRankSumError):
            rank_biserial(0.0, 0.0)

    def test_antisymmetric_against_recompute(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.normal(size=15)
            b = rng.normal(size=15)
            ab = wilcoxon_signed_rank(a, b)
            ba = wilcoxon_signed_rank(b, a)
            assert rank_biserial(ab.w_plus, ab.w_minus) == -rank_biserial(
                ba.w_plus, ba.w_minus
            )


def report_from(values_by_subject):
    return {sid: dict(vals) for sid, vals in values_by_subject.items()}


class TestCompareModels:
    def test_identical_reports(self):
        report = report_from({f"s{i}": {"dsc_vox": 0.5 + i / 100} for i in range(10)})
        results = compare_models(report, report, ["dsc_vox"])
        assert results[0].method == "all_zero_diffs"
        assert results[0].p_raw is None
        assert not results[0].significant

    def test_fdr_matches_direct_application(self):
        rng = np.random.default_rng(7)
        metrics = [f"m{i}" for i in range(6)]
        a = {f"s{j}": {} for j in range(15)}
        b = {f"s{j}": {} for j in range(15)}
        for i, metric in enumerate(metrics):
            shift = 0.8 * (i / 5)
            for j in range(15):
                base = rng.normal()
                a[f"s{j}"][metric] = base + shift + rng.normal() * 0.3
                b[f"s{j}"][metric] = base
        results = compare_models(a, b, metrics, q=0.05)
        raw = [r.p_raw for r in results]
        expected = bh_fdr(raw)
        assert [r.p_fdr for r in results] == pytest.approx(expected, abs=1e-15)
        for r in results:
            assert r.significant == (r.p_fdr <= 0.05)

    def test_strict_dominance(self):
        rng = np.random.default_rng(8)
        b = {f"s{j}": {"dsc_vox": float(v), "sen_vox": float(v) * 0.9}
             for j, v in enumerate(rng.uniform(0.5, 0.9, size=12))}
        a = {sid: {k: v - 0.05 for k, v in vals.items()} for sid, vals in b.items()}
        results = compare_models(a, b, ["dsc_vox", "sen_vox"])
        for r in results:
            assert r.median_diff < 0
            assert r.rank_biserial == -1.0

    def test_no_common_subjects(self):
        with pytest.raises(NoCommonSubjectsError):
            compare_models({"a": {}}, {"b": {}}, ["dsc_vox"])

    def test_undefined_values_dropped_pairwise(self):
        a = report_from({"s1": {"m": 0.5}, "s2": {"m": None}, "s3": {"m": 0.7}})
        b = report_from({"s1": {"m": 0.4}, "s2": {"m": 0.9}, "s3": {"m": 0.6}})
        (res,) = compare_models(a, b, ["m"])
        assert res.n_pairs == 2

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        a = report_from({f"s{j}": {"m": float(rng.normal())} for j in range(14)})
        b = report_from({f"s{j}": {"m": float(rng.normal())} for j in range(14)})
        (ab,) = compare_models(a, b, ["m"])
        (ba,) = compare_models(b, a, ["m"])
        assert ab.p_raw == ba.p_raw
        assert ab.median_diff == -ba.median_diff
        assert ab.rank_biserial == -ba.rank_biserial

    def test_q_validation(self):
        report = report_from({"s1": {"m": 0.5}})
        with pytest.raises(OutOfRangeError):
            compare_models(report, report, ["m"], q=1.5)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_q_of_0_or_1_is_rejected(self, q):
        report = report_from({"s1": {"m": 0.5}})
        with pytest.raises(OutOfRangeError) as got:
            compare_models(report, report, ["m"], q=q)
        assert str(got.value) == f"q must lie in (0, 1), got {q}"

    def test_p_fdr_equal_to_q_is_significant(self):
        # one test, so p_fdr is p_raw: n = 5 distinct positive differences
        # give the exact p 2/32, and q at that value counts it
        a = report_from({f"s{j}": {"m": 1.0 + j} for j in range(5)})
        b = report_from({f"s{j}": {"m": 0.0} for j in range(5)})
        (res,) = compare_models(a, b, ["m"], q=2 / 32)
        assert res.p_fdr == res.p_raw == 2 / 32 and res.significant
        (res,) = compare_models(a, b, ["m"], q=math.nextafter(2 / 32, 0))
        assert not res.significant

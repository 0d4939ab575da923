import json
import math

import numpy as np
import pytest

from bnladder import (
    LOG2,
    DegenerateFitError,
    GramMatrix,
    IndexWindow,
    LadderIndex,
    ParameterError,
    ShellStats,
    decay_report,
    decay_report_to_json,
    fit_exponent,
    shell,
    shell_stats,
    shells_to_csv,
    truncation_suite,
    truncation_suite_to_json,
)
from bnladder.fractional import DEFAULT_QUAD


def _synthetic_gram(window, fill):
    """Dense symmetric matrix with entries fill(index_a, index_b)."""
    pts = tuple(p for p in _points(window))
    n = len(pts)
    e = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            e[i, j] = fill(pts[i].index, pts[j].index)
    e = 0.5 * (e + e.T)
    return GramMatrix(
        window=window,
        method="direct",
        smoothing=None,
        entries=e,
        err_estimate=np.zeros((n, n)),
        quad=DEFAULT_QUAD,
    )


def _points(window):
    return window.points()


def _planted_shells(m, rmax=10):
    return [
        ShellStats(r=r, count=1, mean_abs=(1 + LOG2 * r) ** (-m), max_abs=1.0, sum_abs=1.0)
        for r in range(rmax + 1)
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_fit_recovers_planted_exponent(m):
    got = fit_exponent(_planted_shells(m), (1, 10))
    assert got == pytest.approx(m, abs=1e-10)


def test_fit_constant_shells_give_zero():
    got = fit_exponent(_planted_shells(0), (1, 10))
    assert got == pytest.approx(0.0, abs=1e-10)


def test_fit_needs_three_shells():
    with pytest.raises(DegenerateFitError):
        fit_exponent(_planted_shells(2, rmax=2), (1, 2))


def test_fit_rejects_zero_mean_shells():
    shells = [ShellStats(r=r, count=1, mean_abs=0.0, max_abs=0.0, sum_abs=0.0) for r in range(6)]
    with pytest.raises(DegenerateFitError):
        fit_exponent(shells, (1, 5))


def test_fit_validates_range_and_scale(gram_3x3_raw_direct):
    with pytest.raises(ParameterError):
        fit_exponent(_planted_shells(1), (5, 2))
    # the decay scale is the constant log 2, not an argument
    with pytest.raises(TypeError):
        fit_exponent(_planted_shells(1), (1, 10), c=0.0)
    with pytest.raises(TypeError):
        decay_report(gram_3x3_raw_direct, (1, 4), c=0.0)


@pytest.mark.parametrize(
    "fit_range",
    [(1.5, 10), (True, 10), (1, None), ("1", 10)],
    ids=["float-range", "bool-range", "none-range", "str-range"],
)
def test_fit_rejects_non_integer_range_and_non_real_scale(gram_3x3_raw_direct, fit_range):
    with pytest.raises(ParameterError):
        fit_exponent(_planted_shells(1), fit_range)
    with pytest.raises(ParameterError):
        decay_report(gram_3x3_raw_direct, fit_range=fit_range)


def test_decay_report_stores_plain_fit_values(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    rep = decay_report(g, fit_range=(np.int64(1), 4))
    assert [type(v) for v in (*rep.fit_range, rep.c)] == [int, int, float]
    assert decay_report_to_json(rep) == decay_report_to_json(decay_report(g, fit_range=(1, 4)))


def test_shell_stats_diagonal_shell(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    shells = shell_stats(g)
    assert shells[0].r == 0
    diag = np.diag(g.entries)
    nz = diag[np.array([p.denominator != 1 for p in g.points])]
    assert shells[0].count == len(nz)
    assert shells[0].mean_abs == pytest.approx(float(np.mean(np.abs(nz))), rel=1e-14)


def test_shell_stats_sum_matches_mean(gram_3x3_raw_direct):
    for s in shell_stats(gram_3x3_raw_direct):
        assert s.sum_abs == pytest.approx(s.mean_abs * s.count, rel=1e-12)
        assert s.max_abs >= s.mean_abs


def test_shell_stats_zero_row_flag(gram_3x3_raw_direct):
    incl = shell_stats(gram_3x3_raw_direct, exclude_zero_row=False)
    excl = shell_stats(gram_3x3_raw_direct, exclude_zero_row=True)
    n = len(gram_3x3_raw_direct.points)
    assert incl[0].count == n
    assert excl[0].count == n - 1


def test_shell_stats_single_point_window():
    g = _synthetic_gram(IndexWindow(0, 0), lambda a, b: 0.0)
    shells = shell_stats(g)
    assert len(shells) == 1
    assert shells[0].r == 0
    assert shells[0].mean_abs == 0.0


def test_envelope_tail_identity(gram_3x3_raw_direct):
    rep = decay_report(gram_3x3_raw_direct)
    env_shell, env_tail = rep.envelope_shell, rep.envelope_tail
    for n in range(len(env_shell)):
        assert env_tail[n] == max(env_shell[n:])


def _tails(report):
    return dict(report.tail_sums)


def test_tail_sum_beyond_diameter(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    diam = g.window.j_max + g.window.k_max
    (rep,) = truncation_suite(g, (diam + 1,)).reports
    assert set(_tails(rep).values()) == {0.0}
    assert rep.schur_bound == 0.0


def test_tail_sum_zero_row(gram_3x3_raw_direct):
    (rep,) = truncation_suite(gram_3x3_raw_direct, (1,)).reports
    assert _tails(rep)[(0, 0)] == 0.0


def test_tail_sum_is_offdiagonal_row_mass(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    i = g.window.position((2, 2))
    brute = float(np.sum(np.abs(g.entries[i]))) - abs(float(g.entries[i, i]))
    (rep,) = truncation_suite(g, (1,)).reports
    assert _tails(rep)[(2, 2)] == pytest.approx(brute, rel=1e-14)


def test_tail_sum_monotone_in_radius(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    reports = truncation_suite(g, range(1, 8)).reports
    for p in g.points:
        prev = math.inf
        for rep in reports:
            cur = _tails(rep)[p.index]
            assert cur <= prev + 1e-15
            prev = cur


def test_tail_sum_validates_radius(gram_3x3_raw_direct):
    with pytest.raises(ParameterError):
        truncation_suite(gram_3x3_raw_direct, (0,))


RADIUS_TAKERS = {
    "truncation_suite": lambda g, b: truncation_suite(g, (b,)),
    "shell": lambda g, r: shell((1, 1), r),
}


@pytest.mark.parametrize(
    "flag", [True, np.True_, 1.5, None], ids=["bool", "numpy_bool", "float", "none"]
)
@pytest.mark.parametrize("call", RADIUS_TAKERS.values(), ids=RADIUS_TAKERS.keys())
def test_radius_rejects_bools(gram_3x3_raw_direct, call, flag):
    # True == 1, which a range check alone would accept as radius 1
    with pytest.raises(ParameterError):
        call(gram_3x3_raw_direct, flag)


def _norms(g, bs):
    """(empirical_opnorm, schur_bound) per radius, from one suite."""
    return [(r.empirical_opnorm, r.schur_bound) for r in truncation_suite(g, bs).reports]


def test_opnorm_zero_residual():
    g = _synthetic_gram(IndexWindow(1, 1), lambda a, b: 1.0 if a == b else 0.0)
    assert _norms(g, (1,)) == [(0.0, 0.0)]


def test_opnorm_planted_spectrum():
    w = IndexWindow(2, 2)

    def fill(a, b):
        pair = {a, b}
        if pair == {LadderIndex(0, 0), LadderIndex(2, 0)}:
            return 3.0
        if pair == {LadderIndex(0, 1), LadderIndex(2, 1)}:
            return 1.0
        return 0.0

    g = _synthetic_gram(w, fill)
    (opnorm_2, schur_2), (opnorm_3, _) = _norms(g, (2, 3))
    assert opnorm_2 == pytest.approx(3.0, rel=1e-12)
    assert schur_2 == pytest.approx(3.0, rel=1e-15)
    assert opnorm_3 == 0.0


def test_opnorm_never_exceeds_schur(gram_3x3_raw_direct):
    for emp, schur in _norms(gram_3x3_raw_direct, (1, 2, 3, 4)):
        assert emp <= schur + 1e-12


def test_decay_report_fields(gram_3x3_raw_direct):
    rep = decay_report(gram_3x3_raw_direct)
    assert rep.fit_range == (1, 3)
    assert rep.c == pytest.approx(0.6931471805599453, rel=1e-15)
    assert rep.fitted_exponent > 0.0
    assert rep.exclude_zero_row
    assert rep.lambda_gap.min_ratio > 0.0
    assert len(rep.envelope_tail) == 3 + 3 + 1


def test_decay_report_json_and_csv(gram_3x3_raw_direct):
    rep = decay_report(gram_3x3_raw_direct)
    doc = json.loads(decay_report_to_json(rep))
    assert doc["schema"] == "bnladder.decay/1"
    assert doc["fitted_exponent"] == rep.fitted_exponent
    assert doc["exclude_zero_row"] is True
    csv = shells_to_csv(rep.shells)
    lines = csv.splitlines()
    assert lines[0] == "r,count,mean_abs,max_abs,sum_abs"
    assert len(lines) == 1 + len(rep.shells)


def test_truncation_suite_structure(gram_3x3_raw_direct):
    suite = truncation_suite(gram_3x3_raw_direct, (1, 2, 3))
    assert [r.B for r in suite.reports] == [1, 2, 3]
    for r in suite.reports:
        assert r.empirical_opnorm <= r.schur_bound + 1e-12
        assert len(r.tail_sums) == len(gram_3x3_raw_direct.points)
    bounds = [r.schur_bound for r in suite.reports]
    assert bounds == sorted(bounds, reverse=True)
    assert suite.fit_exponent_tail is not None
    doc = json.loads(truncation_suite_to_json(suite))
    assert doc["schema"] == "bnladder.truncation/1"
    assert len(doc["reports"]) == 3


def test_truncation_suite_degenerate_fit():
    g = _synthetic_gram(IndexWindow(1, 1), lambda a, b: 1.0 if a == b else 0.0)
    suite = truncation_suite(g, (1, 2, 3))
    assert all(r.schur_bound == 0.0 for r in suite.reports)
    assert suite.fit_exponent_tail is None

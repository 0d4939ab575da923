"""The numpy diagnostics against an independent scalar reference.

The reference below is the plain per-pair formulation: every distance
comes from :func:`bnladder.ladder.distance`, row tail sums and the
lambda-gap scan accumulate in Python floats, and shell statistics use
numpy's reduction over each shell's values collected in row-major order
(the reduction the serialized outputs have always used).  Operator
norms come from the SVD 2-norm of the residual, a route independent of the
library's eigensolve; they agree within 1e-12 relative (exactly for an
all-zero residual).  Every other comparison is exact: ``==`` on the
reports and on their JSON text, with each norm taken from the library
once it has matched.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnladder import (
    LOG2,
    DecayReport,
    DegenerateFitError,
    GramMatrix,
    IndexWindow,
    LambdaGapReport,
    ShellStats,
    TruncationReport,
    TruncationSuite,
    decay_report,
    decay_report_to_json,
    distance,
    fit_exponent,
    shell_stats,
    truncation_suite,
    truncation_suite_to_json,
)
from bnladder.decay import _distance_matrix, _envelopes, _lambda_gap
from bnladder.fractional import DEFAULT_QUAD

# -- scalar reference ---------------------------------------------------------


def ref_included(g, i, j, exclude_zero_row):
    if not exclude_zero_row:
        return True
    if all(p.denominator == 1 for p in g.points):
        return True  # the single-point window {(0,0)} keeps its diagonal
    return g.points[i].denominator != 1 and g.points[j].denominator != 1


def ref_shell_stats(g, exclude_zero_row=True):
    n = len(g.points)
    by_r = {}
    for i in range(n):
        for j in range(n):
            if ref_included(g, i, j, exclude_zero_row):
                r = distance(g.points[i].index, g.points[j].index)
                by_r.setdefault(r, []).append(abs(float(g.entries[i, j])))
    out = []
    for r in sorted(by_r):
        vals = np.array(by_r[r])
        out.append(
            ShellStats(
                r=r,
                count=len(by_r[r]),
                mean_abs=float(vals.mean()),
                max_abs=max(by_r[r]),
                sum_abs=float(vals.sum()),
            )
        )
    return out


def ref_envelopes(g):
    pts = g.points
    diam = max(distance(p.index, q.index) for p in pts for q in pts)
    env_shell = [0.0] * (diam + 1)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            r = distance(p.index, q.index)
            env_shell[r] = max(env_shell[r], abs(float(g.entries[i, j])))
    env_tail = list(env_shell)
    for r in range(diam - 1, -1, -1):
        env_tail[r] = max(env_tail[r], env_tail[r + 1])
    return env_shell, env_tail


def ref_tail_sum(g, center, b):
    i = g.window.position(center)
    total = 0.0
    for j, q in enumerate(g.points):
        if distance(g.points[i].index, q.index) >= b:
            total += abs(float(g.entries[i, j]))
    return total


def ref_residual(g, b):
    n = len(g.points)
    resid = np.zeros((n, n))
    for i, p in enumerate(g.points):
        for j, q in enumerate(g.points):
            if distance(p.index, q.index) >= b:
                resid[i, j] = g.entries[i, j]
    return resid


def ref_opnorm(g, b):
    return float(np.linalg.norm(ref_residual(g, b), 2))


def assert_same_norm(got, want):
    assert got == 0.0 if want == 0.0 else abs(got - want) <= 1e-12 * want


def ref_lambda_gap(g):
    best = math.inf
    best_pair = (g.points[0].index, g.points[0].index)
    for i, p in enumerate(g.points):
        for q in g.points[i + 1 :]:
            ratio = abs(p.log_theta - q.log_theta) / distance(p.index, q.index)
            if ratio < best:
                best, best_pair = ratio, (p.index, q.index)
    best = best if math.isfinite(best) else 0.0
    return LambdaGapReport(min_ratio=best, pair=best_pair, c=LOG2)


def ref_decay_report(g, fit_range, exclude_zero_row):
    shells = ref_shell_stats(g, exclude_zero_row=exclude_zero_row)
    env_shell, env_tail = ref_envelopes(g)
    return DecayReport(
        shells=tuple(shells),
        envelope_shell=tuple(env_shell),
        envelope_tail=tuple(env_tail),
        fitted_exponent=fit_exponent(shells, fit_range),
        c=LOG2,
        fit_range=fit_range,
        lambda_gap=ref_lambda_gap(g),
        exclude_zero_row=exclude_zero_row,
    )


def ref_truncation_suite(g, bs):
    reports = []
    for b in bs:
        tails = tuple((p.index, ref_tail_sum(g, p.index, b)) for p in g.points)
        reports.append(
            TruncationReport(
                B=b,
                schur_bound=max(t for _, t in tails),
                empirical_opnorm=ref_opnorm(g, b),
                tail_sums=tails,
            )
        )
    xs = [math.log1p(r.B) for r in reports if r.schur_bound > 0.0]
    ys = [math.log(r.schur_bound) for r in reports if r.schur_bound > 0.0]
    fit = None
    if len(xs) >= 3 and max(xs) > min(xs):
        design = np.vstack([xs, np.ones(len(xs))]).T
        fit = float(-np.linalg.lstsq(design, np.array(ys), rcond=None)[0][0])
    return TruncationSuite(reports=tuple(reports), fit_exponent_tail=fit)


# -- windows and entries ----------------------------------------------------


def synthetic_gram(j_max, k_max, seed, style):
    """Symmetric entries with a zero (0,0) row; ``quantized`` makes many
    exact ties and zeros, ``decaying`` mimics a real Gram's profile."""
    window = IndexWindow(j_max, k_max)
    pts = tuple(window.points())
    n = len(pts)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, n))
    if style == "quantized":
        e = np.round(4.0 * e) / 4.0
    elif style == "decaying":
        j = np.array([p.index.j for p in pts])
        k = np.array([p.index.k for p in pts])
        d = np.abs(j[:, None] - j) + np.abs(k[:, None] - k)
        e = e * (1.0 + LOG2 * d) ** -2.0
    e = 0.5 * (e + e.T)
    e[0, :] = 0.0
    e[:, 0] = 0.0
    return GramMatrix(
        window=window,
        method="direct",
        smoothing=None,
        entries=e,
        err_estimate=np.zeros((n, n)),
        quad=DEFAULT_QUAD,
    )


def assert_matches_reference(g, bs):
    diam = g.window.j_max + g.window.k_max
    for exclude in (True, False):
        assert shell_stats(g, exclude) == ref_shell_stats(g, exclude)
        fit_range = (1, max(1, diam))
        try:
            want = ref_decay_report(g, fit_range, exclude)
        except DegenerateFitError:
            with pytest.raises(DegenerateFitError):
                decay_report(g, fit_range=fit_range, exclude_zero_row=exclude)
        else:
            got = decay_report(g, fit_range=fit_range, exclude_zero_row=exclude)
            assert got == want
            assert decay_report_to_json(got) == decay_report_to_json(want)
    # decay_report carries the gap and the envelopes only where the fit succeeds
    d = _distance_matrix(g)
    assert _lambda_gap(g, d) == ref_lambda_gap(g)
    env_shell, env_tail = _envelopes(np.abs(g.entries), d)
    assert (env_shell.tolist(), env_tail.tolist()) == ref_envelopes(g)
    got = truncation_suite(g, bs)
    want = ref_truncation_suite(g, bs)
    for r, w in zip(got.reports, want.reports):
        assert_same_norm(r.empirical_opnorm, w.empirical_opnorm)
    want = replace(
        want,
        reports=tuple(
            replace(w, empirical_opnorm=r.empirical_opnorm)
            for r, w in zip(got.reports, want.reports)
        ),
    )
    assert got == want
    assert truncation_suite_to_json(got) == truncation_suite_to_json(want)


@settings(max_examples=25, deadline=None)
@given(
    j_max=st.integers(0, 6),
    k_max=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(["gauss", "quantized", "decaying"]),
    data=st.data(),
)
@example(j_max=0, k_max=0, seed=1, style="gauss", data=None)
@example(j_max=1, k_max=1, seed=2, style="quantized", data=None)
@example(j_max=3, k_max=2, seed=3, style="decaying", data=None)
@example(j_max=2, k_max=5, seed=4, style="gauss", data=None)
@example(j_max=6, k_max=6, seed=5, style="decaying", data=None)
def test_diagnostics_equal_scalar_reference(j_max, k_max, seed, style, data):
    g = synthetic_gram(j_max, k_max, seed, style)
    if data is None:
        bs = (1, 2, 3, 4)
    else:
        bs = tuple(data.draw(st.lists(st.integers(1, j_max + k_max + 2), min_size=1, max_size=5)))
    assert_matches_reference(g, bs)


@pytest.mark.parametrize("fixture", ["gram_3x3_raw_direct", "gram_6x6_smoothed"])
def test_real_grams_equal_scalar_reference(request, fixture):
    g = request.getfixturevalue(fixture)
    assert_matches_reference(g, (1, 2, 3, 4, 13))


@pytest.mark.parametrize("fixture", ["gram_3x3_raw_direct", "gram_6x6_smoothed"])
def test_opnorm_residual_is_exact_on_real_windows(request, fixture):
    g = request.getfixturevalue(fixture)
    for r in truncation_suite(g, (1, 2, 3, 4)).reports:
        want = ref_opnorm(g, r.B)
        assert want > 0.0
        assert_same_norm(r.empirical_opnorm, want)

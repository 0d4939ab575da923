import inspect
import json
import math
import tracemalloc
from dataclasses import fields, replace
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnladder.gram
from bnladder import (
    ConvergenceError,
    GramMatrix,
    IndexWindow,
    InnerProductResult,
    ParameterError,
    QuadratureConfig,
    SmoothingParams,
    ZetaRangeError,
    breakpoints,
    build_gram,
    cross_validate,
    decay_report,
    fit_exponent,
    gram_from_json,
    gram_to_csv,
    gram_to_json,
    inner_direct,
    inner_spectral,
    mellin_direct,
    pair_inner_matrix,
    shell_stats,
    theta_of,
)

SM = SmoothingParams(W=5.0, epsilon=1e-6)
SM_NOFLOOR = SmoothingParams(W=5.0, epsilon=0.0)


def test_single_point_window_is_zero_matrix():
    g = build_gram(IndexWindow(0, 0), kind="raw", method="direct")
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0] == 0.0


def test_cross_validation_trivial_on_single_point():
    rep = cross_validate(IndexWindow(0, 0))
    assert rep.max_abs_diff == 0.0


def test_direct_vs_spectral_2x2():
    w = IndexWindow(2, 2)
    direct = build_gram(w, kind="raw", method="direct")
    spectral = build_gram(w, kind="raw", method="spectral")
    diff = np.abs(direct.entries - spectral.entries)
    assert np.all(diff <= 1e-4 + spectral.err_estimate)


def test_smoothed_spectral_4x4_structure(gram_3x3_raw_direct, gram_3x3_raw_spectral):
    g = build_gram(IndexWindow(4, 4), kind="smoothed", smoothing=SM)
    assert (g.kind, g.method) == ("smoothed", "hybrid")
    # every route is exactly symmetric on its own; build_gram does not symmetrize
    for built in (g, gram_3x3_raw_direct, gram_3x3_raw_spectral):
        assert np.array_equal(built.entries, built.entries.T)
        assert np.array_equal(built.err_estimate, built.err_estimate.T)
    zero = g.window.position((0, 0))
    assert np.all(g.entries[zero, :] == 0.0)
    assert np.all(g.entries[:, zero] == 0.0)
    n = g.entries.shape[0]
    assert np.linalg.eigvalsh(g.entries).min() >= -n * 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="raw", method="direct", smoothing=SM),
        dict(kind="smoothed", method="direct", smoothing=SM),
        dict(kind="smoothed", method="spectral"),
        dict(kind="bogus", method="direct"),
        dict(kind="raw", method="bogus"),
        # one spelling per route: raw hybrid ran direct, smoothed spectral was hybrid
        dict(kind="raw", method="hybrid"),
        dict(kind="smoothed", method="spectral", smoothing=SM),
    ],
)
def test_build_validation(kwargs):
    with pytest.raises(ParameterError):
        build_gram(IndexWindow(1, 1), **kwargs)


def test_inner_spectral_zero_row():
    assert inner_spectral((0, 0), (2, 1)).value == 0.0


def test_inner_spectral_diagonal_matches_direct_within_budget():
    res = inner_spectral((1, 0), (1, 0))
    exact = inner_direct(0.5, 0.5).value
    assert abs(res.value - exact) <= 1e-4 + res.err_estimate


def test_inner_spectral_smoothed_cross_is_bounded_real():
    v = inner_spectral((1, 0), (0, 1), smoothing=SM_NOFLOOR).value
    assert isinstance(v, float)
    assert abs(v) <= 4.0


def test_gram_json_round_trip(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    text = gram_to_json(g)
    back = gram_from_json(text)
    assert back.window == g.window
    assert back.kind == g.kind
    assert back.method == g.method
    assert np.array_equal(back.entries, g.entries)
    assert np.array_equal(back.err_estimate, g.err_estimate)
    # deterministic serialization
    assert gram_to_json(back) == text


def test_gram_json_rejects_mangled_shape(gram_3x3_raw_direct):
    doc = json.loads(gram_to_json(gram_3x3_raw_direct))
    doc["entries"] = doc["entries"][:-1]
    with pytest.raises(ParameterError):
        gram_from_json(json.dumps(doc))


_DROP = object()


@pytest.mark.parametrize(
    "path,value",
    [
        pytest.param(("window",), _DROP, id="no_window"),
        pytest.param(("quad", "bogus"), 1.0, id="unknown_quad_key"),
        pytest.param(("entries", 1), [0.0], id="ragged_entries"),
        pytest.param(("entries", 1, 1), "x", id="text_entry"),
        pytest.param(("err_estimate", 2, 0), None, id="null_err_estimate"),
        # numpy would read each of these as a number; no build writes them
        pytest.param(("entries", 1, 1), "0.25", id="numeric_text_entry"),
        pytest.param(("entries", 1, 1), True, id="bool_entry"),
        pytest.param(("err_estimate", 2, 2), False, id="bool_err_estimate"),
        pytest.param(("entries", 1, 1), 10**400, id="huge_integer_entry"),
        pytest.param(("err_estimate", 1, 1), -1e-300, id="negative_err_estimate"),
        pytest.param(("entries", 1, 2), 0.125, id="asymmetric_entries"),
        pytest.param(("err_estimate", 2, 1), 0.125, id="asymmetric_err_estimate"),
        pytest.param(("kind",), "weird", id="unknown_kind"),
        pytest.param(("method",), "bogus", id="unknown_method"),
        pytest.param(("method",), None, id="null_method"),
        pytest.param(("smoothing",), {"W": 5.0, "epsilon": 1e-6}, id="raw_with_smoothing"),
        pytest.param(("window",), [3, 3], id="window_not_object"),
        # abs_tol is no field of /4, so a document that still carries it is refused
        pytest.param(("quad",), {"abs_tol": "tight"}, id="text_abs_tol"),
        pytest.param(("quad", "t_max_raw"), "tall", id="text_t_max_raw"),
        # each keeps 16 points in coerced arithmetic, so the shape check
        # cannot be what rejects it
        pytest.param(("window",), {"j_max": 3.0, "k_max": 3}, id="float_j_max"),
        pytest.param(("window",), {"j_max": True, "k_max": 7}, id="bool_j_max"),
        pytest.param(("window",), {"j_max": 3, "k_max": "3"}, id="text_k_max"),
        pytest.param(("quad", "abs_tol"), True, id="bool_abs_tol"),
        pytest.param(("quad", "x_min"), True, id="bool_x_min"),
        pytest.param(("smoothing", "W"), True, id="bool_W"),
        pytest.param(("schema",), "bnladder.gram/1", id="schema_1"),
        pytest.param(("schema",), "bnladder.gram/2", id="schema_2"),
        pytest.param(("schema",), "bnladder.gram/3", id="schema_3"),
    ],
)
def test_gram_json_rejects_malformed_document(
    gram_3x3_raw_direct, gram_6x6_smoothed, path, value
):
    # a mutation inside the smoothing object needs a document that has one
    inside_smoothing = len(path) > 1 and path[0] == "smoothing"
    base = gram_6x6_smoothed if inside_smoothing else gram_3x3_raw_direct
    doc = json.loads(gram_to_json(base))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    with pytest.raises(ParameterError) as info:
        gram_from_json(json.dumps(doc))
    if path == ("schema",):  # the message names the schema found and the one expected
        assert repr(value) in str(info.value) and "'bnladder.gram/4'" in str(info.value)


def test_gram_json_numpy_window_bounds():
    window = IndexWindow(np.int64(1), np.int64(1))
    assert type(window.j_max) is int and type(window.k_max) is int
    assert gram_to_json(build_gram(window)) == gram_to_json(build_gram(IndexWindow(1, 1)))


def test_gram_json_numpy_config_values():
    # Configs store plain values, so numpy scalars serialize like Python ones.
    quad = QuadratureConfig(t_max_raw=np.int64(1000), x_min=np.float64(1e-3))
    smoothing = SmoothingParams(W=np.float32(5), epsilon=np.float64(1e-6))
    assert type(quad.t_max_raw) is float and type(quad.x_min) is float
    assert type(smoothing.W) is float
    window = IndexWindow(1, 1)
    plain = build_gram(
        window,
        "smoothed",
        smoothing=SmoothingParams(W=5.0, epsilon=1e-6),
        quad=QuadratureConfig(t_max_raw=1000.0, x_min=1e-3),
    )
    numpy = build_gram(window, "smoothed", smoothing=smoothing, quad=quad)
    assert gram_to_json(numpy) == gram_to_json(plain)


def test_settable_values_are_pinned(gram_3x3_raw_direct):
    """The quadrature config holds exactly what the CLI's gram flags set,
    the sweep cap and the decay scale are constants, and a Gram matrix
    derives its points and kind from its window and smoothing."""
    assert [f.name for f in fields(QuadratureConfig)] == ["x_min", "t_max_raw"]
    assert [f.name for f in fields(GramMatrix)] == [
        "window", "method", "smoothing", "entries", "err_estimate", "quad"
    ]
    assert not hasattr(GramMatrix, "index_of")
    assert [f.name for f in fields(InnerProductResult)] == ["value", "err_estimate"]
    signatures = {
        inner_direct: ["theta_a", "theta_b", "quad"],
        inner_spectral: ["a", "b", "smoothing", "quad"],
        pair_inner_matrix: ["denominators", "x_min"],
        fit_exponent: ["shells", "fit_range"],
        decay_report: ["g", "fit_range", "exclude_zero_row"],
        shell_stats: ["g", "exclude_zero_row"],
    }
    for fn, names in signatures.items():
        assert list(inspect.signature(fn).parameters) == names
    g = gram_3x3_raw_direct
    assert g.kind == "raw"
    assert g.points == tuple(g.window.points()) and g.points is g.points


@pytest.mark.parametrize(
    "call",
    [
        lambda: inner_direct(0.5, 1.0 / 3.0, full_output=True),
        lambda: inner_spectral((1, 0), (0, 1), full_output=True),
    ],
    ids=["inner_direct", "inner_spectral"],
)
def test_pair_inner_products_take_no_output_flag(call):
    # Both always return InnerProductResult(value, err_estimate).
    with pytest.raises(TypeError, match="full_output"):
        call()


@pytest.mark.parametrize(
    "kind,smoothing", [("raw", None), ("smoothed", SmoothingParams(W=2.0))]
)
def test_build_walks_the_window_once(monkeypatch, kind, smoothing):
    calls = []
    real_points = IndexWindow.points

    def spy(window):
        calls.append(window)
        return real_points(window)

    monkeypatch.setattr(IndexWindow, "points", spy)
    g = build_gram(IndexWindow(2, 2), kind, smoothing=smoothing)
    assert g.points == tuple(real_points(g.window)) and len(calls) == 1


def test_entry_accepts_numpy_indices(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    assert g.entry((1, np.int64(1)), (np.int32(0), 1)) == g.entry((1, 1), (0, 1))


@pytest.mark.parametrize("text", ["[]", '"bnladder.gram/1"', '{"schema": ', ""])
def test_gram_json_rejects_non_document(text):
    with pytest.raises(ParameterError):
        gram_from_json(text)


def test_gram_csv_shape_and_determinism(gram_3x3_raw_direct):
    text = gram_to_csv(gram_3x3_raw_direct)
    lines = text.splitlines()
    n = len(gram_3x3_raw_direct.points)
    assert lines[0] == "j,k,j2,k2,value,err_estimate"
    assert len(lines) == 1 + n * n
    assert text.endswith("\n")
    assert gram_to_csv(gram_3x3_raw_direct) == text


def test_raw_direct_err_estimate_is_tail(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    zero = g.window.position((0, 0))
    mask = np.ones(len(g.points), dtype=bool)
    mask[zero] = False
    assert np.all(g.err_estimate[np.ix_(mask, mask)] > 0.0)


def test_entry_lookup(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    v = g.entry((1, 0), (0, 1))
    assert v == pytest.approx(inner_direct(0.5, 1.0 / 3.0).value, rel=1e-8)
    with pytest.raises(ParameterError):
        g.entry((9, 9), (0, 0))


def test_cross_validate_3x3_report(gram_3x3_raw_direct, gram_3x3_raw_spectral):
    diff = np.abs(gram_3x3_raw_direct.entries - gram_3x3_raw_spectral.entries)
    rep = cross_validate(IndexWindow(1, 1), quad=QuadratureConfig(t_max_raw=300.0))
    assert rep.max_abs_diff <= 1e-2
    assert rep.max_err_estimate > 0.0
    # full default-range discrepancy stays under the coarse ceiling
    assert diff.max() < 1e-3


# Cutoffs whose piece bound, floor(1/x_min) and more, is above the cap of
# 1e8 pieces; below x_min = 5.6e-309, 1/x_min itself overflows to inf.
CAPPED = QuadratureConfig(x_min=1e-9)
SUBNORMAL = QuadratureConfig(x_min=1e-310)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: breakpoints(0.5, 1e-9), "breakpoint list needs"),
        (lambda: pair_inner_matrix([2, 3], 1e-9), "lattice pass needs"),
        (lambda: inner_direct(0.5, 0.3, CAPPED), "sweep needs"),
        (lambda: mellin_direct(0.5, 1.0, CAPPED), "transform needs"),
        (lambda: mellin_direct(0.3, 1.0, CAPPED), "transform needs"),
        (
            lambda: build_gram(IndexWindow(1, 1), "smoothed", smoothing=SmoothingParams(W=1e6)),
            "Gaussian taper",
        ),
        (lambda: breakpoints(0.5, 1e-310), "breakpoint list needs"),
        (lambda: pair_inner_matrix([2, 3], 1e-310), "lattice pass needs"),
        (lambda: inner_direct(0.5, 0.3, SUBNORMAL), "sweep needs"),
        (lambda: inner_direct(2**-31, 2**-32, SUBNORMAL), "lattice pass needs"),
        (lambda: mellin_direct(0.5, 1.0, SUBNORMAL), "transform needs"),
        (lambda: mellin_direct(0.3, 1.0, SUBNORMAL), "transform needs"),
        # IndexWindow(12, 12) reaches 6^12 > 2^30, the closed form's cap
        (lambda: build_gram(IndexWindow(12, 12), quad=SUBNORMAL), "lattice pass needs"),
    ],
    ids=[
        "breakpoints", "lattice", "sweep", "mellin-unit", "mellin-general", "gaussian-cutoff",
        "breakpoints-subnormal", "lattice-subnormal", "sweep-subnormal", "fallback-subnormal",
        "mellin-unit-subnormal", "mellin-general-subnormal", "gram-fallback-subnormal",
    ],
)
def test_piece_caps_raise(call, message):
    with pytest.raises(ConvergenceError, match=message):
        call()


@pytest.mark.parametrize("t_max", [1e-9, 1.0, 9.99])
@pytest.mark.parametrize(
    "call",
    [
        lambda q: build_gram(IndexWindow(1, 1), "raw", method="spectral", quad=q),
        lambda q: inner_spectral((1, 0), (0, 1), quad=q),
        lambda q: cross_validate(IndexWindow(1, 1), quad=q),
    ],
    ids=["build_gram", "inner_spectral", "cross_validate"],
)
def test_raw_spectral_rejects_heights_below_the_tail_floor(call, t_max):
    # The raw budget's mean-square tail holds from T = 10 up; below it,
    # the budget would leave out integral_T^10 and miss by up to 4.8x.
    with pytest.raises(ParameterError, match="t_max_raw >= 10"):
        call(QuadratureConfig(t_max_raw=t_max))


@pytest.mark.parametrize(
    "kind,kwargs",
    [
        ("raw", {"method": "spectral", "quad": QuadratureConfig(t_max_raw=2e4)}),
        ("smoothed", {"smoothing": SmoothingParams(W=3e3)}),
    ],
)
def test_grid_beyond_zeta_cap_rejected_before_allocation(kind, kwargs):
    tracemalloc.start()
    try:
        with pytest.raises(ZetaRangeError, match="beyond the accuracy-checked cap"):
            build_gram(IndexWindow(1, 1), kind, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("t_max,limit_mb", [(1000.0, 6.0), (1.0e4, 17.0)])
def test_raw_spectral_build_working_set(t_max, limit_mb):
    """The moment slabs and zeta's tail chunks are bounded by bytes, so the
    raw 8x8 spectral build (h = 1/2: 30,000 nodes at T = 1000, 300,000 at
    1e4) allocates little beyond its one grid-sized array, the power
    spectrum, and zeta's output: a tracemalloc peak of 2.8 and 12.2 MB,
    against 3.6 and 19.4 MB when the grid also kept its nodes and
    per-node weights, and 15.3 and 67.1 MB with slabs of 1,024 panels and
    one tail over the whole grid."""
    quad = QuadratureConfig(t_max_raw=t_max)
    tracemalloc.start()
    try:
        build_gram(IndexWindow(8, 8), "raw", method="spectral", quad=quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6


K15_NODES, K15_WEIGHTS = bnladder.gram._K15_NODES, bnladder.gram._K15_WEIGHTS
G7_ON_K15 = bnladder.gram._G7_ON_K15


def _monomial_errors(weights, degrees):
    exact = [(1.0 + (-1.0) ** d) / (d + 1) for d in degrees]
    return [abs(float(weights @ K15_NODES**d) - e) for d, e in zip(degrees, exact)]


def test_k15_is_exact_through_degree_22():
    # QUADPACK qk15 xgk(1), correctly rounded
    assert K15_NODES[-1] == 0.991455371120812639206854697526329 and K15_NODES[7] == 0.0
    assert np.array_equal(K15_NODES, -K15_NODES[::-1])
    assert np.array_equal(K15_WEIGHTS, K15_WEIGHTS[::-1])
    assert max(_monomial_errors(K15_WEIGHTS, range(23))) <= 4e-16
    # degree 24 is the first it misses, so 22 is its whole exactness
    assert _monomial_errors(K15_WEIGHTS, [24])[0] > 1e-9


def test_embedded_g7_nodes_and_exactness():
    x7, w7 = np.polynomial.legendre.leggauss(7)
    ulp = np.spacing(np.maximum(np.abs(x7), np.abs(K15_NODES[1::2])))
    assert np.all(np.abs(K15_NODES[1::2] - x7) <= 2 * ulp + (x7 == 0.0) * 5e-324)
    assert np.all(G7_ON_K15[::2] == 0.0)
    assert np.abs(G7_ON_K15[1::2] - w7).max() <= 4e-16
    assert max(_monomial_errors(G7_ON_K15, range(14))) <= 4e-16
    assert _monomial_errors(G7_ON_K15, [14])[0] > 1e-6


@pytest.mark.parametrize("t_max,h", [(20.0, 1 / 16), (37.3, 0.25), (1000.0, 0.125)])
def test_spectral_grid_matches_panel_loop(monkeypatch, t_max, h):
    """The vectorized grid equals a per-panel loop over n = ceil(t_max / h)
    K15 panels of width t_max / n, bit for bit, and hands zeta their
    midpoints and the one set of offsets they share."""
    seen = []

    def spy(mids, offs):
        seen.append((mids, offs))
        return np.zeros(mids.size * offs.size, complex)

    monkeypatch.setattr(bnladder.gram, "_panel_zeta", spy)
    grid = bnladder.gram._spectral_grid(t_max, h)
    ((mids, offs),) = seen
    assert mids is grid.mids and offs is grid.offs
    n_panels = int(math.ceil(t_max / h))
    width = t_max / n_panels
    assert mids.size == n_panels == (150 if t_max == 37.3 else t_max / h)
    assert mids[-1] + 0.5 * width == t_max  # the last panel ends at t_max
    assert np.array_equal(offs, 0.5 * width * K15_NODES)
    nodes = []
    for i in range(n_panels):
        mid, half = (i + 0.5) * width, 0.5 * width
        nodes.append(mid + half * K15_NODES)
        # every panel has the grid's one rule
        assert np.array_equal(grid.w_quad, half * K15_WEIGHTS)
        assert np.array_equal(grid.w_diff, half * (K15_WEIGHTS - G7_ON_K15))
    assert np.array_equal((grid.mids[:, None] + grid.offs).ravel(), np.concatenate(nodes))
    # the power spectrum is the one array over the nodes
    sizes = {f.name: getattr(grid, f.name).size for f in fields(grid)}
    assert sizes == {
        "mids": n_panels, "offs": 15, "w_quad": 15, "w_diff": 15, "power": 15 * n_panels
    }


@pytest.mark.parametrize("t_max,h", [(999.7, 1.0), (37.3, 0.25)])
def test_grid_off_the_panel_width_ends_at_t_max(monkeypatch, t_max, h):
    """Where h does not divide t_max, the grid still has ceil(t_max / h)
    panels of one shape, none wider than h, and the last ends at t_max."""
    with monkeypatch.context() as m:  # the layout alone: skip the grid's own zeta
        m.setattr(bnladder.gram, "_panel_zeta", lambda mids, offs: np.zeros(mids.size * offs.size))
        grid = bnladder.gram._spectral_grid(t_max, h)
    assert grid.mids.size == math.ceil(t_max / h)
    assert grid.offs.shape == (15,)
    half = grid.offs[-1] / K15_NODES[-1]
    edges = np.append(grid.mids - half, grid.mids[-1] + half)
    assert abs(edges[0]) <= np.spacing(t_max)
    assert np.all(np.diff(edges) <= h)
    assert abs(edges[-1] - t_max) <= np.spacing(t_max)
    if t_max == 999.7:
        w = IndexWindow(3, 3)
        direct = build_gram(w, kind="raw", method="direct")
        spectral = build_gram(
            w, kind="raw", method="spectral", quad=QuadratureConfig(t_max_raw=t_max)
        )
        diff = np.abs(spectral.entries - direct.entries)
        assert np.all(diff <= spectral.err_estimate + direct.err_estimate)


def _rule_ratios(points, grid, smoothing):
    """|K15 - G7|_ab / (amp_a amp_b) off the theta = 1 row, recomputed."""
    _, qdiff = bnladder.gram._pair_matrices(points, grid, smoothing)
    amps = np.array([bnladder.gram._amp_bound(p) for p in points])
    off = amps > 0.0
    return np.abs(qdiff[np.ix_(off, off)]) / np.outer(amps[off], amps[off])


@settings(max_examples=12, deadline=None)
@given(
    j_max=st.integers(0, 5),
    k_max=st.integers(0, 5),
    t_max=st.sampled_from([20.0, 40.0, 60.0]),
    smoothing=st.sampled_from([None, SmoothingParams(W=2.0, epsilon=0.0), SM]),
    widen=st.sampled_from([1, 4, 16]),
)
@example(j_max=3, k_max=3, t_max=20.0, smoothing=None, widen=16)
@example(j_max=4, k_max=4, t_max=20.0, smoothing=SM, widen=1)
def test_width_rule_halves_until_every_entry_passes(j_max, k_max, t_max, smoothing, widen):
    """The accepted grid meets |K15 - G7|_ab <= f amp_a amp_b tau for every
    entry off the theta = 1 row; the search halves from its first
    candidate and every rejected width breaks the rule.  ``widen`` forces a
    first candidate that many times wider, which must halve down to a
    width that passes."""
    gram = bnladder.gram
    quad = QuadratureConfig(t_max_raw=t_max)
    window = IndexWindow(j_max, k_max)
    points = tuple(window.points())
    if smoothing is None:
        tau = gram._mean_sq_tail(t_max) / math.pi
    else:
        tau = gram._GAUSSIAN_TAIL_TOL / 4.0
    real_first, real_grid = gram._first_width, gram._spectral_grid
    built = []

    def spy_grid(t, h):
        built.append((t, h, real_grid(t, h)))
        return built[-1][2]

    with mock.patch.object(
        gram, "_first_width", lambda *a: widen * real_first(*a)
    ), mock.patch.object(gram, "_spectral_grid", spy_grid):
        if smoothing is None:
            g = build_gram(window, "raw", method="spectral", quad=quad)
        else:
            g = build_gram(window, "smoothed", smoothing=smoothing, quad=quad)
    t_grid = t_max if smoothing is None else gram._gaussian_cutoff(smoothing)
    span = gram._displacement_span(points)
    tried = [h for _, h, _ in built]
    assert all(t == t_grid for t, _, _ in built)
    assert tried[0] == widen * real_first(span, t_grid, tau)
    assert tried == [tried[0] / 2**i for i in range(len(tried))]
    accepted = built[-1][2]
    assert np.all(_rule_ratios(points, accepted, smoothing) <= gram._QUAD_SHARE * tau)
    for _, _, rejected in built[:-1]:
        assert np.any(_rule_ratios(points, rejected, smoothing) > gram._QUAD_SHARE * tau)
    if widen == 16 and window.size > 1:
        assert len(tried) > 1
    # the reported budget carries the accepted grid's K15 - G7 difference
    assert np.all(g.err_estimate >= 0.0)


@pytest.mark.parametrize(
    "window,kwargs,width",
    [
        (IndexWindow(1, 1), {"kind": "raw", "method": "spectral"}, 1.0),
        (IndexWindow(3, 3), {"kind": "raw", "method": "spectral"}, 1.0),
        (IndexWindow(8, 8), {"kind": "raw", "method": "spectral"}, 0.5),
        (IndexWindow(8, 8), {"kind": "smoothed", "smoothing": SM}, 0.125),
        (IndexWindow(24, 24), {"kind": "smoothed", "smoothing": SM}, 0.0625),
        (IndexWindow(2, 2), {"kind": "smoothed", "smoothing": SmoothingParams(W=2.0)}, 0.125),
        (IndexWindow(4, 4), {"kind": "smoothed", "smoothing": SmoothingParams(W=5.0)}, 0.125),
        (
            IndexWindow(3, 3),
            {"kind": "smoothed", "smoothing": SmoothingParams(W=10.0, epsilon=1e-2)},
            0.125,
        ),
    ],
    ids=[
        "raw-1x1",
        "raw-3x3",
        "raw-8x8",
        "smoothed-8x8",
        "smoothed-24x24",
        "smoothed-2x2-W2",
        "smoothed-4x4-W5",
        "smoothed-3x3-W10",
    ],
)
def test_probe_builds_accept_their_first_width(monkeypatch, window, kwargs, width):
    """_PANEL_RADIANS is sized so that the raw 3x3 and 8x8 builds at the
    default t_max_raw = 1000 and the smoothed 24x24 at W = 5 accept the
    first candidate of _first_width: a halving would double their nodes.
    The pole cap (_POLE_SHARE) makes the smoothed 2x2 at W = 2, 4x4 at
    W = 5 and 3x3 at W = 10 accept theirs too: without it they tried 1/2
    and 1/4, 1/4, and 1/4 before 1/8.  Their accepted widths are as before
    the cap, so their outputs are too."""
    tried = []
    real_grid = bnladder.gram._spectral_grid

    def spy_grid(t, h):
        tried.append(h)
        return real_grid(t, h)

    monkeypatch.setattr(bnladder.gram, "_spectral_grid", spy_grid)
    build_gram(window, **kwargs)
    assert tried == [width]


def test_repeated_spectral_calls_repeat_their_bits(monkeypatch):
    """A repeated call gives identical bits, and within one width search
    zeta is evaluated once per width tried, rejected ones included.  Each
    call starts from a first candidate four times too wide, so it rejects
    at least one width."""
    sizes, tried = [], []
    real_zeta, real_grid = bnladder.gram._panel_zeta, bnladder.gram._spectral_grid
    real_first = bnladder.gram._first_width

    def spy_zeta(mids, offs):
        sizes.append(mids.size * offs.size)
        return real_zeta(mids, offs)

    def spy_grid(t, h):
        tried.append(h)
        return real_grid(t, h)

    monkeypatch.setattr(bnladder.gram, "_panel_zeta", spy_zeta)
    monkeypatch.setattr(bnladder.gram, "_spectral_grid", spy_grid)
    monkeypatch.setattr(bnladder.gram, "_first_width", lambda *a: 4.0 * real_first(*a))
    sm = SmoothingParams(W=2.0, epsilon=1e-2)
    calls = [
        lambda: inner_spectral((1, 1), (2, 0), sm),
        lambda: build_gram(IndexWindow(2, 2), "smoothed", smoothing=SmoothingParams(W=2.0)).entries,
    ]
    for call in calls:
        runs = []
        for _ in range(2):
            sizes.clear()
            tried.clear()
            runs.append(call())
            assert len(sizes) == len(tried) > 1
        assert np.array_equal(runs[0], runs[1])


def test_width_search_stops_at_the_node_cap(monkeypatch):
    # a Gaussian tail target far below roundoff can never be met
    monkeypatch.setattr(bnladder.gram, "_MAX_GRID_NODES", 20_000)
    monkeypatch.setattr(bnladder.gram, "_GAUSSIAN_TAIL_TOL", 1e-30)
    with pytest.raises(ConvergenceError, match="spectral grid on"):
        build_gram(IndexWindow(2, 2), "smoothed", smoothing=SM)


def _node_weights(grid, smoothing):
    """The grid's K15 and K15 - G7 weights at every node, times
    psi_W^2 - epsilon^2 where ``smoothing`` is given: the per-node
    formulas, independent of :func:`bnladder.gram._moments`."""
    taper = 1.0
    if smoothing is not None:
        g1 = np.exp(-(((grid.mids[:, None] + grid.offs).ravel() / smoothing.W) ** 2))
        taper = 2.0 * smoothing.epsilon * g1 + g1 * g1
    return tuple(np.tile(w, grid.mids.size) * taper for w in (grid.w_quad, grid.w_diff))


def _complex_pair_matrices(points, grid, weights):
    """The per-node accumulation the moment route replaced: form
    M_a(1/2+it) = zeta/s * (theta - theta^s) at every node and return
    (1/pi) * sum_nodes w * Re[M_a conj(M_b)] for each weight vector.  The
    phase of zeta/s cancels in M_a conj(M_b), so |zeta/s| comes from the
    grid's own power spectrum: both routes see the same zeta values."""
    kernel = np.sqrt(grid.power)
    theta = np.array([p.theta for p in points])
    sqrt_theta = np.array([math.exp(0.5 * p.log_theta) for p in points])
    log_theta = np.array([p.log_theta for p in points])
    nodes = (grid.mids[:, None] + grid.offs).ravel()
    rows = kernel[None, :] * (
        theta[:, None] - sqrt_theta[:, None] * np.exp(1j * np.outer(log_theta, nodes))
    )
    return [((rows * w) @ rows.conj().T).real / math.pi for w in weights]


def _unique_keyed_pair_matrices(points, grid, smoothing):
    """:func:`bnladder.gram._pair_matrices` with each displacement turned
    by its sign (that of dj, or of dk where dj = 0) and each axis ranked
    by np.unique."""
    ij = np.array([tuple(p.index) for p in points] + [(0, 0)], dtype=np.int64)
    dj, dk = (ij[:, None, c] - ij[None, :, c] for c in (0, 1))
    sign = np.where(dj != 0, np.sign(dj), np.sign(dk))
    uj, row = np.unique(sign * dj, return_inverse=True)
    uk, col = np.unique(sign * dk, return_inverse=True)
    theta = np.array([p.theta for p in points])
    sqrt_theta = np.array([math.exp(0.5 * p.log_theta) for p in points])
    moments = bnladder.gram._moments(grid, uj, uk, smoothing)
    row, col = row.reshape(dj.shape), col.reshape(dk.shape)
    return [bnladder.gram._assemble(theta, sqrt_theta, m[row, col]) for m in moments]


SHORT_T = 20.0


@cache
def _fixed_grid(t_max, h):
    """One spectral grid per (t_max, h) for the tests that reuse it across
    examples; the library itself builds every grid afresh."""
    return bnladder.gram._spectral_grid(t_max, h)


@pytest.mark.parametrize("window", [(1, 0), (0, 5), (3, 3), (24, 24)])
def test_pair_keys_match_unique_keys(window):
    points = tuple(IndexWindow(*window).points())
    grid = _fixed_grid(SHORT_T, 1 / 8)
    for smoothing in (None, SM):
        got = bnladder.gram._pair_matrices(points, grid, smoothing)
        for g, u in zip(got, _unique_keyed_pair_matrices(points, grid, smoothing)):
            assert np.array_equal(g, u)


@settings(max_examples=30, deadline=None)
@given(
    idx=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=1, max_size=8),
    eps=st.sampled_from([None, 0.0, 1e-6, 1e-2]),
)
@example(idx=[(0, 0), (24, 24), (24, 24), (1, 0)], eps=None)
@example(idx=[(0, 0), (0, 0)], eps=1e-2)
@example(idx=[(3, 1), (0, 0), (3, 1), (24, 24), (0, 24)], eps=1e-6)
@example(idx=[(5, 0)], eps=0.0)
@example(idx=[(1, 0)], eps=None)  # cancels: the entry is 9 % of its terms' absolute sum
def test_moments_match_complex_accumulation(idx, eps):
    """Gram entries from displacement moments equal the complex per-node
    accumulation, raw (eps None) and with the smoothed build's taper, and
    equal bit for bit those keyed by np.unique."""
    points = tuple(theta_of(ix) for ix in idx)
    smoothing = None if eps is None else SmoothingParams(W=5.0, epsilon=eps)
    grid = _fixed_grid(SHORT_T, 1 / 8)
    weights = _node_weights(grid, smoothing)
    got = bnladder.gram._pair_matrices(points, grid, smoothing)
    want = _complex_pair_matrices(points, grid, weights)
    for g, u in zip(got, _unique_keyed_pair_matrices(points, grid, smoothing)):
        assert np.array_equal(g, u)
    # Both sums round on the scale of the absolute accumulation: (1/pi)
    # sum_nodes |w| r_a r_b with r >= |M|, per entry and per weight vector.
    theta = np.array([p.theta for p in points])
    r = np.sqrt(grid.power) * (theta + np.sqrt(theta))[:, None]
    for g, w, weight in zip(got, want, weights):
        assert np.all(np.abs(g - w) <= 1e-14 * ((r * np.abs(weight)) @ r.T) / math.pi)
        assert np.array_equal(g, g.T)
        for i, ix in enumerate(idx):
            if ix == (0, 0):
                assert np.all(g[i, :] == 0.0) and np.all(g[:, i] == 0.0)
            for m in range(i):
                if idx[m] == ix:  # a duplicated point repeats its row bit for bit
                    assert np.array_equal(g[i], g[m]) and g[i, m] == g[i, i]

    a, b = idx[0], idx[-1]
    quad = QuadratureConfig(t_max_raw=SHORT_T)
    built = []
    real_grid = bnladder.gram._spectral_grid

    def spy_grid(t, h):
        built.append(real_grid(t, h))
        return built[-1]

    with mock.patch.object(bnladder.gram, "_spectral_grid", spy_grid):
        value = inner_spectral(a, b, smoothing=smoothing, quad=quad).value
    grid = built[-1]  # the search ends at the grid it accepted
    pair = (theta_of(a), theta_of(b))
    # the tapered share; the epsilon^2 share is the raw direct build
    w, _ = _node_weights(grid, smoothing)
    (full,) = _complex_pair_matrices(pair, grid, (w,))
    want = full[0, 1]
    if eps:  # the closed form, or above its cap the sweep at the coarse cutoff
        coarse = replace(quad, x_min=bnladder.gram._epsilon_cutoff(eps, quad))
        base, _ = bnladder.gram._direct(pair, coarse)
        want += eps * eps * base[0, 1]
    assert abs(value - want) <= 1e-14 * np.abs(full).max()


def _cosine_moments(grid, weights, dj, dk):
    """The moment route the factorized one replaced: for every frequency
    omega = dj log 2 + dk log 3, (1/pi) * sum_nodes w |zeta/s|^2 cos(omega t)."""
    omega = np.asarray(dj) * math.log(2.0) + np.asarray(dk) * math.log(3.0)
    nodes = (grid.mids[:, None] + grid.offs).ravel()
    wp = [w * grid.power for w in weights]
    return np.array([[np.dot(w, np.cos(o * nodes)) for w in wp] for o in omega]) / math.pi


@settings(max_examples=10, deadline=None)
@given(
    j_max=st.integers(0, 8),
    k_max=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    smoothing=st.sampled_from(
        [None, SmoothingParams(W=2.0, epsilon=0.0), SmoothingParams(W=5.0, epsilon=1e-2)]
    ),
)
@example(j_max=8, k_max=8, seed=0, smoothing=None)
def test_factorized_moments_match_cosine_accumulation(j_max, k_max, seed, smoothing):
    """Every cell of a (dj, dk) grid over both signs of each axis, in
    random order, on the raw 8x8 grid (K15 panels of width 1/2 to
    T = 1000): the factorized moments agree with one cosine per node and
    frequency to 1e-14 of the largest moment."""
    grid = _fixed_grid(1000.0, 0.5)
    weights = _node_weights(grid, smoothing)
    rng = np.random.default_rng(seed)
    uj = rng.permutation(np.arange(-j_max, j_max + 1))
    uk = rng.permutation(np.arange(-k_max, k_max + 1))
    got = bnladder.gram._moments(grid, uj, uk, smoothing)
    dj, dk = np.meshgrid(uj, uk, indexing="ij")
    want = _cosine_moments(grid, weights, dj.ravel(), dk.ravel()).T.reshape(got.shape)
    assert got.shape == (2, uj.size, uk.size)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want[0]).max()


@settings(max_examples=20, deadline=None)
@given(idx=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=1, max_size=8))
@example(idx=[(3, 1), (0, 24), (8, 8)])
def test_pair_matrices_are_exactly_symmetric(idx):
    """d and -d read one moment, so on the raw 8x8 grid every matrix equals
    its transpose bit for bit, with a duplicated point and a dj = 0 pair
    in every point set.  Grid cells themselves are not compared: a cell
    and its mirror, computed apart, can differ in the last bit."""
    j, k = idx[0]
    idx = idx + [idx[0], (j, (k + 7) % 25)]
    points = tuple(theta_of(ix) for ix in idx)
    grid = _fixed_grid(1000.0, 0.5)
    for smoothing in (None, SM):
        for m in bnladder.gram._pair_matrices(points, grid, smoothing):
            assert np.array_equal(m, m.T)


@pytest.mark.parametrize("W", [1e-160, 5e-324])
def test_taper_where_t_over_w_overflows(W):
    """t/W or its square leaves the double range: the taper takes the exact
    limit g = exp(-inf) = 0 and raises no RuntimeWarning."""
    taper = bnladder.gram._taper(np.array([0.0, 1.0, 5000.0]), SmoothingParams(W=W, epsilon=1e-3))
    assert np.array_equal(taper, [2e-3 + 1.0, 0.0, 0.0])


@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-2])
def test_smoothed_unit_row_has_zero_budget(eps):
    g = build_gram(IndexWindow(3, 3), "smoothed", smoothing=SmoothingParams(W=2.0, epsilon=eps))
    zero = g.window.position((0, 0))
    for m in (g.entries, g.err_estimate):
        assert np.all(m[zero, :] == 0.0) and np.all(m[:, zero] == 0.0)
    off = np.ones(g.size, dtype=bool)
    off[zero] = False
    assert np.all(g.err_estimate[np.ix_(off, off)] >= bnladder.gram._GAUSSIAN_TAIL_TOL)

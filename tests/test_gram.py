import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnladder.gram
from bnladder import (
    ConvergenceError,
    IndexWindow,
    ParameterError,
    QuadratureConfig,
    SmoothingParams,
    ZetaRangeError,
    breakpoints,
    build_gram,
    compare_kernel_forms,
    cross_validate,
    gram_from_json,
    gram_to_csv,
    gram_to_json,
    inner_direct,
    inner_spectral,
    mellin_direct,
    pair_inner_matrix,
    psi,
    theta_of,
    zeta_half_grid,
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
    g = build_gram(IndexWindow(4, 4), kind="smoothed", method="spectral", smoothing=SM)
    # every route is exactly symmetric on its own; build_gram does not symmetrize
    for built in (g, gram_3x3_raw_direct, gram_3x3_raw_spectral):
        assert np.array_equal(built.entries, built.entries.T)
        assert np.array_equal(built.err_estimate, built.err_estimate.T)
    zero = g.index_of((0, 0))
    assert np.all(g.entries[zero, :] == 0.0)
    assert np.all(g.entries[:, zero] == 0.0)
    n = g.entries.shape[0]
    assert np.linalg.eigvalsh(g.entries).min() >= -n * 1e-8
    # hybrid names the same decomposition for the smoothed kind
    h = build_gram(IndexWindow(4, 4), kind="smoothed", method="hybrid", smoothing=SM)
    assert np.array_equal(h.entries, g.entries)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="raw", method="direct", smoothing=SM),
        dict(kind="smoothed", method="direct", smoothing=SM),
        dict(kind="smoothed", method="spectral"),
        dict(kind="bogus", method="direct"),
        dict(kind="raw", method="bogus"),
    ],
)
def test_build_validation(kwargs):
    with pytest.raises(ParameterError):
        build_gram(IndexWindow(1, 1), **kwargs)


def test_inner_spectral_zero_row():
    assert inner_spectral((0, 0), (2, 1)) == 0.0


def test_inner_spectral_diagonal_matches_direct_within_budget():
    value, err = inner_spectral((1, 0), (1, 0), full_output=True)
    exact = inner_direct(0.5, 0.5)
    assert abs(value - exact) <= 1e-4 + err


def test_inner_spectral_smoothed_cross_is_bounded_real():
    v = inner_spectral((1, 0), (0, 1), smoothing=SM_NOFLOOR)
    assert isinstance(v, float)
    assert abs(v) <= 4.0


def test_kernel_form_comparison():
    cmp = compare_kernel_forms((1, 0), (0, 1), smoothing=SM)
    # parseval form should sit near the smoothed inner product
    v = inner_spectral((1, 0), (0, 1), smoothing=SM)
    assert cmp.value_parseval == pytest.approx(v, abs=1e-3)
    assert cmp.value_two_term == cmp.lambda_part + cmp.mu_part
    assert cmp.difference != 0.0
    assert cmp.lam == pytest.approx(-math.log(2) + math.log(3), rel=1e-12)


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
        pytest.param(("kind",), "weird", id="unknown_kind"),
        pytest.param(("method",), "bogus", id="unknown_method"),
        pytest.param(("smoothing",), {"W": 5.0, "epsilon": 1e-6}, id="raw_with_smoothing"),
        pytest.param(("window",), [3, 3], id="window_not_object"),
        pytest.param(("quad",), {"abs_tol": "tight"}, id="text_abs_tol"),
        # each keeps 16 points in coerced arithmetic, so the shape check
        # cannot be what rejects it
        pytest.param(("window",), {"j_max": 3.0, "k_max": 3}, id="float_j_max"),
        pytest.param(("window",), {"j_max": True, "k_max": 7}, id="bool_j_max"),
        pytest.param(("window",), {"j_max": 3, "k_max": "3"}, id="text_k_max"),
    ],
)
def test_gram_json_rejects_malformed_document(gram_3x3_raw_direct, path, value):
    doc = json.loads(gram_to_json(gram_3x3_raw_direct))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    with pytest.raises(ParameterError):
        gram_from_json(json.dumps(doc))


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
    zero = g.index_of((0, 0))
    mask = np.ones(len(g.points), dtype=bool)
    mask[zero] = False
    assert np.all(g.err_estimate[np.ix_(mask, mask)] > 0.0)


def test_entry_lookup(gram_3x3_raw_direct):
    g = gram_3x3_raw_direct
    v = g.entry((1, 0), (0, 1))
    assert v == pytest.approx(inner_direct(0.5, 1.0 / 3.0), rel=1e-8)
    with pytest.raises(ParameterError):
        g.entry((9, 9), (0, 0))


def test_cross_validate_3x3_report(gram_3x3_raw_direct, gram_3x3_raw_spectral):
    diff = np.abs(gram_3x3_raw_direct.entries - gram_3x3_raw_spectral.entries)
    rep = cross_validate(IndexWindow(1, 1), quad=QuadratureConfig(t_max_raw=300.0))
    assert rep.max_abs_diff <= 1e-2
    assert rep.max_err_estimate > 0.0
    # full default-range discrepancy stays under the coarse ceiling
    assert diff.max() < 1e-3


CAPPED = QuadratureConfig(max_subdivisions=1000)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: breakpoints(0.5, 1e-3, max_count=1000), "breakpoint count"),
        (lambda: pair_inner_matrix([2, 3], 1e-4, max_pieces=1000), "lattice pass needs"),
        (lambda: inner_direct(0.5, 0.3, CAPPED), "sweep needs"),
        (lambda: mellin_direct(0.5, 1.0, CAPPED), "transform needs"),
        (lambda: mellin_direct(0.3, 1.0, CAPPED), "transform needs"),
        (
            lambda: build_gram(IndexWindow(1, 1), "smoothed", smoothing=SmoothingParams(W=1e6)),
            "Gaussian taper",
        ),
    ],
    ids=["breakpoints", "lattice", "sweep", "mellin-unit", "mellin-general", "gaussian-cutoff"],
)
def test_piece_caps_raise(call, message):
    with pytest.raises(ConvergenceError, match=message):
        call()


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


@pytest.mark.parametrize("t_max,h", [(20.0, 1 / 16), (37.3, 0.25), (1000.0, 0.125)])
def test_spectral_grid_matches_panel_loop(monkeypatch, t_max, h):
    """The vectorized grid equals the per-panel loop it replaced, bit for
    bit, and the cap check sees exactly the grid's largest node."""
    seen = []
    monkeypatch.setattr(bnladder.gram, "_check_grid_top", seen.append)
    monkeypatch.setattr(bnladder.gram, "zeta_half_grid", lambda ts: np.zeros(ts.shape, complex))
    monkeypatch.setattr(bnladder.gram, "_grid_cache", {})
    grid = bnladder.gram._spectral_grid(t_max, h)
    n_panels = int(math.ceil(t_max / h))
    edges = np.minimum(np.arange(n_panels + 1) * h, t_max)
    (x15, w15), (x7, w7) = np.polynomial.legendre.leggauss(15), np.polynomial.legendre.leggauss(7)
    nodes, w_quad, w_diff = [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes += [mid + half * x15, mid + half * x7]
        w_quad += [half * w15, np.zeros(7)]
        w_diff += [half * w15, -half * w7]
    for got, want in zip((grid.nodes, grid.w_quad, grid.w_diff), (nodes, w_quad, w_diff)):
        assert np.array_equal(got, np.concatenate(want))
    assert seen == [grid.nodes.max()]


def _complex_pair_matrices(points, grid, weights):
    """The per-node accumulation the moment route replaced: form
    M_a(1/2+it) = zeta/s * (theta - theta^s) at every node and return
    (1/pi) * sum_nodes w * Re[M_a conj(M_b)] for each weight vector."""
    kernel = zeta_half_grid(grid.nodes) / (0.5 + 1j * grid.nodes)
    theta = np.array([p.theta for p in points])
    sqrt_theta = np.array([math.exp(0.5 * p.log_theta) for p in points])
    log_theta = np.array([p.log_theta for p in points])
    rows = kernel[None, :] * (
        theta[:, None] - sqrt_theta[:, None] * np.exp(1j * np.outer(log_theta, grid.nodes))
    )
    return [((rows * w) @ rows.conj().T).real / math.pi for w in weights]


SHORT_T = 20.0


@settings(max_examples=30, deadline=None)
@given(
    idx=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=1, max_size=8),
    eps=st.sampled_from([None, 0.0, 1e-6, 1e-2]),
)
@example(idx=[(0, 0), (24, 24), (24, 24), (1, 0)], eps=None)
@example(idx=[(0, 0), (0, 0)], eps=1e-2)
@example(idx=[(3, 1), (0, 0), (3, 1), (24, 24), (0, 24)], eps=1e-6)
@example(idx=[(5, 0)], eps=0.0)
def test_moments_match_complex_accumulation(idx, eps):
    """Gram entries from displacement moments equal the complex per-node
    accumulation, raw (eps None) and with the smoothed build's taper."""
    points = tuple(theta_of(ix) for ix in idx)
    grid = bnladder.gram._spectral_grid(SHORT_T, bnladder.gram._panel_width(points))
    weights = (grid.w_quad, grid.w_diff)
    if eps is not None:
        g1 = np.exp(-((grid.nodes / 5.0) ** 2))
        weights = tuple(w * (2.0 * eps * g1 + g1 * g1) for w in weights)
    got = bnladder.gram._pair_matrices(points, grid, weights)
    want = _complex_pair_matrices(points, grid, weights)
    # The difference matrix is a G15 - G7 cancellation, so its own entries
    # are no roundoff scale; both sums carry the value entries' roundoff.
    tol = 1e-14 * np.abs(want[0]).max()
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= tol
        assert np.array_equal(g, g.T)
        for i, ix in enumerate(idx):
            if ix == (0, 0):
                assert np.all(g[i, :] == 0.0) and np.all(g[:, i] == 0.0)
            for m in range(i):
                if idx[m] == ix:  # a duplicated point repeats its row bit for bit
                    assert np.array_equal(g[i], g[m]) and g[i, m] == g[i, i]

    a, b = idx[0], idx[-1]
    quad = QuadratureConfig(t_max_raw=SHORT_T)
    smoothing = None if eps is None else SmoothingParams(W=5.0, epsilon=eps)
    cmp = compare_kernel_forms(a, b, smoothing=smoothing, quad=quad)
    pair = (theta_of(a), theta_of(b))
    grid = bnladder.gram._spectral_grid(SHORT_T, bnladder.gram._panel_width(pair))
    w = grid.w_quad if smoothing is None else grid.w_quad * psi(grid.nodes, smoothing) ** 2
    (full,) = _complex_pair_matrices(pair, grid, (w,))
    assert abs(cmp.value_parseval - full[0, 1]) <= 1e-14 * np.abs(full).max()
    power = np.abs(zeta_half_grid(grid.nodes) / (0.5 + 1j * grid.nodes)) ** 2
    amp = math.exp(0.5 * (pair[0].log_theta + pair[1].log_theta))
    scale = amp * float(np.dot(np.abs(w), power)) / math.pi
    lam_part = amp * float(np.dot(w, power * np.cos(cmp.lam * grid.nodes))) / math.pi
    mu_part = -amp * float(np.dot(w, power * np.cos(cmp.mu * grid.nodes))) / math.pi
    assert abs(cmp.lambda_part - lam_part) <= 1e-14 * scale
    assert abs(cmp.mu_part - mu_part) <= 1e-14 * scale


@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-2])
def test_smoothed_unit_row_has_zero_budget(eps):
    g = build_gram(IndexWindow(3, 3), "smoothed", smoothing=SmoothingParams(W=2.0, epsilon=eps))
    zero = g.index_of((0, 0))
    for m in (g.entries, g.err_estimate):
        assert np.all(m[zero, :] == 0.0) and np.all(m[:, zero] == 0.0)
    off = np.ones(g.size, dtype=bool)
    off[zero] = False
    assert np.all(g.err_estimate[np.ix_(off, off)] >= g.quad.gaussian_tail_tol)

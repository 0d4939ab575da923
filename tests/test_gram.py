import json
import math

import numpy as np
import pytest

from bnladder import (
    IndexWindow,
    ParameterError,
    QuadratureConfig,
    SmoothingParams,
    build_gram,
    compare_kernel_forms,
    cross_validate,
    gram_from_json,
    gram_to_csv,
    gram_to_json,
    inner_direct,
    inner_spectral,
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

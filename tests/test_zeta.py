import numpy as np
import pytest

import bnladder.zeta
from bnladder import T_CAP, ZetaRangeError, zeta_half, zeta_half_grid, zeta_selfcheck
from bnladder.oracle import ZETA_ORACLE


# zeta(1/2 + i t) above the oracle table's reach, from mpmath at 40 digits
# and rounded to 30, with about 4x the measured absolute error of each
# route: the scalar call, and one grid over all six points, whose block
# sums every point to the term count of t = 9999.
HIGH_T = (
    (150.0, complex(-0.0635050565486052305800892886459, -0.0651927599258052326532936766778), 1.3e-13, 2.6e-13),
    (500.0, complex(-0.396256507275146617829576525567, -1.41812674134537081553125171514), 5.2e-13, 2.1e-12),
    (1000.0, complex(0.356334367194396055074402476711, 0.931997831232993665115060432737), 6.4e-13, 1.7e-12),
    (2500.0, complex(0.590883896839177563092591156037, 0.405404442479313334755408418409), 2.4e-12, 8.7e-12),
    (5000.0, complex(0.406842713635432558981330918771, -0.693764159198085102454522258529), 5.3e-12, 7.5e-12),
    (9999.0, complex(1.39985791048172059768481915305, 1.07187619213679093666341596683), 5.9e-11, 5.9e-11),
)


def test_high_ordinates_match_frozen_values():
    grid = zeta_half_grid(np.array([t for t, _, _, _ in HIGH_T]))
    for (t, ref, tol_scalar, tol_grid), g in zip(HIGH_T, grid):
        assert abs(zeta_half(t) - ref) <= tol_scalar, t
        assert abs(g - ref) <= tol_grid, t


@pytest.mark.parametrize("t,ref,is_zero", ZETA_ORACLE)
def test_matches_frozen_table(t, ref, is_zero):
    val = zeta_half(t)
    if is_zero:
        assert abs(val - ref) < 1e-8
    else:
        assert abs(val - ref) / abs(ref) < 1e-9


def test_value_at_origin():
    assert zeta_half(0.0).real == pytest.approx(-1.4603545088095868, abs=1e-10)
    assert zeta_half(0.0).imag == pytest.approx(0.0, abs=1e-12)


def test_schwarz_reflection():
    assert zeta_half(-5.0) == np.conj(zeta_half(5.0))


def test_grid_matches_scalar():
    ts = np.array([0.0, 1.0, 5.0, 14.134725141734695, 25.0, 50.0, 100.0])
    grid = zeta_half_grid(ts)
    for t, v in zip(ts, grid):
        ref = zeta_half(float(t))
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


def test_grid_handles_unsorted_input():
    ts = np.array([50.0, 0.5, 25.0, 3.0])
    grid = zeta_half_grid(ts)
    for t, v in zip(ts, grid):
        assert v == pytest.approx(zeta_half(float(t)), rel=1e-12)


def test_grid_rejects_bad_input():
    with pytest.raises(Exception):
        zeta_half_grid(np.array([-1.0, 2.0]))
    with pytest.raises(Exception):
        zeta_half_grid(np.array([[1.0, 2.0]]))


def test_range_cap():
    with pytest.raises(ZetaRangeError):
        zeta_half(T_CAP + 1.0)
    # the boundary itself is allowed
    zeta_half(T_CAP)


def test_selfcheck_passes_on_fresh_table():
    rep = zeta_selfcheck()
    assert rep.passed
    assert rep.max_rel_dev < 1e-9
    assert rep.max_zero_abs < 1e-8
    assert len(rep.points) == len(ZETA_ORACLE)


def test_selfcheck_detects_perturbation(monkeypatch):
    t, ref, is_zero = ZETA_ORACLE[1]
    patched = list(ZETA_ORACLE)
    patched[1] = (t, ref + 1e-6, is_zero)
    monkeypatch.setattr(bnladder.zeta, "ZETA_ORACLE", tuple(patched))
    assert not zeta_selfcheck().passed

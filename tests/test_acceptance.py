"""Acceptance gate: ten independent criteria, one test each.

Run with -v to get one pass/fail line per criterion.  Every tolerance
here is part of the package contract; tests print their measured
margins so a failure is diagnosable from the log alone.
"""

import math
import time

import numpy as np
import pytest

import bnladder.zeta
from bnladder import (
    IndexWindow,
    LOG2,
    ShellStats,
    decay_report,
    fit_exponent,
    l2_norm,
    mellin_closed,
    mellin_direct,
    shell,
    shell_stats,
    truncation_suite,
    zeta_half,
    zeta_selfcheck,
)
from bnladder.cli import main as cli_main
from bnladder.oracle import ZETA_ORACLE

ZERO_ORDINATE = 14.134725141734695


def test_criterion_01_closed_form_transform_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.5, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 12.0):
        for t in (0.0, 1.0, 5.0, 20.0):
            closed = mellin_closed(theta, t)
            direct = mellin_direct(theta, t)
            worst = max(worst, abs(closed - direct) / max(1.0, abs(closed)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    print(f"criterion 1: {'PASS' if ok else 'FAIL'} (worst_rel={worst:.3e}, {elapsed:.2f}s)")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_02_dual_method_gram_consistency(
    gram_3x3_raw_direct, gram_3x3_raw_spectral, build_times
):
    diff = np.abs(gram_3x3_raw_direct.entries - gram_3x3_raw_spectral.entries)
    budget = 1e-4 + gram_3x3_raw_spectral.err_estimate
    margin = float(np.min(budget - diff))
    elapsed = build_times["3x3_raw_direct"] + build_times["3x3_raw_spectral"]
    ok = bool(np.all(diff <= budget)) and elapsed < 60.0
    print(
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"(max_diff={diff.max():.3e}, min_margin={margin:.3e}, {elapsed:.2f}s)"
    )
    assert np.all(diff <= budget)
    assert elapsed < 60.0


def test_criterion_03_norm_bounds(gram_6x6_raw_direct, gram_6x6_smoothed):
    norms = np.sqrt(np.diag(gram_6x6_raw_direct.entries))
    worst_norm = float(norms.max())
    for theta in (0.5, 1.0 / 6.0, 1.0 / 72.0):
        worst_norm = max(worst_norm, l2_norm(theta))
    worst_entry = max(
        float(np.abs(gram_6x6_raw_direct.entries).max()),
        float(np.abs(gram_6x6_smoothed.entries).max()),
    )
    ok = worst_norm <= 2.0 + 1e-8 and worst_entry <= 4.0 + 1e-6
    print(
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"(max_norm={worst_norm:.6f}, max_entry={worst_entry:.6f})"
    )
    assert worst_norm <= 2.0 + 1e-8
    assert worst_entry <= 4.0 + 1e-6


def test_criterion_04_structural_identities(
    gram_3x3_raw_direct,
    gram_3x3_raw_spectral,
    gram_6x6_raw_direct,
    gram_6x6_smoothed,
    gram_8x8_raw_direct,
    gram_8x8_smoothed,
):
    grams = [
        gram_3x3_raw_direct,
        gram_3x3_raw_spectral,
        gram_6x6_raw_direct,
        gram_6x6_smoothed,
        gram_8x8_raw_direct,
        gram_8x8_smoothed,
    ]
    worst_eig = 0.0
    for g in grams:
        n = g.entries.shape[0]
        assert np.array_equal(g.entries, g.entries.T)
        zero = g.window.position((0, 0))
        assert np.all(g.entries[zero, :] == 0.0)
        assert np.all(g.entries[:, zero] == 0.0)
        lam_min = float(np.linalg.eigvalsh(g.entries).min())
        worst_eig = min(worst_eig, lam_min / n)
        assert lam_min >= -n * 1e-8
    print(f"criterion 4: PASS (worst min_eig/n={worst_eig:.3e} over {len(grams)} builds)")


def test_criterion_05_zeta_reference_grid():
    t0 = time.perf_counter()
    rep = zeta_selfcheck()
    mod_at_zero = abs(zeta_half(ZERO_ORDINATE))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.max_rel_dev < 1e-9 and mod_at_zero < 1e-8 and elapsed < 1.0
    print(
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"(max_rel={rep.max_rel_dev:.3e}, |zeta@zero|={mod_at_zero:.3e}, {elapsed:.3f}s)"
    )
    assert rep.passed
    assert rep.max_rel_dev < 1e-9
    assert mod_at_zero < 1e-8
    assert elapsed < 1.0


def test_criterion_06_envelope_and_truncation_mechanics(gram_6x6_smoothed):
    g = gram_6x6_smoothed
    env_tail = decay_report(g).envelope_tail
    tail_monotone = all(env_tail[i] >= env_tail[i + 1] for i in range(len(env_tail) - 1))
    reports = truncation_suite(g, range(1, 14)).reports
    sums_monotone = True
    for i in range(len(g.points)):
        prev = math.inf
        for r in reports:
            cur = r.tail_sums[i][1]
            sums_monotone &= cur <= prev
            prev = cur
    dominance = True
    worst_gap = math.inf
    for r in reports[:4]:  # B = 1..4
        dominance &= r.empirical_opnorm <= r.schur_bound
        worst_gap = min(worst_gap, r.schur_bound - r.empirical_opnorm)
    ok = tail_monotone and sums_monotone and dominance
    print(
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"(tail_monotone={tail_monotone}, sums_monotone={sums_monotone}, "
        f"min schur-opnorm gap={worst_gap:.3e})"
    )
    assert tail_monotone
    assert sums_monotone
    assert dominance


def test_criterion_07_planted_exponent_recovery():
    worst = 0.0
    for m in (1, 2, 3, 5):
        shells = [
            ShellStats(r=r, count=1, mean_abs=(1 + LOG2 * r) ** (-m), max_abs=1.0, sum_abs=1.0)
            for r in range(11)
        ]
        got = fit_exponent(shells, (1, 10))
        worst = max(worst, abs(got - m))
    ok = worst < 1e-10
    print(f"criterion 7: {'PASS' if ok else 'FAIL'} (worst_abs_err={worst:.3e})")
    assert worst < 1e-10


def test_criterion_08_smoothing_steepens_decay(
    gram_8x8_raw_direct, gram_8x8_smoothed, build_times
):
    t0 = time.perf_counter()
    m_raw = fit_exponent(shell_stats(gram_8x8_raw_direct), (1, 7))
    m_smoothed = fit_exponent(shell_stats(gram_8x8_smoothed), (1, 7))
    elapsed = (
        time.perf_counter() - t0
        + build_times["8x8_raw_direct"]
        + build_times["8x8_smoothed"]
    )
    ok = m_smoothed > m_raw and elapsed < 900.0
    print(
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(m_raw={m_raw:.4f}, m_smoothed={m_smoothed:.4f}, {elapsed:.1f}s)"
    )
    assert elapsed < 900.0
    assert m_smoothed > m_raw, (
        f"smoothed fit {m_smoothed:.4f} does not exceed raw fit {m_raw:.4f}: "
        "Gaussian tapering removes more high-frequency mass from nearby pairs "
        "than from distant ones, so the fitted slope moves the other way"
    )


def test_criterion_09_shell_growth_bound():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for size in range(13):
        w = IndexWindow(size, size)
        diam = 2 * size
        for center in w:
            for r in range(1, diam + 1):
                n = len(shell(center, r, window=w))
                assert n <= 4 * r
                worst_ratio = max(worst_ratio, n / (4 * r))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    print(
        f"criterion 9: {'PASS' if ok else 'FAIL'} "
        f"(max count/4r={worst_ratio:.3f}, {elapsed:.2f}s)"
    )
    assert elapsed < 5.0


def test_criterion_10_selfcheck_negative_control(monkeypatch, capsys):
    detected = 0
    for i in range(len(ZETA_ORACLE)):
        patched = list(ZETA_ORACLE)
        t, ref, is_zero = patched[i]
        patched[i] = (t, ref + 1e-6, is_zero)
        monkeypatch.setattr(bnladder.zeta, "ZETA_ORACLE", tuple(patched))
        if not zeta_selfcheck().passed:
            detected += 1
        monkeypatch.setattr(bnladder.zeta, "ZETA_ORACLE", ZETA_ORACLE)
    # full CLI run with one constant perturbed must exit nonzero
    patched = list(ZETA_ORACLE)
    t, ref, is_zero = patched[0]
    patched[0] = (t, ref + 1e-6, is_zero)
    monkeypatch.setattr(bnladder.zeta, "ZETA_ORACLE", tuple(patched))
    code = cli_main(["selfcheck"])
    capsys.readouterr()
    ok = detected == len(ZETA_ORACLE) and code == 3
    print(
        f"criterion 10: {'PASS' if ok else 'FAIL'} "
        f"(perturbations detected={detected}/{len(ZETA_ORACLE)}, cli exit={code})"
    )
    assert detected == len(ZETA_ORACLE)
    assert code == 3

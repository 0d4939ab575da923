"""CLI output bytes, frozen.

The sha256 of each output file was recorded from the per-pair loops and
per-cell serializers that preceded the numpy diagnostics and the
:mod:`bnladder.io` writers; the current code must reproduce every byte.
The eight spectral and smoothed cases were re-frozen when spectral
entries moved to displacement moments: a new summation order moved
values by at most 1.4e-6 of their budgets, and smoothed budgets on the
theta = 1 row became 0.  They were re-frozen again when the spectral
grid moved to Gauss-Kronrod K15 panels sized by the width rule: values
moved by at most 1.9e-10 (the 1x1 raw window at t_max_raw = 50), at most
3.3e-6 of their budgets.  The three raw direct cases (``gram_raw_3``,
``decay_raw_3``, ``truncate_raw_3_direct_csv``) were re-frozen when the
closed form moved to the four-term assembly of its K table, which it
shares with the spectral route.  Dropping the -1/(ab) terms, which cancel
exactly, moved Gram entries by at most 5.6e-17, 2.4 % of their budgets;
the re-derived roundoff budgets grew by at most 33 %, and every derived
number moved by at most 8.9e-16.  The three ``truncate`` cases were
re-frozen when ``empirical_opnorm`` moved from power iteration, which
stops early on the indefinite residual, to the exact largest |eigenvalue|:
each norm rose by at most 1.02e-7 relative (1.41e-9 on the raw case),
while every Schur bound and tail sum kept its bytes.  The eleven cases
that depend on zeta (the spectral, smoothed and spectrum ones) were
re-frozen when zeta moved from the eta series to Euler-Maclaurin
summation: Gram entries moved by at most 3.3e-16, 1.7e-6 of their
budgets, and |M| in the spectrum cases by at most 6.4e-13 relative.
The eight spectral and smoothed Gram, decay and truncate cases were
re-frozen when the cosine moments moved to the product of one
exponential per distinct dj and one per distinct dk: Gram entries moved
by at most 5.6e-16, 2.5e-6 of their budgets.  The vectorized CSV writer
that came with it changed no byte of any case.  The two ``g.json`` files
(``gram_smoothed_4_json``, ``gram_smoothed_2_quad_json``) were re-frozen
when the Gram JSON moved to schema ``bnladder.gram/2``, whose ``quad``
has no ``rel_tol``: those two lines are the whole difference.  They were
re-frozen again at schema ``bnladder.gram/3``, whose ``quad`` no longer
holds the sweep's piece cap or the Gaussian tail target, now constants:
the schema line and those two lines are the whole difference.  They were
re-frozen once more at schema ``bnladder.gram/4``, whose ``quad`` has no
``abs_tol``, now the constant behind the default cutoff: the schema line
and the ``abs_tol`` line are the whole difference (``g.json`` of
``gram_smoothed_4_json`` was then 808227e6..., of
``gram_smoothed_2_quad_json`` aee0fcdd...).  The latter also drops
``--abs-tol 1e-5`` from its argv; its ``--x-min 1e-3`` already fixed the
cutoff, so no number changed.  The eleven cases that depend on zeta were
re-frozen when zeta's head sum moved to a table with a cosine and a sine
only at primes and every composite k^-it a product of two earlier rows:
Gram entries moved by at most 5.6e-16, 5.5e-6 of their budgets, every
decay and truncate number by at most 2.9e-15, and |M| in the spectrum
cases by at most 1.0e-13 relative.  The three raw direct cases were
re-frozen when F(1, k) for k >= 64 moved from the cotangent sum to its
Euler-Maclaurin series, which the 3x3 slots with k = 72, 108 and 216
take: Gram entries moved by at most 3.1e-16, 4.9 % of their old budgets
and 4.4 % of old + new budget; no budget grew, and the 81 that changed
shrank by up to 211x.  Every decay and truncate number moved by at most
2.0e-15.  The seven smoothed cases were re-frozen when the epsilon^2
share became epsilon^2 times the raw direct build, the closed form below
the cap, in place of a cutoff sweep: the 4x4 Gram entries moved by at most
7.9e-14, 7.9e-4 of their old budgets, and those of
``gram_smoothed_2_quad_json`` (eps = 1e-4, ``--x-min 1e-3``) by at most
7.8e-10, 0.24 of their old budgets, whose largest fell from 5.7e-9 to
1.0e-10; no budget grew.  Measured against the largest old Gram budget of
the build, the other files moved by at most: ``g.normalized.*`` 2.6e-13
(0.0026) on 4x4 and 3.3e-9 (0.57) on the 2x2; every ``d.*`` file 2.3e-12
(0.023); ``t.json`` 6.7e-13 (0.0066) and ``t.csv`` 4.8e-13 (0.0048).
The eleven cases that depend on zeta were
re-frozen when the spectral route was factored over its K15 panels:
zeta's head sum became a table over the panel midpoints times one table
over the shared offsets, with a first-order term in each node's rounding,
scalar and grid calls became the one-offset case of that evaluator, and
the moment exponentials became midpoint times offset products.  Gram
entries moved by at most 1.2e-15 (the 1x1 raw window at t_max_raw = 50),
at most 4.4e-6 of their budgets, and budgets by at most 2.0e-7 relative;
every decay and truncate number moved by at most 3.6e-15, and |M| in the
spectrum cases by at most 2.4e-15 (3.6e-13 relative, where |M| = 3.1e-4
beside the zero of zeta at t = 69.55).
The six smoothed 4x4 cases (``gram_smoothed_4_csv`` and ``_json``,
``decay_smoothed_4``, ``decay_smoothed_4_csv_with_zero_row``,
``truncate_smoothed_4`` and ``_csv``) were re-frozen when the moment pass
went from slabs of 1,024 panels to slabs bounded by bytes (156 panels
on 4x4), which changes the order of the slab sums; zeta kept every bit.
Gram entries moved by at most 2.2e-16, 2.2e-6 of their budgets, and no
budget moved.  Against the build's largest Gram budget, 1.0e-10, the
other files moved by at most: ``g.normalized.*`` 1.1e-15 (1.1e-5);
``d.json``, ``d.shells.csv``, ``d.csv`` and ``d.report.json`` 8.9e-16
(8.9e-6); ``t.json`` 4.4e-16 (4.4e-6) and ``t.csv`` 1.7e-16 (1.7e-6).
``gram_raw_2_spectral_off_grid`` was added when the spectral grid came
to lay out n = ceil(t_max / h) equal panels of width t_max / n in place
of full-width panels and a clipped last one.  It pins the one kind of
output that changed, a raw spectral build at a height that its panel
width does not divide: there the accepted width 1 becomes 0.9997, and
against the clipped layout its Gram entries moved by at most 2.4e-15,
6.4e-12 of their budgets.  Every earlier case kept its bytes.
The values depend on float64 arithmetic only (no randomness), so a
mismatch means a changed number or a changed format, not noise.
"""

import hashlib
import os

import pytest

from bnladder.cli import main

SMOOTHED_4 = ["--jmax", "4", "--kmax", "4", "--kind", "smoothed"]
RAW_3 = ["--jmax", "3", "--kmax", "3", "--kind", "raw"]

GOLDEN = {
    "gram_smoothed_4_csv": (
        ["gram", *SMOOTHED_4],
        "g.csv",
        {
            "g.csv": "b0ca3f6bad780c51918c4f1610ad322a0895df9a6f463b059e9b8225feceee07",
            "g.normalized.csv": "38c667fe4430ae23339c5d9976424a4ea08e6a6f4c137f6ae10ea4aa0a5844b3",
        },
    ),
    "gram_smoothed_4_json": (
        ["gram", *SMOOTHED_4, "--format", "json"],
        "g.json",
        {
            "g.json": "ed87421998e3b5782449f187a89f7627713ca1a4a7d825f0755feeb58fe788e5",
            "g.normalized.json": "ab78194dfe0e8056b0e9994c51c4c4452c6119dba3644103636242e2d161a0d9",
        },
    ),
    "decay_smoothed_4": (
        ["decay", *SMOOTHED_4],
        "d.json",
        {
            "d.json": "7884671b44029eb3bc217c18276d85a8d48ee2bd02827594d20d4c6a516d0ec0",
            "d.shells.csv": "0c2ce8856fec84a482c638786839da9aa9deeb905a9541912701b30972460f94",
        },
    ),
    "decay_smoothed_4_csv_with_zero_row": (
        ["decay", *SMOOTHED_4, "--format", "csv", "--exclude-zero-row", "false"],
        "d.csv",
        {
            "d.csv": "6a7a769d7cb4e75ff1011ecbe411744150a7301ec138b32d548a1dceaa952606",
            "d.report.json": "72b088f9f06718f58c6ad28e06ea46863874b851804572fa4237aedf8e344e1b",
        },
    ),
    "truncate_smoothed_4": (
        ["truncate", "--jmax", "4", "--kmax", "4"],
        "t.json",
        {"t.json": "41df49d05d5f6158d896c111dec14d0b8b97a5a2eac973d3f535dc66cd5d54a2"},
    ),
    "truncate_smoothed_4_csv": (
        ["truncate", "--jmax", "4", "--kmax", "4", "--format", "csv"],
        "t.csv",
        {"t.csv": "8dacb3944851b997a41d7bfb439240a3e87ba6548bbfcb24432f5f9a078c4a53"},
    ),
    "gram_raw_3": (
        ["gram", *RAW_3],
        "g.csv",
        {
            "g.csv": "024ae491ebe00331e8c66c04380113b1f723ffa4b518fc2bb51c4b81dc90eea0",
            "g.normalized.csv": "c99d516410659a87402898ec6a37de64a242edf4960bece50ad0af80c0f9e3d8",
        },
    ),
    "decay_raw_3": (
        ["decay", *RAW_3],
        "d.json",
        {
            "d.json": "24c433041fe08ddd45551c2175600be096157318749835a291328b3c4ce96abd",
            "d.shells.csv": "b55c7675626d6ed1f8fc6e603a97486840520a1762bd2af9e634995067049c5e",
        },
    ),
    "ladder_csv": (
        ["ladder", "--jmax", "3", "--kmax", "2"],
        "l.csv",
        {"l.csv": "82abc6c6f5062874ef0ef65d341d2c6b566608f2d19ac432215f8dbfaaf83f74"},
    ),
    "ladder_json": (
        ["ladder", "--jmax", "3", "--kmax", "2", "--format", "json"],
        "l.json",
        {"l.json": "59f628d5b7414a8f46319a7e07ea15d9332012765460a1a115ce6e403d5994e1"},
    ),
    "spectrum_csv": (
        ["spectrum", "--theta", "1/6", "--points", "20"],
        "s.csv",
        {"s.csv": "ae5decf783af728819dfb1e90d40c94f2f53c6a2f909413d38c4ecea0faaf542"},
    ),
    "spectrum_json": (
        ["spectrum", "--theta", "1/6", "--points", "20", "--format", "json"],
        "s.json",
        {"s.json": "8d3e6cb78749ee1f107cca41cd16f77aef2485f27268c915fdb4371da1d6d6e7"},
    ),
    # frozen from the per-subcommand cmd_* functions before the CLI handlers
    # were rebound to argparse, to pin the flags no case above exercises
    "gram_raw_1_spectral": (
        ["gram", "--jmax", "1", "--kmax", "1", "--kind", "raw", "--method", "spectral",
         "--tmax-raw", "50"],
        "g.csv",
        {
            "g.csv": "eaeb30eec4650f789ab15f3a6fd67551c2e5a7912f77e9954199bf7f47ae510a",
            "g.normalized.csv": "cc3693f5d87d62ddc42edbbad1bbf2698c8b6aa11299bc45963917e8d4d8a909",
        },
    ),
    # the one kind of output that changed when the spectral grid came to lay
    # out equal panels that end at t_max: 1/2 does not divide 999.7
    "gram_raw_2_spectral_off_grid": (
        ["gram", "--jmax", "2", "--kmax", "2", "--kind", "raw", "--method", "spectral",
         "--tmax-raw", "999.7"],
        "g.csv",
        {
            "g.csv": "20b14c1e5cd930ba3439c3676efe948effcdaa98e679e0bba2b1a5bccc71741d",
            "g.normalized.csv": "c6c150e669205974f61548fa65f10f6dbdda63262e7be5f761d6bd7240839e7e",
        },
    ),
    "gram_smoothed_2_quad_json": (
        # the JSON `quad` object records --x-min and --tmax-raw
        ["gram", "--jmax", "2", "--kmax", "2", "--kind", "smoothed", "--W", "2", "--eps", "1e-4",
         "--x-min", "1e-3", "--tmax-raw", "500", "--format", "json"],
        "g.json",
        {
            "g.json": "7cee573288b831bce820875cac0742bce94f2676a998a8099838935851322994",
            "g.normalized.json": "b4ed236c3574025b71d229685ff4feed40b56f6ce1f180fcbcbd693705a0f14c",
        },
    ),
    "truncate_raw_3_direct_csv": (
        ["truncate", *RAW_3, "--method", "direct", "--bs", "1,2", "--format", "csv"],
        "t.csv",
        {"t.csv": "5dbdd70a2a00c12a0d98ff7d4cdd56b94d2c11ea92fb19e09165102e01393d99"},
    ),
    "profile_two_thetas": (
        ["profile", "--theta", "1/3", "--theta", "0.25", "--points", "8"],
        "p.csv",
        {"p.csv": "629df619770f8666babf70e79923dc64c9ff46a3a370f09e03b73a8fbcaf2db9"},
    ),
    "spectrum_quarter_unfloored": (
        ["spectrum", "--theta", "1/4", "--W", "2", "--eps", "0", "--tmin", "1", "--tmax", "30",
         "--points", "9"],
        "s.csv",
        {"s.csv": "01ddf533d56680600011022f1a33b9cae894ef7a52949b76c719eea451342575"},
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_bytes(tmp_path, case):
    argv, out, want = GOLDEN[case]
    assert main(argv + ["--out", str(tmp_path / out)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(want)
    got = {}
    for name in want:
        with open(tmp_path / name, "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == want

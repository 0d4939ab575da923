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
``gram_smoothed_4_json`` is now 808227e6..., of
``gram_smoothed_2_quad_json`` aee0fcdd...).  The latter also drops
``--abs-tol 1e-5`` from its argv; its ``--x-min 1e-3`` already fixed the
cutoff, so no number changed.
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
            "g.csv": "13e18c016877ad34d4c34a06c499e87dab642edf4ef229989458f62db05d2bdb",
            "g.normalized.csv": "07d650a3d0d5b78f06d7f707300b26d908114bff4a3bfb42801c080a3f1e79a3",
        },
    ),
    "gram_smoothed_4_json": (
        ["gram", *SMOOTHED_4, "--format", "json"],
        "g.json",
        {
            "g.json": "808227e6002c407e3356853be21f25fba44ff6d25dc6ec8ede26020c2a4eeaee",
            "g.normalized.json": "9cf27388fb1c9bad845450f8f2bc75d107091973977191e0f29e4f040f0be0cf",
        },
    ),
    "decay_smoothed_4": (
        ["decay", *SMOOTHED_4],
        "d.json",
        {
            "d.json": "0613000360fb7491c0a245594a1bb5a285f236cec792e9e5d215342f8da558ff",
            "d.shells.csv": "daf0f8aa0cd47093d3821b3fe086623fac175f8adabca69de05b70e73262b0db",
        },
    ),
    "decay_smoothed_4_csv_with_zero_row": (
        ["decay", *SMOOTHED_4, "--format", "csv", "--exclude-zero-row", "false"],
        "d.csv",
        {
            "d.csv": "1ad1960ac11b07ecd11abf9865647f8caa05c4c0d2a24dbee0c608928a12b7f0",
            "d.report.json": "d63ca2901732272f4b04a5c4b0d31f8acd272e6e38a2cdb2445669283d8c7ff8",
        },
    ),
    "truncate_smoothed_4": (
        ["truncate", "--jmax", "4", "--kmax", "4"],
        "t.json",
        {"t.json": "38960b845ee9a4462934eab6311f2f3798cceae128fd02ab02a5897c322d3780"},
    ),
    "truncate_smoothed_4_csv": (
        ["truncate", "--jmax", "4", "--kmax", "4", "--format", "csv"],
        "t.csv",
        {"t.csv": "e6b9311d927e5f3b25b31d66965607af002805e890304a6d47c426050c7665a5"},
    ),
    "gram_raw_3": (
        ["gram", *RAW_3],
        "g.csv",
        {
            "g.csv": "022f38361407b7a30486d45937814707b93bac5f1be6830c9d89ccfb83a0c759",
            "g.normalized.csv": "864de13ccf7dab6cc54d803b662aa79bf70bb335e27ed909c2df989b05055d04",
        },
    ),
    "decay_raw_3": (
        ["decay", *RAW_3],
        "d.json",
        {
            "d.json": "cab7203091407b7674295d951ecab6319651b1fd39eb482df9db7242e5e77f97",
            "d.shells.csv": "09437c4e6ab3b6c6102e2fc81f4b711e2070f1494b31648f8ba0a03f4b8309be",
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
        {"s.csv": "dbc63c07496b31379df71c66e524fce672cdd6e5fcbfd9f28ee288739f5bc114"},
    ),
    "spectrum_json": (
        ["spectrum", "--theta", "1/6", "--points", "20", "--format", "json"],
        "s.json",
        {"s.json": "50f66c061074f83a76bc9759fb379ca1d7907541780ce02549ee673e014ddd69"},
    ),
    # frozen from the per-subcommand cmd_* functions before the CLI handlers
    # were rebound to argparse, to pin the flags no case above exercises
    "gram_raw_1_spectral": (
        ["gram", "--jmax", "1", "--kmax", "1", "--kind", "raw", "--method", "spectral",
         "--tmax-raw", "50"],
        "g.csv",
        {
            "g.csv": "80956dc92e84ed8656f12421c8131914a6708c3e39dae716cbff349faee8c18a",
            "g.normalized.csv": "b77f0bb507b59553381a0cd12d028994b1e3fab544d161cc67d886a6b46b98eb",
        },
    ),
    "gram_smoothed_2_quad_json": (
        # the JSON `quad` object records --x-min and --tmax-raw
        ["gram", "--jmax", "2", "--kmax", "2", "--kind", "smoothed", "--W", "2", "--eps", "1e-4",
         "--x-min", "1e-3", "--tmax-raw", "500", "--format", "json"],
        "g.json",
        {
            "g.json": "aee0fcdd8a250322c0ebb9775f3471315bd08462a8b058c1cc00239d90f40aec",
            "g.normalized.json": "01edd1a06d7ad860401932250ad04f8e3848a29ee152b137ad3d73136cf61a1d",
        },
    ),
    "truncate_raw_3_direct_csv": (
        ["truncate", *RAW_3, "--method", "direct", "--bs", "1,2", "--format", "csv"],
        "t.csv",
        {"t.csv": "eceb6455aa50dd570854a350b3e9acf1fe76b16f6b09855d76815e845937ba3d"},
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
        {"s.csv": "6f1435c6872fbdd62341ad427271bac75a7177f2da76284ca0494e58c5ac2970"},
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

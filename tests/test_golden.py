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
            "g.csv": "8e7afc34a7c43822731930158a846020cbca0edcd228d656d2ac68ce4f009ce3",
            "g.normalized.csv": "859af19a29a32d997393c58112a1ea440273050a62b2593c8267a041688413a8",
        },
    ),
    "gram_smoothed_4_json": (
        ["gram", *SMOOTHED_4, "--format", "json"],
        "g.json",
        {
            "g.json": "22febaac0400f3679723c0963451f8c52891458847a177d3955b276df21e7540",
            "g.normalized.json": "53f8aa982dd2f8b85d99ea4113da2eae8a8965c97fdb2f2872d8e09fa1c539bb",
        },
    ),
    "decay_smoothed_4": (
        ["decay", *SMOOTHED_4],
        "d.json",
        {
            "d.json": "552c40e2c06733319f08457d7b8f4fd512d9ad5015448018478da13953d01cd1",
            "d.shells.csv": "2086f44bcfeadb8205a841853be3c586f86360dcdc1e72ca6d4422db8efea520",
        },
    ),
    "decay_smoothed_4_csv_with_zero_row": (
        ["decay", *SMOOTHED_4, "--format", "csv", "--exclude-zero-row", "false"],
        "d.csv",
        {
            "d.csv": "948912d4eb5e02a4fc1a807730f5845f811e0daae4a7921d81ac8ff0343445f7",
            "d.report.json": "549180b45e850ff8db4346b910a0e48dcc8e4364450cb823474e7e4288fd8ccd",
        },
    ),
    "truncate_smoothed_4": (
        ["truncate", "--jmax", "4", "--kmax", "4"],
        "t.json",
        {"t.json": "bdd07bd5258e507e639a676827e57f8385d944ae2bc58d07912ff828d3f2c03a"},
    ),
    "truncate_smoothed_4_csv": (
        ["truncate", "--jmax", "4", "--kmax", "4", "--format", "csv"],
        "t.csv",
        {"t.csv": "f0583ea3fde067c73d877b53754bc8268b715cafd9eb90c5cd62192702cc8820"},
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
            "g.csv": "e3f8eb2539f0ecb924ea5c5e38c5ca8eaef7d410fe9f9a885a508fa1512c12ab",
            "g.normalized.csv": "397adea21008a73798ec8b64e049ecc97bb2457c46921b710ccb286ab28eb910",
        },
    ),
    "gram_smoothed_2_quad_json": (
        # the JSON `quad` object records --abs-tol, --x-min and --tmax-raw
        ["gram", "--jmax", "2", "--kmax", "2", "--kind", "smoothed", "--W", "2", "--eps", "1e-4",
         "--abs-tol", "1e-5", "--x-min", "1e-3", "--tmax-raw", "500", "--format", "json"],
        "g.json",
        {
            "g.json": "a1321bc6e208506f445547d7a7efcf66e2a8de9d8511d9a546e0b544860f8585",
            "g.normalized.json": "60ae76d3df266a9b255a54c72f5f5f1d53ac87b7817641b034d4e815e73bfb23",
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

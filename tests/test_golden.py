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
while every Schur bound and tail sum kept its bytes.  The values depend
on float64 arithmetic only (no randomness), so a mismatch means a changed
number or a changed format, not noise.
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
            "g.csv": "0b8649900f82676f10159ee3c1addc8f36a5121f65184e39015f4a495071ffd5",
            "g.normalized.csv": "6923f41a39c1e8a56cf4d82c51537c9ada256e1a772eb9155032387fa038e0d8",
        },
    ),
    "gram_smoothed_4_json": (
        ["gram", *SMOOTHED_4, "--format", "json"],
        "g.json",
        {
            "g.json": "7bd36ed3108591a8f1466146901b6fe5f9ba5f31836e9d2b83c0739621ff4dc4",
            "g.normalized.json": "973084758d62ad3fbcdb8cb6e70bb91ec0fecdcaa3e770801145894579917d05",
        },
    ),
    "decay_smoothed_4": (
        ["decay", *SMOOTHED_4],
        "d.json",
        {
            "d.json": "51a81e4cf640f7479a751319146e6f059221c1ab5df84cef0c7539e9ed467e4b",
            "d.shells.csv": "e8eba8d78d561e10e6e6a508a7d7ff4a52a69f13ba680978d84cc176d56efcd4",
        },
    ),
    "decay_smoothed_4_csv_with_zero_row": (
        ["decay", *SMOOTHED_4, "--format", "csv", "--exclude-zero-row", "false"],
        "d.csv",
        {
            "d.csv": "d1c7601c11cc46869d5fe12ecd87f4da4cd5a40f0aea219e0b9bb02827b95847",
            "d.report.json": "d3b08bbe6f4609915f0e96c03ef3bcaec771344a973213c87c3352e398812f19",
        },
    ),
    "truncate_smoothed_4": (
        ["truncate", "--jmax", "4", "--kmax", "4"],
        "t.json",
        {"t.json": "19190a6681c36419d652a4988666ebc4af503e2c632d68cb6c51ff1ec32fd8e5"},
    ),
    "truncate_smoothed_4_csv": (
        ["truncate", "--jmax", "4", "--kmax", "4", "--format", "csv"],
        "t.csv",
        {"t.csv": "ad4159ec8f58528b8750a4c4f9f2cd8fd1e03346fa514162dedad6ba6487a6c7"},
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
        {"s.csv": "ce2c8b0a604dcf21a84010d98f74b42aaffada233387c407e76688ca50ea32cf"},
    ),
    "spectrum_json": (
        ["spectrum", "--theta", "1/6", "--points", "20", "--format", "json"],
        "s.json",
        {"s.json": "aadb0b504349b3ad27d79b4bb02f8c490ca7f3666da14469d1927d4f15f66ed0"},
    ),
    # frozen from the per-subcommand cmd_* functions before the CLI handlers
    # were rebound to argparse, to pin the flags no case above exercises
    "gram_raw_1_spectral": (
        ["gram", "--jmax", "1", "--kmax", "1", "--kind", "raw", "--method", "spectral",
         "--tmax-raw", "50"],
        "g.csv",
        {
            "g.csv": "b987a5f56b2bfc954a129e8bb1baf4896153653b2491088b2ded5bc770f2387a",
            "g.normalized.csv": "171087d8db7f3165c24581fd877ee853cc78e24a1e161a280365e4a96640fb69",
        },
    ),
    "gram_smoothed_2_quad_json": (
        # the JSON `quad` object records --abs-tol, --x-min and --tmax-raw
        ["gram", "--jmax", "2", "--kmax", "2", "--kind", "smoothed", "--W", "2", "--eps", "1e-4",
         "--abs-tol", "1e-5", "--x-min", "1e-3", "--tmax-raw", "500", "--format", "json"],
        "g.json",
        {
            "g.json": "fe949177fe07cad8b8b2be5ae9120c8f5bb079a22e6c5b7561f399e9954a25f3",
            "g.normalized.json": "4a173a72ab65afdca8095e86e73807294f80741bdd72db0f69be4fa51149b340",
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
        {"s.csv": "8d6d447e7ec211dde21af02835111dc408b8d793341461671cabd3d5e4bfeffa"},
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

"""CLI output bytes, frozen.

The sha256 of each output file was recorded from the per-pair loops and
per-cell serializers that preceded the numpy diagnostics and the
:mod:`bnladder.io` writers; the current code must reproduce every byte.
The eight spectral and smoothed cases were re-frozen when spectral
entries moved to displacement moments: a new summation order moved
values by at most 1.4e-6 of their budgets, and smoothed budgets on the
theta = 1 row became 0.  The values depend on float64 arithmetic only
(no randomness), so a mismatch means a changed number or a changed
format, not noise.
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
            "g.csv": "bef80c924a8d161c11f93ea7110fcc8e80e2e0c672ee3f75e9a26e3694b4cecb",
            "g.normalized.csv": "f8f8271d1cdbc823346cdc7a2bd802010f575f6dae2213a829ec8847152e7bb4",
        },
    ),
    "gram_smoothed_4_json": (
        ["gram", *SMOOTHED_4, "--format", "json"],
        "g.json",
        {
            "g.json": "1a0b4936e150ed5ec6c96b1d6190002dba6334760401618136c3749c8a24043d",
            "g.normalized.json": "30fa1bf3b086055f4770ac53581a9646f0143035e3ddf35075ecd9bd68ae6cc0",
        },
    ),
    "decay_smoothed_4": (
        ["decay", *SMOOTHED_4],
        "d.json",
        {
            "d.json": "3c021bc9ebd967c803fa97e0719a59039aec811bcb393e9ce84be3ca7bf436d5",
            "d.shells.csv": "56d111b0b1aeb6f8b06fdf7d9da1d544013ab3f82a541e3bd9a36d20148a7703",
        },
    ),
    "decay_smoothed_4_csv_with_zero_row": (
        ["decay", *SMOOTHED_4, "--format", "csv", "--exclude-zero-row", "false"],
        "d.csv",
        {
            "d.csv": "bda8995798f6f4101e17547a918a51a74c02a3e7385a10fd4c519b7f6db7b017",
            "d.report.json": "043142e150039ca1ba8e07ae2b78e145980dea1654a2ac82b5dc09cb1ed13ee4",
        },
    ),
    "truncate_smoothed_4": (
        ["truncate", "--jmax", "4", "--kmax", "4"],
        "t.json",
        {"t.json": "ff5eb14e68788b650bdeb13260f005b93b44b9b26c443bde5a840a6b4c783deb"},
    ),
    "truncate_smoothed_4_csv": (
        ["truncate", "--jmax", "4", "--kmax", "4", "--format", "csv"],
        "t.csv",
        {"t.csv": "114df01e0cb932e6788018f4f0965c9450e9c60d19e4fa0b907aad29e1db5639"},
    ),
    "gram_raw_3": (
        ["gram", *RAW_3],
        "g.csv",
        {
            "g.csv": "c608c07df11ea6f305cfc72aa6d69e531f97bf3df361bc1c4733f833dbf7d499",
            "g.normalized.csv": "f18d0fef75ed27ff693c7f19f65ca55b3a9badd7e8f519d175ea0d28d4254a45",
        },
    ),
    "decay_raw_3": (
        ["decay", *RAW_3],
        "d.json",
        {
            "d.json": "63a4e72972888d8c3119a1b2866bfd40b4ff2798a6e63b003f3ae4821baa8636",
            "d.shells.csv": "ca2e39a9e9362d745eacbceac11f9cb3dadb52ef575893b910f07667bbe84c67",
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
            "g.csv": "a4aa32ebba6377a11672b9d22913073c51efb9df69786eafdffacb8c9f7766f1",
            "g.normalized.csv": "153fec2430acffc9a518d81bf7e14061534cb4c5edc25f098b3b63c75f14b29a",
        },
    ),
    "gram_smoothed_2_quad_json": (
        # the JSON `quad` object records --abs-tol, --x-min and --tmax-raw
        ["gram", "--jmax", "2", "--kmax", "2", "--kind", "smoothed", "--W", "2", "--eps", "1e-4",
         "--abs-tol", "1e-5", "--x-min", "1e-3", "--tmax-raw", "500", "--format", "json"],
        "g.json",
        {
            "g.json": "ab5eddfacf68c37e0fd7ab4884777b37aa52a356fb8e832bab6e9cb5285bbde4",
            "g.normalized.json": "79f438bf750563e8fee77f4be7a5c27b612c9a0230e39c0b72f80953f53b11bb",
        },
    ),
    "truncate_raw_3_direct_csv": (
        ["truncate", *RAW_3, "--method", "direct", "--bs", "1,2", "--format", "csv"],
        "t.csv",
        {"t.csv": "d987e2b8603b6afd966464a2a76dd3054d41aea0076cd4b74ab7427e8a3ca113"},
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

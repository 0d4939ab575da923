"""CLI output bytes, frozen.

The sha256 of each output file was recorded from the per-pair loops and
per-cell serializers that preceded the numpy diagnostics and the
:mod:`bnladder.io` writers; the current code must reproduce every byte.
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
            "g.csv": "0ceceda78cb9fa9324dfcdceaf1c13e355005720b3eb5e7aa9078ededf8c209d",
            "g.normalized.csv": "d26dc8b96cda61a2ea34bb5490284896c823478358c87074ca9d02fd692984e4",
        },
    ),
    "gram_smoothed_4_json": (
        ["gram", *SMOOTHED_4, "--format", "json"],
        "g.json",
        {
            "g.json": "fe8fb690c5d423c6527aaeec17b39a2b05c94e0a1a129ed2ad7689784e143193",
            "g.normalized.json": "5b5a9a7e3fbace58c9240b99420b95ea833aa5e415b7e5d010b36ffbb89019f7",
        },
    ),
    "decay_smoothed_4": (
        ["decay", *SMOOTHED_4],
        "d.json",
        {
            "d.json": "0ede9d9a179e3503a2a6160b8c3f7fd7c6499ca4996821f9dc7933ac15fb4760",
            "d.shells.csv": "d5d1a8c695ee7bbb444abec1fdd54cee76444d79ac49e8cc777004349997a505",
        },
    ),
    "decay_smoothed_4_csv_with_zero_row": (
        ["decay", *SMOOTHED_4, "--format", "csv", "--exclude-zero-row", "false"],
        "d.csv",
        {
            "d.csv": "c81bf3b8af28af71123d92000c738de8bade13cafc7c9672498ce25924dc3093",
            "d.report.json": "964dfa4b92508c7728ffbf50b4e6b254c4d58a280ad212a01011109562d3bef4",
        },
    ),
    "truncate_smoothed_4": (
        ["truncate", "--jmax", "4", "--kmax", "4"],
        "t.json",
        {"t.json": "4450cdc61c6a1415723696af0d28b57a1ca6e66610f82dd2d3e7f023c2b913a3"},
    ),
    "truncate_smoothed_4_csv": (
        ["truncate", "--jmax", "4", "--kmax", "4", "--format", "csv"],
        "t.csv",
        {"t.csv": "4b09f26a6755aa553fb2d66e91728fa125b435c780198d237a514fe6284cb349"},
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
            "g.csv": "90754301aa77172ac5909bb01cb205b48c63207a0711795fc272c5baa3c4af35",
            "g.normalized.csv": "13d63f49233d167bb1bc9420bc15304a4c1fecfad2d67a9129c324906dc5b34b",
        },
    ),
    "gram_smoothed_2_quad_json": (
        # the JSON `quad` object records --abs-tol, --x-min and --tmax-raw
        ["gram", "--jmax", "2", "--kmax", "2", "--kind", "smoothed", "--W", "2", "--eps", "1e-4",
         "--abs-tol", "1e-5", "--x-min", "1e-3", "--tmax-raw", "500", "--format", "json"],
        "g.json",
        {
            "g.json": "8de433dbc5e38253e71a36e3b1b63fc36aa99abc71b9e79ae8f17a6e66a94e9f",
            "g.normalized.json": "a6b22a6c7f07f94077b50effc8489da498ffaf6b89610d6261f4846d0c6ef4b4",
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

import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import bnladder.cli
import bnladder.decay
from bnladder import GramMatrix, IndexWindow, QuadratureConfig
from bnladder.cli import build_parser, main


def _read(path):
    with open(path) as fh:
        return fh.read()


def _rows(path):
    return _read(path).splitlines()[1:]


def test_profile_row_count(tmp_path):
    out = str(tmp_path / "p.csv")
    assert main(["profile", "--out", out]) == 0
    rows = _rows(out)
    assert len(rows) == 3000
    assert rows[0].split(",")[1] == "0.00050000000000000001"


def test_profile_unit_theta_all_zero(tmp_path):
    out = str(tmp_path / "p.csv")
    assert main(["profile", "--theta", "1", "--points", "100", "--out", out]) == 0
    rows = _rows(out)
    assert len(rows) == 100
    assert all(r.split(",")[2] == "0" for r in rows)


def test_profile_accepts_fraction_flags(tmp_path):
    out = str(tmp_path / "p.csv")
    assert main(["profile", "--theta", "1/12", "--points", "10", "--out", out]) == 0
    assert all(r.split(",")[0].startswith("0.0833333") for r in _rows(out))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_profile_columns_follow_spec(tmp_path, fmt):
    # PAPER.md and README: profile rows are theta,x,f, grouped by theta
    out = str(tmp_path / ("p." + fmt))
    argv = ["profile", "--theta", "1/3", "--theta", "0.5", "--points", "4"]
    assert main(argv + ["--format", fmt, "--out", out]) == 0
    if fmt == "csv":
        lines = _read(out).splitlines()
        header, first = lines[0], lines[1].split(",")
        assert lines[5].split(",")[0] == "0.5"
    else:
        doc = json.loads(_read(out))
        header, first = ",".join(doc["columns"]), doc["rows"][0]
        assert doc["schema"] == "bnladder.profile/1"
        assert doc["rows"][4][0] == 0.5
    assert header == "theta,x,f"
    theta, x, f = (float(v) for v in first)
    assert (theta, x) == (1 / 3, 0.125)
    assert f == pytest.approx(2.0 / 3.0, rel=1e-14)  # {8/3} - (1/3) {8}


_THETA_BEYOND_FLOAT = [
    ("1" + "0" * 400 + "/3", "bad fraction", ""),
    # nonzero inputs whose float is 0.0 are named as given, not as 0.0
    ("1/1" + "0" * 400, "underflows to 0", "-fraction-underflow"),
    ("1e-400", "theta '1e-400' underflows to 0", "-decimal-underflow"),
]


@pytest.mark.parametrize(
    "command,theta,message",
    [
        pytest.param(command, theta, message, id=command + tag)
        for theta, message, tag in _THETA_BEYOND_FLOAT
        for command in ("profile", "spectrum")
    ],
)
def test_theta_fraction_beyond_float_range_is_a_usage_error(
    tmp_path, capsys, command, theta, message
):
    out = str(tmp_path / "p.csv")
    assert main([command, "--theta", theta, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: bnladder {command}") and message in err
    assert repr(theta) in err and "got 0.0" not in err
    assert os.listdir(tmp_path) == []


def test_profile_rejects_zero_points(tmp_path):
    out = str(tmp_path / "p.csv")
    assert main(["profile", "--points", "0", "--out", out]) == 1
    assert not os.path.exists(out)


def test_ladder_1x1(tmp_path):
    out = str(tmp_path / "l.csv")
    assert main(["ladder", "--jmax", "1", "--kmax", "1", "--out", out]) == 0
    rows = _rows(out)
    assert len(rows) == 4
    thetas = sorted(float(r.split(",")[2]) for r in rows)
    assert thetas == pytest.approx([1 / 6, 1 / 3, 1 / 2, 1.0])


def test_ladder_0x0(tmp_path):
    out = str(tmp_path / "l.csv")
    assert main(["ladder", "--jmax", "0", "--kmax", "0", "--out", out]) == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert rows[0].split(",")[2] == "1"


def test_ladder_past_the_float_range_of_denominators(tmp_path):
    # 2^j has no float from j = 1024 on; theta is 1/2^j correctly rounded
    out = str(tmp_path / "l.csv")
    assert main(["ladder", "--jmax", "1100", "--kmax", "0", "--out", out]) == 0
    rows = _rows(out)
    assert len(rows) == 1101
    assert rows[1074].split(",")[2] == "4.9406564584124654e-324"
    assert rows[1075].split(",")[2] == "0"


def test_ladder_3x2_distinct(tmp_path):
    out = str(tmp_path / "l.csv")
    assert main(["ladder", "--jmax", "3", "--kmax", "2", "--out", out]) == 0
    rows = _rows(out)
    assert len(rows) == 12
    thetas = [r.split(",")[2] for r in rows]
    assert len(set(thetas)) == 12


@pytest.mark.parametrize(
    "target,errno_text",
    [("missing/l.csv", "[Errno 2] No such file or directory"), ("taken", "[Errno 21] Is a directory")],
    ids=["missing-dir", "is-a-dir"],
)
def test_io_failure_names_the_given_path(tmp_path, capsys, target, errno_text):
    (tmp_path / "taken").mkdir()
    out = str(tmp_path / target)
    assert main(["ladder", "--jmax", "1", "--kmax", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"bnladder: I/O failure: {errno_text}: {out!r}\n"
    assert ".tmp" not in err
    assert os.listdir(tmp_path) == ["taken"] and os.listdir(tmp_path / "taken") == []


def test_gram_csv_and_normalized(tmp_path):
    out = str(tmp_path / "g.csv")
    args = ["gram", "--jmax", "2", "--kmax", "2", "--kind", "raw", "--method", "direct", "--out", out]
    assert main(args) == 0
    rows = _rows(out)
    assert len(rows) == 81  # 9 points, full square
    norm = _rows(str(tmp_path / "g.normalized.csv"))
    assert len(norm) == 81
    for r in norm:
        j, k, j2, k2, value, flag = r.split(",")
        if (j, k) == ("0", "0") or (j2, k2) == ("0", "0"):
            assert value == "0" and flag == "false"
        elif (j, k) == (j2, k2):
            assert value == "1" and flag == "true"
        else:
            assert flag == "true"
            assert abs(float(value)) <= 1.0 + 1e-12


def test_normalized_stays_finite_where_diagonal_products_underflow():
    """Smoothed windows from j_max ~ 520 have diagonals whose products
    G_ii G_jj underflow.  Every valid entry stays finite and within
    rounding of its true ratio, and where the product is a normal double
    the value keeps the bits of G_ij / sqrt(G_ii G_jj)."""
    diag = np.array([0.0, 1.0, 3e-150, 1e-170, 2e-300])
    root = np.sqrt(diag)
    entries = 0.5 * np.outer(root, root)
    entries[np.diag_indices_from(entries)] = diag
    g = GramMatrix(
        window=IndexWindow(4, 0),
        method="direct",
        smoothing=None,
        entries=entries,
        err_estimate=np.zeros_like(entries),
        quad=QuadratureConfig(),
    )
    vals, ok = bnladder.decay._normalized(g)
    assert np.all(np.isfinite(vals))
    assert not ok[0].any() and not ok[:, 0].any() and ok[1:, 1:].all()
    off = ok & ~np.eye(diag.size, dtype=bool)
    assert np.all(np.abs(vals[off] - 0.5) <= 4 * np.finfo(np.float64).eps)
    assert np.array_equal(np.diag(vals), [0.0, 1.0, 1.0, 1.0, 1.0])
    prod = np.outer(diag, diag)
    normal = off & (prod >= np.finfo(np.float64).tiny)
    assert normal.sum() == 6  # (1, 2), (1, 3), (1, 4) and their mirrors
    assert np.array_equal(vals[normal], entries[normal] / np.sqrt(prod[normal]))


def test_spectrum_at_a_tiny_width_writes_nothing_to_stderr(tmp_path):
    """At --W 1e-200, t/W squared overflows in psi: the console script
    exits 0 with an empty stderr, and the smoothed column is epsilon
    times |M|, the exact limit of the taper."""
    out = tmp_path / "s.csv"
    args = ["spectrum", "--theta", "0.5", "--W", "1e-200", "--eps", "1e-6"]
    args += ["--tmin", "1", "--tmax", "10", "--points", "5", "--out", str(out)]
    boot = "import sys; from bnladder.cli import main; sys.exit(main())"
    src = os.path.dirname(os.path.dirname(bnladder.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", boot, *args], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert all(float(sm) == 1e-6 * float(m) for _, m, sm in rows)


def test_gram_json_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["gram", "--jmax", "1", "--kmax", "1", "--kind", "raw", "--format", "json"]
    assert main(base + ["--out", a]) == 0
    assert main(base + ["--out", b]) == 0
    assert _read(a) == _read(b)
    assert json.loads(_read(a))["method"] == "direct"  # the raw default, recorded as run
    assert _read(a.replace(".json", ".normalized.json")) == _read(
        b.replace(".json", ".normalized.json")
    )


def test_gram_rejects_smoothed_direct(tmp_path):
    out = str(tmp_path / "g.csv")
    args = ["gram", "--kind", "smoothed", "--method", "direct", "--out", out]
    assert main(args) == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "raw", "--method", "hybrid"],
        ["--kind", "smoothed", "--method", "spectral"],
        ["--abs-tol", "1e-5"],
    ],
    ids=["raw-hybrid", "smoothed-spectral", "abs-tol"],
)
def test_gram_rejects_retired_spellings(tmp_path, flags):
    # each route has one method name, and the cutoff one flag, --x-min
    out = str(tmp_path / "g.csv")
    assert main(["gram", "--jmax", "1", "--kmax", "1", *flags, "--out", out]) == 1
    assert os.listdir(tmp_path) == []


def test_gram_rejects_raw_spectral_below_the_tail_floor(tmp_path):
    out = str(tmp_path / "g.csv")
    assert main(["gram", "--method", "spectral", "--tmax-raw", "1", "--out", out]) == 1
    assert not os.path.exists(out)


def test_gram_eps_whose_square_underflows_matches_eps_0(tmp_path):
    # eps^2 = 0.0 in floats: the eps^2 share adds nothing, as at eps = 0
    window = ["gram", "--jmax", "4", "--kmax", "4", "--kind", "smoothed"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main([*window, "--eps", "1e-200", "--out", a]) == 0
    assert main([*window, "--eps", "0", "--out", b]) == 0
    assert _read(a) == _read(b)


@pytest.mark.parametrize(
    "flags,code,message",
    [
        (
            ["--method", "spectral", "--tmax-raw", "1e14"],
            1,
            "grid reaches |t| = 100000000000000.0,",
        ),
        (["--kind", "smoothed", "--W", "2e13"], 1, "grid reaches |t| = 40000000000000.0,"),
        (["--kind", "smoothed", "--W", "1e308"], 1, "grid reaches |t| = inf,"),
        (
            # the cap prints as 10000 either way; the height keeps every digit
            ["--jmax", "0", "--kmax", "1", "--method", "spectral",
             "--tmax-raw", "10000.000000000002"],
            1,
            "grid reaches |t| = 10000.000000000002, beyond the accuracy-checked cap 10000",
        ),
        (
            ["--jmax", "12", "--kmax", "12", "--x-min", "1e-310"],
            2,
            "lattice pass needs ~Infinity pieces, above the cap 100000000",
        ),
        (["--kind", "smoothed", "--W", "inf"], 1, "W must be finite and positive, got inf"),
        (["--kind", "smoothed", "--eps", "inf"], 1, "epsilon must be finite and nonnegative, got inf"),
        (["--tmax-raw", "nan"], 1, "t_max_raw must be finite and positive, got nan"),
    ],
    ids=[
        "tmax-raw-1e14", "W-2e13", "W-1e308", "tmax-raw-just-above-cap", "subnormal-x-min",
        "W-inf", "eps-inf", "tmax-raw-nan",
    ],
)
def test_gram_extreme_inputs_fail_typed(tmp_path, capsys, flags, code, message):
    out = str(tmp_path / "g.csv")
    assert main(["gram", *flags, "--out", out]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bnladder: ") and message in err[0]
    assert os.listdir(tmp_path) == []


def test_spectrum_suppression_ratio(tmp_path):
    out = str(tmp_path / "s.csv")
    args = [
        "spectrum", "--theta", "1/2", "--eps", "0",
        "--tmin", "10", "--tmax", "40", "--points", "7", "--out", out,
    ]
    assert main(args) == 0
    ratios = []
    for r in _rows(out):
        t, a, b = (float(v) for v in r.split(","))
        assert b / a == pytest.approx(math.exp(-((t / 5.0) ** 2)), rel=1e-10)
        ratios.append(b / a)
    assert ratios == sorted(ratios, reverse=True)


def test_spectrum_unit_theta_zero(tmp_path):
    out = str(tmp_path / "s.csv")
    assert main(["spectrum", "--theta", "1", "--points", "5", "--out", out]) == 0
    for r in _rows(out):
        assert r.split(",")[1] == "0"


@pytest.mark.filterwarnings("error")
def test_spectrum_rejects_bad_grid(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    for tmin, tmax in [("-1", "10"), ("nan", "10"), ("0.1", "inf")]:
        assert main(["spectrum", "--tmin", tmin, "--tmax", tmax, "--out", out]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert os.listdir(tmp_path) == []


def test_spectrum_rejects_a_grid_that_rounds_to_repeated_points(tmp_path, capsys):
    """--tmax one ulp above --tmin passes the ordering check, but the
    geometric grid collapses; the message names the flags to change."""
    out = str(tmp_path / "s.csv")
    args = ["spectrum", "--tmin", "1", "--tmax", "1.0000000000000002", "--points", "5"]
    assert main([*args, "--out", out]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert all(flag in err for flag in ("--tmin", "--tmax", "--points")) and "t_grid" not in err
    assert os.listdir(tmp_path) == []


_NO_MEMORY = MemoryError(
    "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"
)


@pytest.mark.parametrize(
    "argv,target,exc",
    [
        (["spectrum", "--points", "1000000000000"], "geomspace", _NO_MEMORY),
        (["profile", "--points", "5"], "eval_f", _NO_MEMORY),
        (["gram", "--jmax", "2", "--kmax", "2"], "build_gram", MemoryError()),
    ],
    ids=["spectrum", "profile", "gram"],
)
def test_out_of_memory_is_a_computation_failure(tmp_path, capsys, monkeypatch, argv, target, exc):
    """An allocation that fails exits 2 with one stderr line and writes no
    file.  The failing call is patched: a real attempt at that size could
    reach the host's OOM killer."""

    def fail(*args, **kwargs):
        raise exc

    owner = np if target == "geomspace" else bnladder.cli
    monkeypatch.setattr(owner, target, fail)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("bnladder: computation failed: out of memory")
    assert str(exc) in err
    assert os.listdir(tmp_path) == []


def test_decay_outputs(tmp_path):
    out = str(tmp_path / "d.json")
    args = [
        "decay", "--jmax", "2", "--kmax", "2", "--method", "direct",
        "--fit-lo", "1", "--fit-hi", "4", "--out", out,
    ]
    assert main(args) == 0
    doc = json.loads(_read(out))
    assert doc["c"] == pytest.approx(0.6931471805599453, rel=1e-15)
    assert doc["fit_range"] == [1, 4]
    # tiny windows are boundary-depleted; only finiteness is guaranteed
    assert math.isfinite(doc["fitted_exponent"])
    shells = _rows(str(tmp_path / "d.shells.csv"))
    assert len(shells) >= 3


def test_decay_degenerate_window_exits_2(tmp_path):
    out = str(tmp_path / "d.json")
    assert main(["decay", "--jmax", "0", "--kmax", "0", "--out", out]) == 2
    assert not os.path.exists(out)
    assert not os.path.exists(str(tmp_path / "d.shells.csv"))


def test_truncate_bounds(tmp_path):
    out = str(tmp_path / "t.json")
    args = [
        "truncate", "--jmax", "2", "--kmax", "2", "--kind", "smoothed",
        "--bs", "1,2,3,7", "--out", out,
    ]
    assert main(args) == 0
    doc = json.loads(_read(out))
    reports = doc["reports"]
    assert [r["B"] for r in reports] == [1, 2, 3, 7]
    bounds = [r["schur_bound"] for r in reports]
    assert bounds[:3] == sorted(bounds[:3], reverse=True)
    # beyond the window diameter nothing is cut
    assert reports[-1]["schur_bound"] == 0.0
    assert reports[-1]["empirical_opnorm"] == 0.0
    for r in reports:
        assert r["empirical_opnorm"] <= r["schur_bound"] + 1e-12


def test_profile_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["profile", "--points", "50", "--out", a]) == 0
    assert main(["profile", "--points", "50", "--out", b]) == 0
    assert _read(a) == _read(b)


def test_selfcheck_fresh(tmp_path, capsys):
    out = str(tmp_path / "sc.json")
    assert main(["selfcheck", "--out", out]) == 0
    doc = json.loads(_read(out))
    assert doc["passed"] is True
    assert len(doc["groups"]) >= 4
    assert all(g["passed"] for g in doc["groups"])
    # summary also lands on stdout
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_unknown_subcommand_exits_1():
    assert main(["nosuch"]) == 1


def test_bad_format_flag_exits_1(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["profile", "--format", "yaml", "--out", out]) == 1
    assert not os.path.exists(out)


GRAM_FIELDS = ("jmax", "kmax", "kind", "method", "x_min", "tmax_raw", "W", "eps")
GRAM_COMMANDS = ("gram", "decay", "truncate")


def _gram_fields(argv):
    ns = build_parser().parse_args(argv + ["--out", "unused"])
    return {name: getattr(ns, name) for name in GRAM_FIELDS}


def test_gram_flag_group_is_shared():
    flags = [
        "--jmax", "2", "--kmax", "1", "--kind", "smoothed", "--method", "hybrid",
        "--x-min", "1e-3", "--tmax-raw", "50", "--W", "2", "--eps", "0",
    ]
    parsed = [_gram_fields([cmd, *flags]) for cmd in GRAM_COMMANDS]
    assert parsed[0] == parsed[1] == parsed[2]
    assert parsed[0]["x_min"] == 1e-3 and parsed[0]["eps"] == 0.0

    defaults = [_gram_fields([cmd]) for cmd in GRAM_COMMANDS]
    assert [d.pop("kind") for d in defaults] == ["raw", "raw", "smoothed"]
    assert defaults[0] == defaults[1] == defaults[2]
    assert defaults[0]["method"] is None  # each kind's default route, see build_gram
    assert (defaults[0]["jmax"], defaults[0]["kmax"], defaults[0]["x_min"]) == (3, 3, None)


def test_cli_exports_only_main():
    assert bnladder.cli.__all__ == ["main"]


def _readme_commands():
    """Every ``bnladder ...`` line of README's fenced blocks, with its
    backslash continuations joined."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = _read(readme)
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("bnladder ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv

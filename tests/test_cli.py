import json
import math
import os

import pytest

import bnladder.cli
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


def test_ladder_3x2_distinct(tmp_path):
    out = str(tmp_path / "l.csv")
    assert main(["ladder", "--jmax", "3", "--kmax", "2", "--out", out]) == 0
    rows = _rows(out)
    assert len(rows) == 12
    thetas = [r.split(",")[2] for r in rows]
    assert len(set(thetas)) == 12


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


def test_gram_json_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["gram", "--jmax", "1", "--kmax", "1", "--kind", "raw", "--method", "direct", "--format", "json"]
    assert main(base + ["--out", a]) == 0
    assert main(base + ["--out", b]) == 0
    assert _read(a) == _read(b)
    assert _read(a.replace(".json", ".normalized.json")) == _read(
        b.replace(".json", ".normalized.json")
    )


def test_gram_rejects_smoothed_direct(tmp_path):
    out = str(tmp_path / "g.csv")
    args = ["gram", "--kind", "smoothed", "--method", "direct", "--out", out]
    assert main(args) == 1
    assert not os.path.exists(out)


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


GRAM_FIELDS = ("jmax", "kmax", "kind", "method", "abs_tol", "x_min", "tmax_raw", "W", "eps")
GRAM_COMMANDS = ("gram", "decay", "truncate")


def _gram_fields(argv):
    ns = build_parser().parse_args(argv + ["--out", "unused"])
    return {name: getattr(ns, name) for name in GRAM_FIELDS}


def test_gram_flag_group_is_shared():
    flags = [
        "--jmax", "2", "--kmax", "1", "--kind", "smoothed", "--method", "spectral",
        "--abs-tol", "1e-5", "--x-min", "1e-3", "--tmax-raw", "50", "--W", "2", "--eps", "0",
    ]
    parsed = [_gram_fields([cmd, *flags]) for cmd in GRAM_COMMANDS]
    assert parsed[0] == parsed[1] == parsed[2]
    assert parsed[0]["x_min"] == 1e-3 and parsed[0]["eps"] == 0.0

    defaults = [_gram_fields([cmd]) for cmd in GRAM_COMMANDS]
    assert [d.pop("kind") for d in defaults] == ["raw", "raw", "smoothed"]
    assert defaults[0] == defaults[1] == defaults[2]
    assert defaults[0]["method"] == "hybrid"
    assert (defaults[0]["jmax"], defaults[0]["kmax"], defaults[0]["x_min"]) == (3, 3, None)


def test_cli_exports_only_main():
    assert bnladder.cli.__all__ == ["main"]

import json
import math
import os

import numpy as np
import pytest

from bnladder import io
from bnladder.cli import main


def _failing_on_call(monkeypatch, name, n):
    """Make os.<name> raise OSError on its n-th call (1-based)."""
    real = getattr(os, name)
    calls = []

    def fake(*args, **kwargs):
        calls.append(args)
        if len(calls) == n:
            raise OSError(f"injected {name} failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(os, name, fake)
    return calls


def test_csv_text_matches_per_value_format():
    vals = [0.1, -0.0, 0.0, 1.0, -1e-300, 5e-324, math.inf, -math.inf, math.nan, 0.1, 1 / 3]
    columns = [list(range(len(vals))), np.array(vals), ["a"] * len(vals)]
    text = io.csv_text(("i", "x", "s"), "dgs", columns)
    want = ["i,x,s"] + ["%d,%.17g,a" % (i, v) for i, v in enumerate(vals)]
    assert text == "\n".join(want) + "\n"
    assert text.splitlines()[2] == "1,-0,a"


def test_csv_text_empty_table():
    assert io.csv_text(("a", "b"), "dg", []) == "a,b\n"
    assert io.csv_text(("a", "b"), "dg", [[], []]) == "a,b\n"


def test_json_rows_layout():
    doc = json.loads(io.json_rows("x/1", ("a", "b"), [np.array([1, 2]), [0.5, -0.0]]))
    assert doc == {"schema": "x/1", "columns": ["a", "b"], "rows": [[1, 0.5], [2, -0.0]]}


def test_write_all_writes_every_file(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.json")
    io.write_all({a: "x\n", b: "y\n"})
    with open(a) as fa, open(b) as fb:
        assert (fa.read(), fb.read()) == ("x\n", "y\n")
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(a).st_mode & 0o777 == 0o666 & ~umask


def test_write_all_rename_failure_leaves_nothing(tmp_path, monkeypatch):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    calls = _failing_on_call(monkeypatch, "replace", 2)
    with pytest.raises(OSError, match="injected"):
        io.write_all({a: "x\n", b: "y\n"})
    assert len(calls) == 2
    assert os.listdir(tmp_path) == []


def test_write_all_write_failure_leaves_nothing(tmp_path):
    a = str(tmp_path / "a.csv")
    missing = str(tmp_path / "no_such_dir" / "b.csv")
    with pytest.raises(FileNotFoundError):
        io.write_all({a: "x\n", missing: "y\n"})
    assert os.listdir(tmp_path) == []


def test_write_all_full_disk_on_second_file_leaves_nothing(tmp_path, monkeypatch):
    real_fdopen = os.fdopen
    opened = []

    def fdopen(fd, *args, **kwargs):
        fh = real_fdopen(fd, *args, **kwargs)
        opened.append(fh)
        if len(opened) == 2:
            def write(text):
                raise OSError(28, "No space left on device")

            fh.write = write
        return fh

    monkeypatch.setattr(os, "fdopen", fdopen)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    with pytest.raises(OSError, match="No space"):
        io.write_all({a: "x\n", b: "y\n"})
    assert len(opened) == 2 and all(fh.closed for fh in opened)
    assert os.listdir(tmp_path) == []


def test_write_all_leaves_foreign_temp_file_alone(tmp_path):
    # a concurrent run's temp file next to the same target is not ours
    out = str(tmp_path / "g.csv")
    with open(out + ".tmp", "w") as fh:
        fh.write("other run\n")
    io.write_all({out: "mine\n"})
    with open(out + ".tmp") as fh:
        assert fh.read() == "other run\n"
    assert sorted(os.listdir(tmp_path)) == ["g.csv", "g.csv.tmp"]


GRAM_1 = ["gram", "--jmax", "1", "--kmax", "1"]
DECAY_2 = ["decay", "--jmax", "2", "--kmax", "2", "--fit-lo", "1", "--fit-hi", "4"]


@pytest.mark.parametrize(
    "argv, first, second",
    [
        (GRAM_1, "o.csv", "o.normalized.csv"),
        (GRAM_1 + ["--format", "json"], "o.json", "o.normalized.json"),
        (DECAY_2, "o.json", "o.shells.csv"),
        (DECAY_2 + ["--format", "csv"], "o.csv", "o.report.json"),
    ],
)
def test_two_file_commands_are_all_or_nothing(tmp_path, monkeypatch, argv, first, second):
    out = str(tmp_path / first)
    assert main(argv + ["--out", out]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted([first, second])
    for name in (first, second):
        os.remove(str(tmp_path / name))
    _failing_on_call(monkeypatch, "replace", 2)
    assert main(argv + ["--out", out]) == 2
    assert os.listdir(tmp_path) == []

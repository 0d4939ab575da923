import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import bnladder.decay
import bnladder.gram
from bnladder import io
from bnladder.cli import main
from bnladder.decay import (
    decay_report,
    decay_report_to_json,
    truncation_suite,
    truncation_suite_to_json,
)
from bnladder.errors import ParameterError
from bnladder.gram import gram_to_json


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
    text = io.csv_text(("i", "x", "s"), columns)
    want = ["i,x,s"] + ["%d,%.17g,a" % (i, v) for i, v in enumerate(vals)]
    assert text == "\n".join(want) + "\n"
    assert text.splitlines()[2] == "1,-0,a"


def test_csv_text_empty_table():
    assert io.csv_text(("a", "b"), []) == "a,b\n"
    assert io.csv_text(("a", "b"), [[], []]) == "a,b\n"


def test_csv_text_rejects_longer_later_column():
    with pytest.raises(ParameterError, match="column 1 has 5 rows"):
        io.csv_text(["a", "b"], [np.arange(3), np.arange(5)])


def test_csv_text_rejects_shorter_later_column():
    with pytest.raises(ParameterError, match="column 2 has 2 rows"):
        io.csv_text(["a", "b", "c"], [np.arange(3), [0.5, 1.5, 2.5], [True, False]])


def test_csv_text_rejects_header_that_does_not_match_the_columns():
    x = np.arange(3)
    with pytest.raises(ParameterError, match="3 header names for 2 columns"):
        io.csv_text(["a", "b", "c"], [x, x])
    with pytest.raises(ParameterError, match="1 header names for 2 columns"):
        io.csv_text(["a"], [x, x])


def test_csv_text_drops_nul_characters_in_strings():
    strings = ["a\0b", "\0", "c\0\0", "\0d", "\u00e9\0", "e"]
    text = io.csv_text(("s", "i"), [strings, np.arange(6)])
    assert text == "s,i\nab,0\n,1\nc,2\nd,3\n\u00e9,4\ne,5\n"
    assert io.csv_text(("i", "s"), [np.arange(6), strings]).endswith("\n4,\u00e9\n5,e\n")


def _percent_lines(values) -> str:
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist())


def test_float_kernel_matches_percent_format_on_random_bits():
    """10^6 random float64 bit patterns (both signs, every exponent, so
    subnormals, infinities and NaNs too) print as "%.17g" % v does, and
    the kernel itself settles all but a few of those it takes on."""
    rng = np.random.default_rng(20260916)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2**52, size=10**4, dtype=np.uint64) | (
        rng.integers(0, 2, size=10**4, dtype=np.uint64) << np.uint64(63)
    )
    values = np.concatenate((bits, subnormal)).view(np.float64)
    assert io.csv_text(("x",), [values]) == "x\n" + _percent_lines(values)
    a = np.abs(values)
    taken = a[np.isfinite(a) & (a >= 1e-280) & (a <= 1e280)]
    assert taken.size > 0.85 * values.size
    _, _, sure = io._decimal17(taken)
    assert np.count_nonzero(~sure) <= 10


def _powers_of_ten_and_neighbours():
    """Every double nearest to 10^E, its two neighbours on each side, and
    the 17th-digit carries among them: doubles just below 10^E whose
    17-digit rounding is 10^E itself, found with exact fractions."""
    values, carries = [], []
    for e in range(-323, 309):
        x = float(Fraction(10) ** e)
        near = [x]
        for _ in range(2):
            near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], math.inf)]
        values += near
        power = Fraction(10) ** e
        carries += [y for y in near if 0.0 < y < power == Fraction("%.17g" % y)]
    return values, carries


FLOAT_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, sys.float_info.max, -sys.float_info.max,
    # ties at the 17th digit, which round half to even
    1234567890123456.75, 1234567890123456.25, -1234567890123456.75, 12345678901234567.0,
    12345678901234565.0, 2.0**-24, 0.5, 0.125, 9007199254740993.0,
    3 * 2.0**-24, 15 * 2.0**-25,  # ties where 10^k (k = 23, 24) is not a double
    # the switch between fixed and exponent layout at 1e-5 / 1e-4 and 1e16 / 1e17
    1e-5, 1e-4, 9.9999999999999991e-06, 1.0000000000000001e-05, 9.9999999999999999e-05,
    1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 1.0000000000000002e16,
    # the ends of the range the kernel takes on
    1e-280, 1e280, 9.99999999999999e-281, 1.0000000000000001e280,
]


def test_float_kernel_matches_percent_format_on_edges():
    powers, carries = _powers_of_ten_and_neighbours()
    assert len(carries) >= 10  # e.g. 1e-14, 1e+98: the double below 10^E printing as 10^E
    edges = np.array(FLOAT_EDGES + powers + carries)
    with np.errstate(over="ignore"):  # the step past the largest double is inf
        steps = [np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
    values = np.concatenate([edges, -edges, *steps])
    assert io.csv_text(("x",), [values]) == "x\n" + _percent_lines(values)
    assert io.csv_text(("x",), [[1234567890123456.75]]) == "x\n1234567890123456.8\n"


def _row_join(header, columns) -> str:
    """The writer csv_text replaced: every cell formatted on its own and
    the rows joined with commas."""

    def cells(column):
        column = np.asarray(column)
        if column.dtype.kind == "b":
            return ["true" if v else "false" for v in column.tolist()]
        if column.dtype.kind == "f":
            return ["%.17g" % v for v in column.tolist()]
        return [str(v) for v in column.tolist()]

    rows = map(",".join, zip(*map(cells, columns)))
    return "\n".join([",".join(header), *rows]) + "\n"


def _random_columns(rng, n):
    words = ["", "a", "\u00e9t\u00e9", "stra\u00dfe", "\u65e5\u672c", "x y", "-", "q\"t", "\u00e9" * 40]
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    floats[rng.random(n) < 0.2] = rng.choice([0.0, -0.0, 1.0, 0.5, math.nan, math.inf], 1)[0]
    return [
        rng.integers(-30, 30, n),
        floats,
        rng.random(n) < 0.5,
        [words[i] for i in rng.integers(0, len(words), n)],
        rng.integers(-(2**62), 2**62, n),
        [10**30 + int(i) for i in rng.integers(0, 3, n)],
        rng.random(n).astype(np.float32),
        list(rng.random(n)),
        rng.integers(0, 4, n).astype(np.uint8),
        rng.choice(np.array([-(2**63), 2**63 - 1, 0]), n),
        rng.integers(-128, 128, n).astype(np.int8),  # a range wider than int8 holds
    ]


# beyond one slab of gathered rows, and beyond one chunk of the float kernel
@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000, io._SLAB_ROWS + 3, io._CHUNK + 3])
def test_csv_text_matches_row_join(n):
    rng = np.random.default_rng(n)
    columns = _random_columns(rng, n)
    header = ["i", "x", "flag", "s\u00e9", "big", "huge", "f32", "py", "u8", "ends", "i8"]
    assert io.csv_text(header, columns) == _row_join(header, columns)
    for c in range(len(columns)):
        assert io.csv_text(header[c : c + 1], columns[c : c + 1]) == _row_join(
            header[c : c + 1], columns[c : c + 1]
        )


def _widest_last(values: list, n: int) -> list:
    """n values cycling through the shorter ones, the widest one last,
    so with n past a slab it is gathered in the second slab."""
    shorter = values[:-1] or values
    return [shorter[i % len(shorter)] for i in range(n - 1)] + [values[-1]]


# 1-byte cells up to 8-byte ones (one uint each), then void cells of 9 to 33
@pytest.mark.parametrize("n", [5, io._SLAB_ROWS + 3])
@pytest.mark.parametrize("width", range(1, 34))
def test_string_cell_widths_match_row_join(width, n):
    """A string column whose widest text has width - 1 bytes, so its
    cells, with the separator, are width bytes before rounding."""
    texts = ["", "\u00e9", "x" * (width // 2), "y" * (width - 1)]
    texts = [t for t in texts if len(t.encode()) < width]
    for string_last in (False, True):
        columns = [_widest_last(texts, n), np.arange(n)]
        header = ["s", "i"]
        if string_last:
            columns, header = columns[::-1], header[::-1]
        assert io.csv_text(header, columns) == _row_join(header, columns)


def _floats_of_every_width() -> dict:
    """For each text width 1..24 of "%.17g", a float64 printing that wide."""
    rng = np.random.default_rng(7)
    pool = [0.0, -0.0, 5.0, -5.0, 0.5, 25.0, 1e-5, -1e-5, 1e16, 1e17, -1.2345678901234567e-100]
    pool += [float("1" * k) for k in range(1, 18)] + [-float("1" * k) for k in range(1, 18)]
    pool += (rng.standard_normal(2000) * 10.0 ** rng.integers(-120, 120, 2000)).tolist()
    pool += [round(x, k) for x in rng.random(200).tolist() for k in range(1, 17)]
    by_width = {}
    for x in pool:
        by_width.setdefault(len("%.17g" % x), x)
    return by_width


FLOATS_BY_WIDTH = _floats_of_every_width()


@pytest.mark.parametrize("n", [5, io._SLAB_ROWS + 3])
@pytest.mark.parametrize("width", range(1, 25))
def test_float_cell_widths_match_row_join(width, n):
    """A float column whose widest text has 1 ("0") to 24 bytes
    ("-1.2345678901234567e-100")."""
    values = [x for w, x in sorted(FLOATS_BY_WIDTH.items()) if w <= width]
    assert len("%.17g" % values[-1]) == width
    columns = [np.arange(n), np.array(_widest_last(values, n))]
    assert io.csv_text(("i", "x"), columns) == _row_join(("i", "x"), columns)
    assert io.csv_text(("x",), columns[1:]) == _row_join(("x",), columns[1:])


INTEGER_KEY_COLUMNS = {
    "span_above_length": np.array([0, 5, 2]),
    "span_equal_to_length": np.array([0, 3, 1]),
    "one_value": np.full(5, 7),
    "negative_small_span": np.array([-5, -3, -4, -5, -3]),
    "int8_full_range": np.arange(-128, 128, dtype=np.int8)[::-1],
    "uint64_top": np.array([2**64 - 1, 2**64 - 2], dtype=np.uint64),
    "int64_top": np.array([2**63 - 1, 2**63 - 2], dtype=np.int64),
    "slab_and_one": np.arange(io._SLAB_ROWS + 1) % 7 - 3,
}


@pytest.mark.parametrize("name", INTEGER_KEY_COLUMNS)
def test_integer_keys_match_sorted_keys(name):
    """Integer columns keyed by offset (span at most the length) or by
    sort give np.unique's keys and the row writer's text."""
    column = INTEGER_KEY_COLUMNS[name]
    distinct, inverse = io._ranked(column)
    want_distinct, want_inverse = np.unique(column, return_inverse=True)
    assert distinct.tolist() == want_distinct.tolist()
    assert np.array_equal(inverse, want_inverse)
    columns = [column, column[::-1]]
    assert io.csv_text(("a", "b"), columns) == _row_join(("a", "b"), columns)


def test_csv_and_smoothed_build_leave_numpy_ma_unimported():
    """numpy.ma costs 14 ms to import; np.unique without flags imports it."""
    code = (
        "import sys, bnladder\n"
        "g = bnladder.build_gram(bnladder.IndexWindow(2, 2), 'smoothed',"
        " smoothing=bnladder.SmoothingParams(W=5.0, epsilon=1e-6))\n"
        "bnladder.io.csv_text(['x', 'n', 'b'], [g.entries.ravel(), [3] * 81, [True] * 81])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_import_builds_no_powers_of_ten():
    """``import bnladder.cli`` builds none of the 10^k table, and a CSV
    call builds only the exponents its floats need."""
    code = (
        "import bnladder.cli, bnladder.io as io\n"
        "assert io._pow10.cache_info().currsize == 0\n"
        "io.csv_text(['x'], [[0.5, 3.0, 250.0, -0.03]])\n"
        "print(io._pow10.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["4"]  # k = 17, 16, 14 and 18


def test_json_rows_layout():
    doc = json.loads(io.json_rows("x/1", ("a", "b"), [np.array([1, 2]), [0.5, -0.0]]))
    assert doc == {"schema": "x/1", "columns": ["a", "b"], "rows": [[1, 0.5], [2, -0.0]]}


EDGE_PAYLOAD = {
    "floats": [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e300, -1e300, 0.1, 1 / 3],
    "non_finite": [math.inf, -math.inf, math.nan],
    "empty": [],
    "nested": [[], [[1.5, -0.0], []], [0.5, 2], (0.25, 0.75)],
    "mixed_row": (1, 0.5, "s", None, True),
    "numpy_scalars": [np.float64(0.1), np.float64(-0.0)],
    "ints": [1, -2, 10**30],
    "text": "a \u00e9 \\ \"q\"",
}
SELFCHECK_PAYLOAD = {
    "passed": False,
    "groups": [
        {"name": "zeta_oracle", "passed": True, "detail": "max_rel=1.000e-15"},
        {"name": "gram_cross_validation", "passed": False, "detail": "budget=3.451e-03"},
    ],
}


def test_json_text_matches_indenting_encoder(
    monkeypatch, gram_3x3_raw_direct, gram_6x6_smoothed
):
    """Byte for byte what json.dumps(..., sort_keys=True, indent=2) writes,
    on the payloads the gram, decay and truncation writers build and on
    hand-made ones with signed zeros, subnormals, huge and non-finite
    values and empty arrays."""
    payloads = [EDGE_PAYLOAD, SELFCHECK_PAYLOAD, {}, [], [0.5], 1.5]
    monkeypatch.setattr(bnladder.gram, "json_text", payloads.append)
    monkeypatch.setattr(bnladder.decay, "json_text", payloads.append)
    for g in (gram_3x3_raw_direct, gram_6x6_smoothed):
        gram_to_json(g)
        decay_report_to_json(decay_report(g))
        truncation_suite_to_json(truncation_suite(g))
    assert len(payloads) == 12
    for payload in payloads:
        assert io.json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


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

"""Serialization: the one float format, row writers, all-or-nothing writes.

Floats in CSV are printed with ``%.17g`` (an exact float64 round trip),
JSON has sorted keys and a two-space indent, and every text ends in one
LF.  :func:`write_all` makes all of a command's files appear or none.

:func:`csv_text` is numpy throughout: a vectorized ``%.17g`` kernel (see
the comment above :func:`_pow10`) writes each distinct float once,
straight into its final cell, small integer columns are keyed without a
sort (:func:`_ranked`), and each column's cells, one typed scalar each,
are gathered per slab into a structured array, so no Python ``%`` or
string join runs per cell.  The slabs' NULs are dropped with
``bytes.translate`` into one buffer, decoded once.  Its bytes are those
of ``"%.17g" % x``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import re
import tempfile
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .zeta import _split, _two_prod

__all__ = ["FLOAT_FORMAT", "csv_text", "json_text", "json_rows", "write_all"]

FLOAT_FORMAT = "%.17g"


def _distinct_strings(values: np.ndarray, render) -> list[str]:
    # Each distinct value is rendered once (a ladder index column has a few
    # dozen); floats by bit pattern, so -0.0 and 0.0 print apart.
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    text = render(distinct.view(values.dtype).tolist())
    return [text[i] for i in inverse.tolist()]


# -- CSV: each column rendered once per distinct value, cells gathered as typed scalars
#
# Floats go through a numpy %.17g kernel.  For |x| = a it takes
# k = 16 - floor(log10 a) and forms y = a * 10^k as a double-double
# hi + lo: Dekker's two-product (Numer. Math. 18, 1971; zeta's _two_prod)
# gives a * hi(10^k) exactly, and 10^k = hi + lo is itself correctly
# rounded to 106 bits, so for y in [1e16, 1e17] the error of hi + lo
# stays below 1e-14.  There hi is an integer, so floor(y) and its
# fraction come from hi and lo, and the 17 digits are floor(y) or
# floor(y) + 1.  Where 10^k is not a double a fraction within _TIE of 1/2
# could round either way; those near-ties, zeros, non-finite values and a
# outside [1e-280, 1e280], where 10^k or its split would leave the normal
# double range, go to FLOAT_FORMAT % x.
# If y sits within the error of 1e16, k may be off by one; both choices
# give the same digits, as 10y then rounds up to 1e17, a carry into the
# next decade.

_TIE = 2.0**-20
_SETTLED = (1e-280, 1e280)
_CHUNK = 1 << 15  # floats per pass of the kernel, so its temporaries stay in cache
_SLAB_ROWS = 1 << 12  # rows per gather, so a slab and its bytes stay in cache


@functools.lru_cache(maxsize=None)
def _pow10(k: int) -> tuple[float, float]:
    """10^k as hi + lo, hi and lo each correctly rounded (Python's int
    division is), built on first use per exponent."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


def _scaled(a: np.ndarray, k: np.ndarray):
    """a * 10^k as hi + lo: hi = fl(a * 10^k's hi half), lo its exact
    two-product error plus a times 10^k's lo half."""
    k0 = k.min(initial=0)
    at = k - k0
    counts = np.bincount(at)
    need = np.flatnonzero(counts)
    table_hi, table_lo = np.zeros((2, counts.size))
    table_hi[need], table_lo[need] = np.reshape([_pow10(int(x)) for x in need + k0], (-1, 2)).T
    p_hi, p_lo = table_hi[at], table_lo[at]
    hi, err = _two_prod(a, _split(a), p_hi, _split(p_hi))
    return hi, err + a * p_lo


def _decimal17(a: np.ndarray):
    """(d, e, sure) for |x| = a in [1e-280, 1e280]: the digits d in
    [10^16, 10^17) and the exponent e of x rounded to 17 significant
    digits, d * 10^(e - 16); ``sure`` is False where the kernel leaves the
    rounding undecided (near-ties)."""
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, k)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    fix = low | (hi >= 1e17)
    k[fix] += np.where(low[fix], 1, -1)
    hi[fix], lo[fix] = _scaled(a[fix], k[fix])
    whole = np.floor(lo)
    frac = lo - whole
    # For 0 <= k <= 22, 10^k is a double, so hi + lo is y itself and frac
    # is exact wherever it is near 1/2: ties round half to even.
    exact = (k >= 0) & (k <= 22)
    sure = (hi >= 1e16) & (hi <= 1e17) & (exact | (np.abs(frac - 0.5) > _TIE))
    d = np.where(sure, hi, 1e16).astype(np.int64) + whole.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & exact & (d % 2 == 1))
    carry = d == 10**17  # a 17th-digit carry into the next decade
    d[carry] = 10**16
    return d, 16 - k + carry, sure


def _digits(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, n) for d in [10^16, 10^17): its 17 digits in ASCII, one
    row per digit position, and the count of them left when trailing
    zeros are dropped."""
    digits = np.empty((17, d.size), dtype=np.uint8)
    high = d // 10**9
    for x, rows in ((high, range(7, -1, -1)), (d - high * 10**9, range(16, 7, -1))):
        x = x.astype(np.uint32)
        for i in rows:
            q = x // 10
            digits[i] = x - 10 * q
            x = q
    n = np.ones(d.size, dtype=np.int8)  # the first digit is never 0
    for i in range(1, 17):
        np.maximum(n, (digits[i] != 0) * np.int8(i + 1), out=n)
    digits += ord("0")
    return digits, n


def _float_cells(column: np.ndarray, sep: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(cells, index) for a float column: per distinct value, one
    row-major cell of bytes holding its FLOAT_FORMAT text and ``sep``,
    NULs where a byte is unused, viewed as one item; and per row of the
    column, the cell of its value.  Values are told apart by bit pattern,
    so -0.0 and 0.0 print apart.

    The text of (-1)^neg * d * 10^(e - 16) is fixed notation for
    -4 <= e < 17, else d.ddde+XX, with trailing zeros dropped along with
    the point they leave bare.  Values that share their sign, their
    notation and, in fixed notation, e (in exponent notation, whether
    |e| >= 100) share one layout of byte columns, and the widest text sets
    the cell's width.  The distinct values come sorted by bit pattern,
    within each sign by magnitude, so such values are adjacent and each
    run of them is written as one piece.  The kernel runs over _CHUNK
    values at a time, and no piece crosses a chunk.  Values the kernel
    leaves unsettled are written as ``FLOAT_FORMAT % x``.
    """
    column = np.asarray(column, dtype=np.float64)
    keys, index = np.unique(column.view(np.int64), return_inverse=True)
    values = keys.view(np.float64)
    a = np.abs(values)
    settled = np.isfinite(a) & (a >= _SETTLED[0]) & (a <= _SETTLED[1])
    a = np.where(settled, a, 1.0)  # a stand-in; unsettled rows are written below
    digits = np.empty((17, values.size), dtype=np.uint8)
    n = np.empty(values.size, dtype=np.int8)
    e = np.empty(values.size, dtype=np.int16)
    sure = np.empty(values.size, dtype=bool)
    for lo in range(0, values.size, _CHUNK):
        at = slice(lo, lo + _CHUNK)
        d, e[at], sure[at] = _decimal17(a[at])
        digits[:, at], n[at] = _digits(d)
    ok = settled & sure
    rest = np.flatnonzero(~ok)
    fallback = [(FLOAT_FORMAT % v).encode() for v in values[rest].tolist()]
    # Small counts as int8 and bytes as uint8 keep every pass below narrow.
    # n: significant digits; cut: digits before the point (1 in exponent
    # notation); lead: the length of "0.", "0.0", ... "0.000"; shown:
    # digits printed; body: digits and point.
    neg = np.signbit(values)
    fixed = (e >= -4) & (e < 17)
    wide = ~fixed & (np.abs(e) >= 100)
    cut = np.where(fixed & (e >= 0), e + 1, 1).astype(np.int8)
    lead = np.where(fixed & (e < 0), 1 - e, 0).astype(np.int8)
    shown = np.maximum(n, cut)
    body = shown + ((n > cut) & (lead == 0))
    length = (neg + lead + body + ~fixed * (np.int8(4) + wide)) * ok
    text = max([int(length.max(initial=0)), *map(len, fallback)])
    cells = np.zeros((values.size, _cell_width(text + 1)), dtype=np.uint8)
    cells[:, text] = ord(sep)

    # A piece is a run of rows with one key: twice the notation (e in fixed
    # notation, 100 or 101 in exponent notation) plus the sign.  Unsettled
    # rows get a key of their own and are left to the fallback.
    key = np.where(ok, np.where(fixed, e, np.int16(100) + wide) * 2 + neg, 1000)
    first = np.ones(values.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    first[::_CHUNK] = True
    starts = np.flatnonzero(first)
    for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [values.size]):
        if not ok[lo]:
            continue
        kind, col = divmod(int(key[lo]), 2)  # col: where the text starts, 1 after a "-"
        out, dg, at = cells[lo:hi], digits[:, lo:hi], slice(lo, hi)
        if col:
            out[:, 0] = ord("-")
        width = int(body[at].max())
        # Trailing zeros to NUL, one digit row at a time: with one mask of
        # all 17 rows, the 24x24 gram command's peak RSS read 7 MB higher
        # (allocator high-water, not live data).
        for c in range(1, min(width, 17)):
            dg[c] *= shown[at] > c
        if kind < 0:  # 0.ddd, 0.0ddd, ... 0.000ddd
            prefix = b"0." + b"0" * (-kind - 1)
            out[:, col : col + len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
            out[:, col + len(prefix) : col + len(prefix) + width] = dg[:width].T
            continue
        point = kind + 1 if kind < 100 else 1  # digits before the point
        out[:, col : col + point] = dg[:point].T
        if width > point:
            out[:, col + point] = (n[at] > point) * np.uint8(ord("."))
            out[:, col + point + 1 : col + width] = dg[point : width - 1].T
        if kind >= 100:
            x = np.abs(e[at])
            tail = [ord("e"), (e[at] < 0) * np.uint8(2) + np.uint8(ord("+"))]  # "-" is "+" + 2
            tail += [x // 100 + ord("0")] * (kind == 101)
            tail += [x // 10 % 10 + ord("0"), x % 10 + ord("0")]
            for c, byte in enumerate(tail, col + width):
                out[:, c] = byte
    if rest.size:
        width = max(map(len, fallback))
        cells[rest, :width] = _text_block(fallback, width)
    return _typed(cells), index.ravel()


def _cell_width(width: int) -> int:
    """Cells of up to 8 bytes round up to 1, 2, 4 or 8, one uint each;
    wider cells keep their exact width, one void item each."""
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _typed(cells: np.ndarray) -> np.ndarray:
    """The rows of a byte array, each viewed as one typed item, so a
    gather copies each cell as one item."""
    width = cells.shape[1]
    return cells.view(f"u{width}" if width <= 8 else f"V{width}").ravel()


def _text_block(encoded: list[bytes], width: int) -> np.ndarray:
    """The bytes of each text, one row of ``width`` each, NUL-padded."""
    return np.array(encoded, dtype=f"S{width}").reshape(len(encoded), 1).view(np.uint8)


def _text_cells(texts: list[str], sep: bytes) -> np.ndarray:
    """One cell per text, laid out as :func:`_float_cells` lays floats:
    the UTF-8 bytes of the text, then ``sep``."""
    encoded = [t.encode() + sep for t in texts]
    width = _cell_width(max(map(len, encoded), default=1))
    return _typed(_text_block(encoded, width))


def _ranked(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, inverse) as np.unique(values, return_inverse=True) gives
    them.  Integers that span at most their count are ranked without a
    sort, by marking their offsets from the minimum.  The offsets
    are int64, which holds them wherever the maximum fits; a larger
    maximum takes the sort."""
    if values.dtype.kind in "iu" and values.size:
        lo, hi = int(values.min()), int(values.max())
        if hi - lo <= values.size and hi < 2**63:
            offset = np.subtract(values, lo, dtype=np.int64, casting="unsafe")
            seen = np.zeros(hi - lo + 1, dtype=bool)
            seen[offset] = True
            if seen.all():  # the offsets are their own ranks
                return np.arange(seen.size) + lo, offset
            return np.flatnonzero(seen) + lo, (np.cumsum(seen) - 1)[offset]
    return np.unique(values, return_inverse=True)


def _column_cells(column, sep: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(cells, index): one cell per distinct value of the column (see
    :func:`_float_cells`) and, per row of the column, the cell of its
    value."""
    column = np.asarray(column)
    if column.dtype.kind == "b":
        return _text_cells(["false", "true"], sep), column.astype(np.intp).ravel()
    if column.dtype.kind == "f":
        return _float_cells(column, sep)
    distinct, index = _ranked(column)
    return _text_cells(list(map(str, distinct.tolist())), sep), index.ravel()


def _csv_bytes(header: Sequence[str], columns: Sequence) -> memoryview:
    """The UTF-8 bytes of :func:`csv_text`; the cells and keys are freed
    when this returns.

    They go into one buffer sized for every cell at its full width.  Its
    pages are mapped as they are first written, so the tail that the
    dropped NULs leave unused adds nothing to the resident memory."""
    if len(columns) and len(header) != len(columns):
        raise ParameterError(f"{len(header)} header names for {len(columns)} columns")
    cells, indices = [], []
    for c, column in enumerate(columns):
        x, index = _column_cells(column, b"\n" if c == len(columns) - 1 else b",")
        if indices and index.size != indices[0].size:
            raise ParameterError(
                f"column {c} has {index.size} rows, column 0 has {indices[0].size}"
            )
        cells.append(x)
        indices.append(index)
    n_rows = indices[0].size if indices else 0
    # one field per column, so a row of the slab is a row of the table
    slab = np.empty(min(n_rows, _SLAB_ROWS), [(f"c{c}", x.dtype) for c, x in enumerate(cells)])
    head = (",".join(header) + "\n").encode()
    text = memoryview(np.empty(len(head) + n_rows * slab.itemsize, dtype=np.uint8))
    text[: len(head)] = head
    end = len(head)
    for lo in range(0, n_rows, _SLAB_ROWS):
        rows = slab[: n_rows - lo]
        for name, x, index in zip(slab.dtype.names, cells, indices):
            # every index is a row of its cells (the rank of a distinct value
            # or a bool), so "clip" never clips; it only skips "raise"'s check.
            # Gathered contiguous, then copied into the field: a take into
            # the strided field would go through a temporary anyway.
            rows[name] = np.take(x, index[lo : lo + rows.size], mode="clip")
        chunk = rows.tobytes().translate(None, b"\0")
        text[end : end + len(chunk)] = chunk
        end += len(chunk)
    return text[:end]


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """CSV with a header line and one line per row.

    ``columns`` holds the data column by column (arrays or lists, all of
    one length, one per name of the header, or none at all), and each
    column's dtype picks its format: integers as ``%d``, floats in
    :data:`FLOAT_FORMAT`, bools as ``true``/``false`` and strings as they
    are (less any NUL characters).  Columns of unequal lengths, or a
    header whose names do not match the columns one to one, raise
    :class:`ParameterError`.

    Each distinct value is rendered once, straight into a row-major cell
    of its text and separator, NULs where a byte is unused (see
    :func:`_float_cells`).  The rows of the table are gathered from those
    cells in slabs, one typed element per cell; each slab's bytes go, with
    their NULs dropped by ``bytes.translate``, into one buffer, which is
    decoded once.
    """
    return str(_csv_bytes(header, columns), "utf-8")


_ARRAY_MARK = re.compile(r'"\\u0000(\d+)\\u0000"')


def _json_numbers(values: list[float]) -> list[str]:
    # the C encoder's spelling of each float, NaN and Infinity included
    return json.dumps(values)[1:-1].split(", ")


def json_text(payload) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing LF.

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``.
    An indent forces the pure-Python encoder, so every nonempty flat list
    of floats is first swapped for a marker string and the rest is dumped
    with the indent.  The floats of all those lists are spelled at once,
    each distinct bit pattern once, and every list is spliced back at its
    marker's indent, one number per line as the indent lays it out.
    """
    arrays: list[list[float]] = []

    def swap(node):
        if isinstance(node, dict):
            return {key: swap(value) for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            if set(map(type, node)) == {float}:
                arrays.append(node)
                return "\0%d\0" % (len(arrays) - 1)
            return [swap(v) for v in node]
        return node

    text = json.dumps(swap(payload), sort_keys=True, indent=2)
    floats = np.array(list(itertools.chain.from_iterable(arrays)), dtype=np.float64)
    strings = _distinct_strings(floats, _json_numbers)
    ends = list(itertools.accumulate(len(a) for a in arrays))

    def unswap(m: re.Match) -> str:
        head = text[text.rfind("\n", 0, m.start()) + 1 : m.start()]
        pad = " " * (len(head) - len(head.lstrip(" ")))
        i = int(m.group(1))
        items = strings[ends[i] - len(arrays[i]) : ends[i]]
        return "[\n%s  %s\n%s]" % (pad, (",\n  " + pad).join(items), pad)

    return _ARRAY_MARK.sub(unswap, text) + "\n"


def json_rows(schema: str, header: Sequence[str], columns: Sequence) -> str:
    """JSON document ``{"schema", "columns", "rows"}`` with rows as lists."""
    rows = list(zip(*(np.asarray(c).tolist() for c in columns)))  # tuples: JSON lists
    return json_text({"schema": schema, "columns": list(header), "rows": rows})


def write_all(files: dict[str, str]) -> None:
    """Write every file or none of them.

    Each text first goes to its own fresh temp file beside its target, so
    concurrent runs never share one; only when all are on disk are they
    renamed over the targets.  On any failure the temp files and the
    targets already renamed are removed and the error propagates; an
    ``OSError`` that names a file then names the target, not its temp file.
    """
    umask = os.umask(0)
    os.umask(umask)
    temps: list[tuple[str, str]] = []
    renamed: list[str] = []
    try:
        for path, text in files.items():
            head, tail = os.path.split(path)
            fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=tail + ".", dir=head or ".")
            temps.append((tmp, path))
            with os.fdopen(fd, "w", newline="\n") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                fh.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException as exc:
        for leftover in [tmp for tmp, _ in temps] + renamed:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        if isinstance(exc, OSError) and exc.filename is not None:
            exc.filename = path
            del exc.filename2  # set to None it would still print as "-> None"
        raise

"""Serialization: the one float format, row writers, all-or-nothing writes.

Floats in CSV are printed with ``%.17g`` (an exact float64 round trip),
JSON has sorted keys and a two-space indent, and every text ends in one
LF.  :func:`write_all` makes all of a command's files appear or none.

:func:`csv_text` is numpy throughout: a vectorized ``%.17g`` kernel (see
the comment above :func:`_pow10`) renders each distinct float once, small
integer columns are keyed without a sort (:func:`_ranked`), and each
column's cells, padded to one typed scalar, are gathered per slab into a
structured array, so no Python ``%`` or string join runs per cell.  Its
bytes are those of ``"%.17g" % x``.
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
# hi + lo: Dekker's two-product (Numer. Math. 18, 1971) gives a * hi(10^k)
# exactly, and 10^k = hi + lo is itself correctly rounded to 106 bits, so
# for y in [1e16, 1e17] the error of hi + lo stays below 1e-14.  There hi
# is an integer, so floor(y) and its fraction come from hi and lo, and the
# 17 digits are floor(y) or floor(y) + 1.  Where 10^k is not a double a
# fraction within _TIE of 1/2 could round either way; those near-ties,
# zeros, non-finite values and a outside [1e-280, 1e280], where 10^k or
# its split would leave the normal double range, go to FLOAT_FORMAT % x.
# If y sits within the error of 1e16, k may be off by one; both choices
# give the same digits, as 10y then rounds up to 1e17, a carry into the
# next decade.

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter for float64
_TIE = 2.0**-20
_SETTLED = (1e-280, 1e280)
_WIDTH = 29  # the bytes of _layout's template; the widest text has 24
_SLAB_ROWS = 1 << 15


@functools.lru_cache(maxsize=None)
def _pow10(k: int) -> tuple[float, float]:
    """10^k as hi + lo, hi and lo each correctly rounded (Python's int
    division is), built on first use per exponent."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


def _split(a: np.ndarray):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a: np.ndarray, k: np.ndarray):
    """a * 10^k as hi + lo: hi = fl(a * 10^k's hi half), lo its exact
    two-product error plus a times 10^k's lo half."""
    k0 = k.min(initial=0)
    counts = np.bincount(k - k0)
    need = np.flatnonzero(counts)
    table = np.zeros((counts.size, 2))
    table[need] = np.reshape([_pow10(int(x)) for x in need + k0], (-1, 2))
    p_hi, p_lo = table[k - k0].T
    hi = a * p_hi
    a1, a2 = _split(a)
    b1, b2 = _split(p_hi)
    err = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
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


def _layout(neg: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The %.17g text of (-1)^neg * d * 10^(e - 16), one row of bytes
    each, with NULs where a byte is unused: fixed notation for
    -4 <= e < 17, else d.ddde+XX, and trailing zeros dropped with the
    point they leave bare.

    Every text fills one template of _WIDTH bytes: a sign, a "0.000"
    lead, 17 digits with a point among them, and "e+ddd".  The template
    is built one byte position at a time over all values at once.
    """
    digits = np.zeros((17, d.size), dtype=np.uint8)  # d_0 .. d_16, in ASCII
    high = d // 10**9
    for x, rows in ((high, range(7, -1, -1)), (d - high * 10**9, range(16, 7, -1))):
        x = x.astype(np.uint32)
        for i in rows:
            q = x // 10
            digits[i] = x - 10 * q + ord("0")
            x = q
    # Small counts as int8 and bytes as uint8 keep every pass below narrow.
    # n: significant digits; point: the digit the point precedes (18: none);
    # shown: digits printed; lead: the length of "0.", "0.0", ... "0.000".
    n = (17 - np.argmax(digits[::-1] != ord("0"), axis=0)).astype(np.int8)
    fixed = (e >= -4) & (e < 17)
    e8 = np.where(fixed, e, -5).astype(np.int8)
    point = np.where(fixed, np.where(e8 >= 0, e8 + 1, 18), 1).astype(np.int8)
    shown = np.where(e8 >= 0, np.maximum(n, e8 + 1), n).astype(np.int8)
    digits[np.arange(17, dtype=np.int8)[:, None] >= shown] = 0  # trailing zeros
    dot = np.where(point < n, ord("."), 0).astype(np.uint8)
    lead = np.where(fixed & (e8 < 0), 1 - e8, 0).astype(np.int8)
    ex = np.abs(e)
    t = np.zeros((_WIDTH, d.size), dtype=np.uint8)
    t[0] = np.where(neg, ord("-"), 0)
    for j, byte in enumerate(b"0.000"):
        t[1 + j] = np.where(lead > j, byte, 0)
    for c in range(18):
        here = digits[c] if c < 17 else 0
        t[6 + c] = np.where(point > c, here, np.where(point == c, dot, digits[c - 1]))
    t[24] = np.where(fixed, 0, ord("e"))
    t[25] = np.where(fixed, 0, np.where(e < 0, ord("-"), ord("+")))
    t[26] = np.where(fixed | (ex < 100), 0, ex // 100 + ord("0"))
    t[27] = np.where(fixed, 0, ex // 10 % 10 + ord("0"))
    t[28] = np.where(fixed, 0, ex % 10 + ord("0"))
    return np.ascontiguousarray(t.T)


def _text_block(texts: list[str]) -> np.ndarray:
    """UTF-8 bytes of each text, one row each, NUL-padded."""
    encoded = np.array([t.encode() for t in texts], dtype=bytes)
    return encoded.reshape(len(texts), 1).view(np.uint8)


def _float_block(values: np.ndarray) -> np.ndarray:
    """The FLOAT_FORMAT text of each float64, one row of _WIDTH bytes
    each, NULs where a byte is unused."""
    a = np.abs(values)
    settled = np.isfinite(a) & (a >= _SETTLED[0]) & (a <= _SETTLED[1])
    d, e, sure = _decimal17(a[settled])
    block = np.zeros((values.size, _WIDTH), dtype=np.uint8)
    block[settled] = _layout(np.signbit(values[settled]), d, e)
    rest = np.concatenate((np.flatnonzero(~settled), np.flatnonzero(settled)[~sure]))
    texts = _text_block([FLOAT_FORMAT % v for v in values[rest].tolist()])
    block[rest] = 0
    block[rest, : texts.shape[1]] = texts
    return block


def _ranked(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, inverse) as np.unique(values, return_inverse=True) gives
    them.  Integers that span at most their count are ranked without a
    sort, by a bincount of their offsets from the minimum.  The offsets
    are int64, which holds them wherever the maximum fits; a larger
    maximum takes the sort."""
    if values.dtype.kind in "iu" and values.size:
        lo, hi = int(values.min()), int(values.max())
        if hi - lo <= values.size and hi < 2**63:
            offset = values.astype(np.int64) - lo
            seen = np.bincount(offset.ravel()) != 0
            return np.flatnonzero(seen) + lo, (np.cumsum(seen) - 1)[offset]
    return np.unique(values, return_inverse=True)


def _column_block(column) -> tuple[np.ndarray, np.ndarray]:
    """(block, index): one NUL-padded text row per distinct value of the
    column and, per cell, the row of its text.  Floats are keyed by bit
    pattern, so -0.0 and 0.0 print apart."""
    column = np.asarray(column)
    if column.dtype.kind == "b":
        return _text_block(["false", "true"]), column.astype(np.intp)
    if column.dtype.kind == "f":
        column = column.astype(np.float64)
        distinct, index = np.unique(column.view(np.int64), return_inverse=True)
        return _float_block(distinct.view(np.float64)), index
    distinct, index = _ranked(column)
    return _text_block(list(map(str, distinct.tolist()))), index


def _cells(block: np.ndarray, sep: str) -> np.ndarray:
    """Each row of the block as one scalar: its text bytes (the byte
    columns NUL in every row dropped), ``sep``, then NULs up to a power of
    two of bytes, viewed as one uint8/16/32/64 or void16, void32, ...
    element, so a gather copies each cell as one typed item."""
    keep = np.flatnonzero(block.any(axis=0))
    width = 1 << keep.size.bit_length()  # the least power of two above keep.size
    cells = np.zeros((block.shape[0], width), np.uint8)
    cells[:, : keep.size] = block[:, keep]
    cells[:, keep.size] = ord(sep)
    return cells.view(f"u{width}" if width <= 8 else f"V{width}").ravel()


def _row_texts(columns: Sequence):
    """The CSV lines of the columns, one text per slab of _SLAB_ROWS rows."""
    cells, indices = [], []
    for c, column in enumerate(columns):
        block, index = _column_block(column)
        cells.append(_cells(block, "\n" if c == len(columns) - 1 else ","))
        indices.append(index.ravel())
    n_rows = indices[0].size if indices else 0
    # one field per column, so a row of the slab is a row of the table
    slab = np.empty(min(n_rows, _SLAB_ROWS), [(f"c{c}", x.dtype) for c, x in enumerate(cells)])
    for lo in range(0, n_rows, _SLAB_ROWS):
        rows = slab[: n_rows - lo]
        for name, x, index in zip(slab.dtype.names, cells, indices):
            # every index is a row of its cells (the rank of a distinct value
            # or a bool), so "clip" never clips; it only skips "raise"'s check
            np.take(x, index[lo : lo + rows.size], out=rows[name], mode="clip")
        text = rows.view(np.uint8)
        yield text[text != 0].tobytes().decode()


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """CSV with a header line and one line per row.

    ``columns`` holds the data column by column (arrays or lists, all of
    one length), and each column's dtype picks its format: integers as
    ``%d``, floats in :data:`FLOAT_FORMAT`, bools as ``true``/``false``
    and strings as they are (less any NUL characters).  Each distinct
    value is rendered once into a NUL-padded cell (see :func:`_cells`);
    the rows of the table are gathered from those in slabs, one typed
    element per cell, and each slab is decoded with its NULs dropped, so
    the text is built once.
    """
    # the generator has run out, freeing its cells and keys, by the join
    return "".join([",".join(header) + "\n", *_row_texts(columns)])


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

"""Serialization: the one float format, row writers, all-or-nothing writes.

Floats in CSV are printed with ``%.17g`` (an exact float64 round trip),
JSON has sorted keys and a two-space indent, and every text ends in one
LF.  :func:`write_all` makes all of a command's files appear or none.
"""

from __future__ import annotations

import contextlib
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


def _column_strings(column) -> list[str]:
    column = np.asarray(column)
    if column.dtype.kind == "b":
        return np.where(column, "true", "false").tolist()
    if column.dtype.kind == "f":
        return _distinct_strings(column, lambda vs: [FLOAT_FORMAT % v for v in vs])
    return _distinct_strings(column, lambda vs: list(map(str, vs)))


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """CSV with a header line and one line per row.

    ``columns`` holds the data column by column (arrays or lists, all of
    one length), and each column's dtype picks its format: integers as
    ``%d``, floats in :data:`FLOAT_FORMAT`, bools as ``true``/``false``
    and strings as they are.
    """
    rows = map(",".join, zip(*map(_column_strings, columns)))
    return "\n".join([",".join(header), *rows]) + "\n"


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
    targets already renamed are removed and the error propagates.
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
    except BaseException:
        for leftover in [tmp for tmp, _ in temps] + renamed:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise

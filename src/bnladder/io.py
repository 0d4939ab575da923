"""Serialization: the one float format, row writers, all-or-nothing writes.

Floats in CSV are printed with ``%.17g`` (an exact float64 round trip),
JSON has sorted keys and a two-space indent, and every text ends in one
LF.  :func:`write_all` makes all of a command's files appear or none.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Sequence

import numpy as np

__all__ = ["FLOAT_FORMAT", "csv_text", "json_text", "json_rows", "write_all"]

FLOAT_FORMAT = "%.17g"

def _rows(columns: Sequence) -> zip:
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))


def _float_strings(values) -> list[str]:
    # Equal bit patterns print alike, so each distinct one is formatted
    # once: a symmetric matrix has about half as many as it has entries.
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [FLOAT_FORMAT % v for v in bits.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]


def csv_text(header: Sequence[str], kinds: str, columns: Sequence) -> str:
    """CSV with a header line and one line per row.

    ``columns`` holds the data column by column (arrays or lists, all of
    one length); ``kinds`` has one letter per column: ``d`` an integer,
    ``g`` a float in :data:`FLOAT_FORMAT`, ``s`` a string.  Each row is
    formatted with one ``%``-template.
    """
    template = ",".join("%d" if k == "d" else "%s" for k in kinds)
    columns = [_float_strings(c) if k == "g" else c for k, c in zip(kinds, columns)]
    return "\n".join([",".join(header), *(template % r for r in _rows(columns))]) + "\n"


def json_text(payload) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing LF."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def json_rows(schema: str, header: Sequence[str], columns: Sequence) -> str:
    """JSON document ``{"schema", "columns", "rows"}`` with rows as lists."""
    rows = list(_rows(columns))  # tuples serialize as JSON lists
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

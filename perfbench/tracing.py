"""Traced run: spans around each layer's public functions, taken from outside.

Run as a script, this file executes one ``bnladder`` CLI command (or the
probe block) in a fresh process with every layer function wrapped, then
writes the spans it kept in memory as JSON:

    PYTHONPATH=src python3 perfbench/tracing.py --spans OUT.json --trace-id 0 -- gram ...
    PYTHONPATH=src python3 perfbench/tracing.py --spans OUT.json --trace-id 9 --probe DIR

A span is (id, parent, trace, name, layer, start, end) plus the counts its
call carries (grid points, lattice pieces, matrix side, bytes written).
Start and end are ``time.perf_counter`` readings, which on Linux share one
monotonic clock across processes, so the harness can line them up with its
own timestamps.  After the command, each ``build_gram`` call is repeated
once in the same process with tracing off, giving the warm build time.

:func:`layer_metrics` turns the spans of one traced pass into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from typing import Callable

import numpy as np

_SERIALIZERS = (
    ("gram", "gram_to_csv"),
    ("gram", "gram_to_json"),
    ("decay", "shells_to_csv"),
    ("decay", "decay_report_to_json"),
    ("decay", "truncation_suite_to_json"),
)


# Meters map a call's bound arguments and its result to the counts recorded
# on its span.
def _grid_counts(a: dict, result) -> dict:
    ts = np.asarray(a["ts"])
    return {"points": int(ts.size), "t_max": float(ts.max()) if ts.size else 0.0}


def _lattice_counts(a: dict, result) -> dict:
    return {"pieces": int(math.floor(1.0 / a["x_min"])), "side": len(a["denominators"])}


def _result_side(a: dict, result) -> dict:
    return {"side": int(result.size)}


def _input_side(a: dict, result) -> dict:
    return {"side": int(a["g"].size)}


def _bytes(a: dict, result) -> dict:
    return {"bytes": len(result.encode())}


# (layer, module, function, meter)
INSTRUMENTED = (
    ("zeta", "zeta", "zeta_half_grid", _grid_counts),
    ("zeta", "zeta", "zeta_half", None),
    ("zeta", "zeta", "zeta_selfcheck", None),
    ("fractional", "fractional", "pair_inner_matrix", _lattice_counts),
    ("fractional", "fractional", "inner_direct", None),
    ("mellin", "mellin", "mellin_closed_grid", _grid_counts),
    ("mellin", "mellin", "mellin_closed", None),
    ("mellin", "mellin", "mellin_direct", None),
    ("gram", "gram", "build_gram", _result_side),
    ("gram", "gram", "cross_validate", None),
    ("decay", "decay", "decay_report", _input_side),
    ("decay", "decay", "truncation_suite", _input_side),
) + tuple(("io", module, name, _bytes) for module, name in _SERIALIZERS)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.builds: list[tuple] = []  # (args, kwargs) of each build_gram call
        self._stack: list[int] = []
        self.enabled = True

    def call(self, name: str, layer: str, fn: Callable, args, kwargs, meter=None):
        """Run ``fn`` inside a span; ``meter`` adds the call's counts."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "trace": self.trace_id,
            "name": name,
            "layer": layer,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if meter is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            span.update(meter(bound, result))
        return result

    def instrument(self) -> None:
        """Replace each instrumented function, wherever a bnladder module
        holds a reference to it, by a span-recording wrapper."""
        import bnladder  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "bnladder"]
        for layer, module, name, meter in INSTRUMENTED:
            original = getattr(sys.modules["bnladder." + module], name)
            wrapper = self._wrap(layer, name, original, meter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, layer, name, original, meter):
        def wrapper(*args, **kwargs):
            if name == "build_gram" and self.enabled:
                self.builds.append((args, kwargs))
            return self.call(name, layer, original, args, kwargs, meter)

        wrapper.__wrapped__ = original
        return wrapper

    def warm_builds(self) -> float:
        """Repeat every recorded build_gram call untraced; total seconds."""
        import bnladder.gram

        build = bnladder.gram.build_gram.__wrapped__
        self.enabled = False
        total = 0.0
        for args, kwargs in self.builds:
            t0 = time.perf_counter()
            build(*args, **kwargs)
            total += time.perf_counter() - t0
        return total


def run_probe(tracer: Tracer, out: str) -> int:
    """Small fixed calls into every layer, so each layer metric is defined
    on every workload.  Returns the worst CLI exit code."""
    from bnladder import decay, fractional, gram, mellin, zeta
    from bnladder.ladder import IndexWindow

    # Module attributes are the wrappers, so these calls are recorded.
    zeta.zeta_half_grid(np.linspace(1.0, 1000.0, 2048))
    zeta.zeta_half_grid(np.linspace(1000.5, 10000.0, 256))
    fractional.pair_inner_matrix([2, 3, 6, 12], 1.0e-5)
    mellin.mellin_closed_grid(1.0 / 6.0, np.geomspace(0.1, 100.0, 256))
    mellin.mellin_direct(1.0 / 6.0, 5.0)
    quad = fractional.QuadratureConfig(x_min=1.0e-5)
    raw = gram.build_gram(IndexWindow(2, 2), kind="raw", quad=quad)
    smoothing = mellin.SmoothingParams(W=5.0, epsilon=1.0e-6)
    sm = gram.build_gram(IndexWindow(3, 3), kind="smoothed", smoothing=smoothing)
    gram.gram_to_csv(raw)
    gram.gram_to_json(sm)
    rep = decay.decay_report(sm)
    decay.shells_to_csv(rep.shells)
    decay.decay_report_to_json(rep)
    decay.truncation_suite_to_json(decay.truncation_suite(sm, (1, 2, 3)))
    small = ("--jmax", "3", "--kmax", "3")
    worst = 0
    for argv in (
        ("gram", *small, "--kind", "smoothed", "--out", os.path.join(out, "probe_gram.csv")),
        ("spectrum", "--tmax", "100", "--points", "50",
         "--out", os.path.join(out, "probe_spectrum.csv")),
        ("decay", *small, "--kind", "smoothed", "--out", os.path.join(out, "probe_decay.json")),
        ("truncate", *small, "--bs", "1,2", "--out", os.path.join(out, "probe_truncate.json")),
    ):
        worst = max(worst, run_cli(tracer, list(argv)))
    return worst


def run_cli(tracer: Tracer, argv: list[str]) -> int:
    from bnladder import cli

    return tracer.call("cli." + argv[0], "cli", cli.main, (argv,), {})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="write the spans here")
    parser.add_argument("--trace-id", type=int, required=True)
    parser.add_argument("--probe", metavar="DIR", help="run the probe block, writing into DIR")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- bnladder arguments")
    args = parser.parse_args()
    tracer = Tracer(args.trace_id)
    tracer.instrument()
    if args.probe:
        rc = run_probe(tracer, args.probe)
    else:
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        rc = run_cli(tracer, argv)
    finished = time.perf_counter()
    warm = tracer.warm_builds()
    with open(args.spans, "w") as fh:
        json.dump({"finished": finished, "warm_build_s": warm, "spans": tracer.spans}, fh)
    return rc


# -- metrics from spans -------------------------------------------------------


def _self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its processes' span dumps.

    Span ids are per process, so self times are computed per dump.
    """
    spans, self_by_layer = [], {}
    for dump in dumps:
        own = _self_times(dump["spans"])
        for s in dump["spans"]:
            self_by_layer[s["layer"]] = self_by_layer.get(s["layer"], 0.0) + own[s["id"]]
        spans.extend(dump["spans"])

    def total(names, key=None, pred=lambda s: True):
        sel = [s for s in spans if s["name"] in names and pred(s)]
        secs = sum(s["end"] - s["start"] for s in sel)
        return secs, sum(key(s) for s in sel) if key else 0

    low_s, low_pts = total(("zeta_half_grid",), lambda s: s["points"], lambda s: s["t_max"] <= 1000.0)
    high_s, high_pts = total(("zeta_half_grid",), lambda s: s["points"], lambda s: s["t_max"] > 1000.0)
    build_s, build_pairs = total(("build_gram",), lambda s: s["side"] ** 2)
    warm_s = sum(d["warm_build_s"] for d in dumps)
    lattice_s, pieces = total(("pair_inner_matrix",), lambda s: s["pieces"])
    report_s, report_pairs = total(("decay_report",), lambda s: s["side"] ** 2)
    trunc_s, trunc_pairs = total(("truncation_suite",), lambda s: s["side"] ** 2)
    io_s, io_bytes = total(tuple(n for _, n in _SERIALIZERS), lambda s: s["bytes"])
    out = {
        "zeta.busy_s": self_by_layer.get("zeta", 0.0),
        "zeta.low_points_per_s": _ratio(low_pts, low_s),
        "zeta.high_points_per_s": _ratio(high_pts, high_s),
        "gram.build_s": build_s,
        "gram.warm_build_s": warm_s,
        "gram.cache_saving_s": build_s - warm_s,
        "gram.pairs_per_s": _ratio(build_pairs, build_s),
        "fractional.lattice_s": lattice_s,
        "fractional.pieces": float(pieces),
        "fractional.pieces_per_s": _ratio(pieces, lattice_s),
        "mellin.closed_grid_s": total(("mellin_closed_grid",))[0],
        "mellin.direct_s": total(("mellin_direct",))[0],
        "decay.report_s": report_s,
        "decay.truncation_s": trunc_s,
        "decay.pairs_per_s": _ratio(report_pairs + trunc_pairs, report_s + trunc_s),
        "io.format_s": io_s,
        "io.bytes": float(io_bytes),
        "io.bytes_per_s": _ratio(io_bytes, io_s),
        "cli.self_s": self_by_layer.get("cli", 0.0),
    }
    for s in spans:
        if s["layer"] == "cli":
            key = s["name"] + "_s"
            out[key] = out.get(key, 0.0) + s["end"] - s["start"]
    return out


if __name__ == "__main__":
    raise SystemExit(main())

"""Regenerate ``reference.json``, the values the benchmark checks outputs against.

Run from the repository root, on the commit whose numbers are the reference:

    PYTHONPATH=src python3 perfbench/freeze_reference.py

Gram references are a fixed sample of entries with their err_estimate;
each benchmark run spot-checks a seed-chosen subset of them.  The raw 8x8
reference is the direct build, which the spectral build must also match
within the sum of both error estimates; the smallest slack over the whole
matrix is recorded.
"""

from __future__ import annotations

import json
import random

import numpy as np

import workloads
from bnladder import IndexWindow, SmoothingParams, build_gram, decay_report, mellin_closed_grid

REFERENCE_SAMPLE = 512


def _sample(g) -> dict:
    n = g.size
    flat = random.Random("reference").sample(range(n * n), REFERENCE_SAMPLE)
    pairs = []
    for f in sorted(flat):
        i, j = divmod(f, n)
        pairs.append([i, j, float(g.entries[i, j]), float(g.err_estimate[i, j])])
    return {"kind": g.kind, "method": g.method, "side": g.window.j_max, "pairs": pairs}


def _decay(g, fit_ranges) -> dict:
    reports = {"%d-%d" % fr: decay_report(g, fit_range=fr) for fr in fit_ranges}
    first = next(iter(reports.values()))
    return {
        "exponents": {key: rep.fitted_exponent for key, rep in reports.items()},
        "shell_counts": [s.count for s in first.shells],
    }


def main() -> None:
    smoothing = SmoothingParams(W=workloads.SMOOTHING_W, epsilon=workloads.SMOOTHING_EPS)
    raw = build_gram(IndexWindow(8, 8), kind="raw", method="direct")
    spectral = build_gram(IndexWindow(8, 8), kind="raw", method="spectral")
    smoothed = build_gram(IndexWindow(24, 24), kind="smoothed", smoothing=smoothing)

    diff = np.abs(spectral.entries - raw.entries)
    budget = spectral.err_estimate + raw.err_estimate
    slack = float(np.min(budget[diff > 0] / diff[diff > 0]))

    ts = np.geomspace(workloads.SPECTRUM_TMIN, workloads.SPECTRUM_TMAX, workloads.SPECTRUM_POINTS)
    spectrum = {}
    for text in workloads.SPECTRUM_THETAS:
        num, den = text.split("/")
        spectrum[text] = [float(v) for v in np.abs(mellin_closed_grid(int(num) / int(den), ts))]

    ref = {
        "gram_8x8_raw": dict(_sample(raw), min_slack_spectral_vs_direct=slack),
        "gram_24x24_smoothed": _sample(smoothed),
        "decay_8x8_raw": _decay(raw, workloads.FIT_RANGES["raw_8x8"]),
        "decay_24x24_smoothed": _decay(smoothed, workloads.FIT_RANGES["smoothed_24x24"]),
        "spectrum": spectrum,
    }
    with open(workloads.REFERENCE_PATH, "w", newline="\n") as fh:
        json.dump(ref, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}; spectral vs direct slack {slack:.3f}x")


if __name__ == "__main__":
    main()

"""Workloads of the bnladder benchmark and the checks on their outputs.

A workload is a fixed list of ``bnladder`` CLI commands.  The seed picks
only what leaves the amount of work unchanged: the spectrum's theta, the
decay fit range, and which Gram entries are spot-checked against the
reference frozen in ``reference.json``.  Every check raises
:class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("spectral_probe", "raw_direct", "diagnostics_24")

# Seed-chosen inputs.  The cost of each command does not depend on the choice.
SPECTRUM_THETAS = ("1/6", "1/12", "1/18", "1/24", "1/36", "1/48")
SPECTRUM_TMIN, SPECTRUM_TMAX, SPECTRUM_POINTS = 0.1, 5000.0, 200
SMOOTHING_W, SMOOTHING_EPS = 5.0, 1.0e-6
FIT_RANGES = {
    "raw_8x8": ((1, 7), (1, 6), (2, 7), (1, 8), (2, 8)),
    "smoothed_24x24": ((1, 24), (1, 12), (2, 16), (4, 24)),
}
SPOT_PAIRS = 32

# Tolerances.  Exponents: exact raw entries move the 8x8 exponent by ~1e-5.
# Spectrum: absolute zeta error 1e-8 (the selfcheck's tolerance at zeros),
# relative where |zeta| > 1, carried through |theta - theta^s| / |s|.
EXPONENT_TOL = 1.0e-4
ZETA_TOL = 1.0e-8
ROUNDOFF = 1.0e-12


class CheckFailed(Exception):
    """An output of a command is missing, malformed or wrong."""


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files whose bytes must repeat across passes
    check: Callable[[], None]
    stdout: str | None = None  # where the command's standard output goes


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _load_csv(path: str, columns: int) -> np.ndarray:
    _require(os.path.exists(path), f"missing output {os.path.basename(path)}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"{os.path.basename(path)} is not numeric CSV: {exc}") from exc
    _require(data.shape[1] == columns, f"{os.path.basename(path)} has {data.shape[1]} columns")
    return data


def _load_json(path: str) -> dict:
    _require(os.path.exists(path), f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise CheckFailed(f"{os.path.basename(path)} is not JSON: {exc}") from exc


def check_gram(path: str, side: int, ref: dict, pairs: list) -> None:
    """Layout, symmetry, the (0,0) row budget, and spot checks against the
    reference within the output's plus the reference's error estimate."""
    n = (side + 1) ** 2
    data = _load_csv(path, 6)
    _require(data.shape[0] == n * n, f"gram has {data.shape[0]} rows, expected {n * n}")
    j, k = np.divmod(np.arange(n), side + 1)
    layout = np.column_stack([np.repeat(j, n), np.repeat(k, n), np.tile(j, n), np.tile(k, n)])
    _require(np.array_equal(data[:, :4], layout), "gram rows are not in row-major window order")
    g = data[:, 4].reshape(n, n)
    e = data[:, 5].reshape(n, n)
    _require(bool(np.all(np.isfinite(g)) and np.all(np.isfinite(e))), "non-finite gram entry")
    _require(bool(np.all(e >= 0.0)), "negative err_estimate")
    scale = max(float(np.max(np.abs(g))), 1e-300)
    asym = float(np.max(np.abs(g - g.T)))
    _require(asym <= ROUNDOFF * scale, f"gram not symmetric: max |G - G^T| = {asym:.3e}")
    _require(bool(np.all(np.abs(g[0]) <= e[0])), "(0,0) row exceeds its err_estimate")
    for i, jj, value, err in pairs:
        diff = abs(g[i, jj] - value)
        _require(
            diff <= e[i, jj] + err,
            f"entry ({i},{jj}) = {float(g[i, jj])!r} differs from reference {value!r} by "
            f"{diff:.3e} > budget {e[i, jj] + err:.3e}",
        )
    _check_normalized(path, g, pairs)


def _check_normalized(gram_path: str, g: np.ndarray, pairs: list) -> None:
    base, ext = os.path.splitext(gram_path)
    path = base + ".normalized" + ext
    _require(os.path.exists(path), "missing normalized gram")
    with open(path) as fh:
        lines = fh.read().split("\n")
    n = g.shape[0]
    _require(len(lines) == n * n + 2 and lines[-1] == "", "normalized gram has wrong row count")
    d = np.diag(g)
    for i, j, _, _ in pairs:
        fields = lines[1 + i * n + j].split(",")
        value, flag = float(fields[4]), fields[5]
        if d[i] > 0.0 and d[j] > 0.0:
            want = 1.0 if i == j else g[i, j] / math.sqrt(d[i] * d[j])
            ok = flag == "true" and abs(value - want) <= ROUNDOFF * max(abs(want), 1e-300)
        else:
            ok = flag == "false" and value == 0.0
        _require(ok, f"normalized entry ({i},{j}) is {fields[4]},{flag}")


def check_spectrum(path: str, theta_text: str, ref: list) -> None:
    data = _load_csv(path, 3)
    _require(data.shape[0] == SPECTRUM_POINTS, f"spectrum has {data.shape[0]} rows")
    t, abs_m, abs_sm = data.T
    want_t = np.geomspace(SPECTRUM_TMIN, SPECTRUM_TMAX, SPECTRUM_POINTS)
    _require(bool(np.allclose(t, want_t, rtol=ROUNDOFF, atol=0.0)), "spectrum grid moved")
    num, den = theta_text.split("/")
    theta = int(num) / int(den)
    factor = np.abs(theta - math.sqrt(theta) * np.exp(1j * t * math.log(theta))) / np.abs(
        0.5 + 1j * t
    )
    ref_m = np.array(ref)
    worst = float(np.max(np.abs(abs_m - ref_m) / (ZETA_TOL * (factor + ref_m))))
    _require(worst <= 1.0, f"|M| off the reference by {worst:.2f}x its tolerance")
    psi = SMOOTHING_EPS + np.exp(-((t / SMOOTHING_W) ** 2))
    want = psi * abs_m
    _require(
        bool(np.all(np.abs(abs_sm - want) <= ROUNDOFF * np.maximum(want, 1e-300))),
        "abs_M_smoothed != psi * abs_M",
    )


def check_decay(path: str, ref: dict, fit_range: tuple[int, int]) -> None:
    rep = _load_json(path)
    _require(rep.get("schema") == "bnladder.decay/1", "decay schema")
    _require(tuple(rep["fit_range"]) == fit_range, f"fit range {rep['fit_range']}")
    m, m_ref = rep["fitted_exponent"], ref["exponents"]["%d-%d" % fit_range]
    _require(
        abs(m - m_ref) <= EXPONENT_TOL,
        f"fitted exponent {m!r} vs reference {m_ref!r} (tolerance {EXPONENT_TOL:g})",
    )
    counts = [s["count"] for s in rep["shells"]]
    _require(counts == ref["shell_counts"], "shell counts differ from the reference")
    tail = rep["envelope_tail"]
    _require(all(a >= b for a, b in zip(tail, tail[1:])), "tail envelope increases")
    base, _ = os.path.splitext(path)
    shells = _load_csv(base + ".shells.csv", 5)
    _require(shells.shape[0] == len(counts), "shells CSV disagrees with the report")


def check_truncate(path: str, side: int, bs: tuple[int, ...]) -> None:
    rep = _load_json(path)
    _require(rep.get("schema") == "bnladder.truncation/1", "truncation schema")
    _require(tuple(r["B"] for r in rep["reports"]) == bs, "truncation radii differ")
    for r in rep["reports"]:
        schur, opnorm = r["schur_bound"], r["empirical_opnorm"]
        _require(math.isfinite(schur) and math.isfinite(opnorm), f"B={r['B']}: non-finite")
        _require(
            opnorm <= schur * (1.0 + ROUNDOFF),
            f"B={r['B']}: opnorm {opnorm!r} above the Schur bound {schur!r}",
        )
        tails = [t["tail_sum"] for t in r["tail_sums"]]
        _require(len(tails) == (side + 1) ** 2, f"B={r['B']}: tail sums missing")
        _require(max(tails) == schur, f"B={r['B']}: Schur bound is not the largest tail")


def check_selfcheck(path: str, stdout_path: str) -> None:
    rep = _load_json(path)
    _require(rep.get("passed") is True, "selfcheck did not report passed: true")
    failed = [g["name"] for g in rep.get("groups", []) if not g.get("passed")]
    _require(len(rep.get("groups", [])) == 4 and not failed, f"selfcheck groups {failed}")
    with open(path) as a, open(stdout_path) as b:
        _require(a.read() == b.read(), "selfcheck stdout differs from its --out file")


def _pairs(rng: random.Random, ref: dict) -> list:
    return rng.sample(ref["pairs"], SPOT_PAIRS)


def commands(workload: str, seed: int, out: str, ref: dict) -> list[Command]:
    """The workload's commands, writing into directory ``out``."""
    rng = random.Random(f"{workload}:{seed}")

    def p(name: str) -> str:
        return os.path.join(out, name)

    window8 = ("--jmax", "8", "--kmax", "8")
    window24 = ("--jmax", "24", "--kmax", "24")
    smoothing = ("--W", repr(SMOOTHING_W), "--eps", repr(SMOOTHING_EPS))
    if workload == "spectral_probe":
        theta = rng.choice(SPECTRUM_THETAS)
        pairs = _pairs(rng, ref["gram_8x8_raw"])
        gram, spec = p("sp_gram.csv"), p("sp_spectrum.csv")
        check, check_out = p("sp_selfcheck.json"), p("sp_selfcheck.stdout")
        return [
            Command(
                "gram",
                ("gram", *window8, "--kind", "raw", "--method", "spectral", "--out", gram),
                (gram, p("sp_gram.normalized.csv")),
                lambda: check_gram(gram, 8, ref["gram_8x8_raw"], pairs),
            ),
            Command(
                "spectrum",
                ("spectrum", "--theta", theta, "--tmax", repr(SPECTRUM_TMAX), "--out", spec),
                (spec,),
                lambda: check_spectrum(spec, theta, ref["spectrum"][theta]),
            ),
            Command(
                "selfcheck",
                ("selfcheck", "--out", check),
                (check, check_out),
                lambda: check_selfcheck(check, check_out),
                stdout=check_out,
            ),
        ]
    if workload == "raw_direct":
        fit = rng.choice(FIT_RANGES["raw_8x8"])
        pairs = _pairs(rng, ref["gram_8x8_raw"])
        gram, decay = p("rd_gram.csv"), p("rd_decay.json")
        return [
            Command(
                "gram",
                ("gram", *window8, "--kind", "raw", "--out", gram),
                (gram, p("rd_gram.normalized.csv")),
                lambda: check_gram(gram, 8, ref["gram_8x8_raw"], pairs),
            ),
            Command(
                "decay",
                ("decay", *window8, "--kind", "raw", "--fit-lo", str(fit[0]),
                 "--fit-hi", str(fit[1]), "--out", decay),
                (decay, p("rd_decay.shells.csv")),
                lambda: check_decay(decay, ref["decay_8x8_raw"], fit),
            ),
        ]
    if workload == "diagnostics_24":
        fit = rng.choice(FIT_RANGES["smoothed_24x24"])
        pairs = _pairs(rng, ref["gram_24x24_smoothed"])
        gram, decay, trunc = p("dg_gram.csv"), p("dg_decay.json"), p("dg_truncate.json")
        bs = (1, 2, 3, 4)
        return [
            Command(
                "gram",
                ("gram", *window24, "--kind", "smoothed", *smoothing, "--out", gram),
                (gram, p("dg_gram.normalized.csv")),
                lambda: check_gram(gram, 24, ref["gram_24x24_smoothed"], pairs),
            ),
            Command(
                "decay",
                ("decay", *window24, "--kind", "smoothed", *smoothing, "--fit-lo",
                 str(fit[0]), "--fit-hi", str(fit[1]), "--out", decay),
                (decay, p("dg_decay.shells.csv")),
                lambda: check_decay(decay, ref["decay_24x24_smoothed"], fit),
            ),
            Command(
                "truncate",
                ("truncate", *window24, *smoothing, "--bs", ",".join(map(str, bs)),
                 "--out", trunc),
                (trunc,),
                lambda: check_truncate(trunc, 24, bs),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

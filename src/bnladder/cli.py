"""Command-line front end: deterministic CSV/JSON emission of every report.

Each subcommand validates its flags, computes everything in memory, and
only then writes output files (atomically, tmp + rename), so a failure
never leaves partial files behind.  Floats are printed with 17
significant digits and LF line endings; identical flags give
byte-identical files.

Exit codes: 0 success, 1 validation error, 2 computation failure,
3 selfcheck failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .decay import (
    decay_report,
    decay_report_to_json,
    shells_to_csv,
    truncation_suite,
    truncation_suite_to_json,
)
from .errors import BNLadderError, ParameterError
from .fractional import _CLOSED_FORM_CAP, DEFAULT_QUAD, QuadratureConfig, eval_f, l2_norm
from .gram import GramMatrix, build_gram, cross_validate, gram_to_csv, gram_to_json
from .ladder import IndexWindow, check_injectivity, lambda_mu, shell, theta_of
from .mellin import SmoothingParams, mellin_closed, mellin_closed_grid, mellin_direct, psi
from .zeta import zeta_selfcheck

__all__ = [
    "main",
    "cmd_profile",
    "cmd_ladder",
    "cmd_gram",
    "cmd_spectrum",
    "cmd_decay",
    "cmd_truncate",
    "cmd_selfcheck",
]

_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _sibling(path: str, tag: str, ext: str | None = None) -> str:
    base, old_ext = os.path.splitext(path)
    return base + "." + tag + (old_ext if ext is None else ext)


def _rows_json(schema: str, columns: list[str], rows: list[list]) -> str:
    payload = {"schema": schema, "columns": columns, "rows": rows}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _rows_csv(columns: list[str], rows: list[list]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    return "\n".join(lines) + "\n"


# -- flag parsing helpers -------------------------------------------------


def _parse_theta(text: str) -> float:
    """Accept a decimal or a fraction like 1/12."""
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        try:
            num, den = int(num_s), int(den_s)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad fraction {text!r}") from exc
        if den == 0:
            raise argparse.ArgumentTypeError("fraction with zero denominator")
        return num / den
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad theta {text!r}") from exc


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in {"1", "true", "yes", "on"}:
        return True
    if low in {"0", "false", "no", "off"}:
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty integer list")
    return vals


def _quad_from(args: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(
        abs_tol=args.abs_tol,
        x_min=args.x_min,
        t_max_raw=args.tmax_raw,
    )


def _smoothing_from(args: argparse.Namespace) -> SmoothingParams:
    return SmoothingParams(W=args.W, epsilon=args.eps)


# -- subcommand implementations -------------------------------------------


def cmd_profile(thetas: list[float], n_points: int, out: str, fmt: str = "csv") -> int:
    """Sample each profile on a half-offset equispaced grid."""
    if not thetas:
        raise ParameterError("profile needs at least one theta")
    if n_points < 1:
        raise ParameterError(f"n_points must be positive, got {n_points}")
    xs = (np.arange(n_points) + 0.5) / n_points
    rows: list[list] = []
    for theta in thetas:
        fs = eval_f(theta, xs)
        for x, f in zip(xs, fs):
            rows.append([float(x), float(theta), float(f)])
    cols = ["x", "theta", "f"]
    if fmt == "json":
        _atomic_write(out, _rows_json("bnladder.profile/1", cols, rows))
    else:
        _atomic_write(out, _rows_csv(cols, rows))
    return 0


def cmd_ladder(window: IndexWindow, out: str, fmt: str = "csv") -> int:
    rows: list[list] = []
    for p in window.points():
        rows.append([str(p.index.j), str(p.index.k), p.theta, p.log_theta])
    cols = ["j", "k", "theta", "log_theta"]
    if fmt == "json":
        json_rows = [[int(r[0]), int(r[1]), r[2], r[3]] for r in rows]
        _atomic_write(out, _rows_json("bnladder.ladder/1", cols, json_rows))
    else:
        _atomic_write(out, _rows_csv(cols, rows))
    return 0


def _normalized_rows(g: GramMatrix) -> list[list]:
    diag = np.diag(g.entries)
    rows: list[list] = []
    n = len(g.points)
    for i in range(n):
        for j in range(n):
            ok = diag[i] > 0.0 and diag[j] > 0.0
            if not ok:
                val = 0.0
            elif i == j:
                # exact unit diagonal rather than d/sqrt(d*d) roundoff
                val = 1.0
            else:
                val = float(g.entries[i, j] / math.sqrt(diag[i] * diag[j]))
            pi, pj = g.points[i].index, g.points[j].index
            rows.append(
                [str(pi.j), str(pi.k), str(pj.j), str(pj.k), val, "true" if ok else "false"]
            )
    return rows


def cmd_gram(
    window: IndexWindow,
    kind: str,
    method: str,
    quad: QuadratureConfig,
    out: str,
    fmt: str = "csv",
    smoothing: SmoothingParams | None = None,
) -> int:
    """Write the Gram serialization plus its normalized variant."""
    g = build_gram(window, kind=kind, method=method, smoothing=smoothing, quad=quad)
    norm_rows = _normalized_rows(g)
    cols = ["j", "k", "j2", "k2", "value", "normalized"]
    norm_out = _sibling(out, "normalized")
    if fmt == "json":
        json_rows = [
            [int(r[0]), int(r[1]), int(r[2]), int(r[3]), r[4], r[5] == "true"]
            for r in norm_rows
        ]
        _atomic_write(out, gram_to_json(g))
        _atomic_write(norm_out, _rows_json("bnladder.gram_normalized/1", cols, json_rows))
    else:
        _atomic_write(out, gram_to_csv(g))
        _atomic_write(norm_out, _rows_csv(cols, norm_rows))
    return 0


def cmd_spectrum(
    theta: float,
    t_grid: np.ndarray,
    smoothing: SmoothingParams,
    out: str,
    fmt: str = "csv",
) -> int:
    ts = np.asarray(t_grid, dtype=np.float64)
    if ts.size == 0 or np.any(ts <= 0.0) or np.any(np.diff(ts) <= 0.0):
        raise ParameterError("t_grid must be positive and strictly ascending")
    m = mellin_closed_grid(theta, ts)
    abs_m = np.abs(m)
    abs_m_smoothed = psi(ts, smoothing) * abs_m
    rows = [[float(t), float(a), float(b)] for t, a, b in zip(ts, abs_m, abs_m_smoothed)]
    cols = ["t", "abs_M", "abs_M_smoothed"]
    if fmt == "json":
        _atomic_write(out, _rows_json("bnladder.spectrum/1", cols, rows))
    else:
        _atomic_write(out, _rows_csv(cols, rows))
    return 0


def cmd_decay(
    window: IndexWindow,
    kind: str,
    method: str,
    quad: QuadratureConfig,
    fit_range: tuple[int, int] | None,
    out: str,
    fmt: str = "json",
    smoothing: SmoothingParams | None = None,
    exclude_zero_row: bool = True,
) -> int:
    """Write the decay report JSON and the shell-statistics CSV."""
    g = build_gram(window, kind=kind, method=method, smoothing=smoothing, quad=quad)
    rep = decay_report(g, fit_range=fit_range, exclude_zero_row=exclude_zero_row)
    report_json = decay_report_to_json(rep)
    shells_csv = shells_to_csv(rep.shells)
    if fmt == "csv":
        _atomic_write(out, shells_csv)
        _atomic_write(_sibling(out, "report", ".json"), report_json)
    else:
        _atomic_write(out, report_json)
        _atomic_write(_sibling(out, "shells", ".csv"), shells_csv)
    return 0


def cmd_truncate(
    window: IndexWindow,
    smoothing: SmoothingParams | None,
    b_list: tuple[int, ...],
    out: str,
    fmt: str = "json",
    kind: str = "smoothed",
    method: str = "hybrid",
    quad: QuadratureConfig | None = None,
) -> int:
    g = build_gram(window, kind=kind, method=method, smoothing=smoothing, quad=quad)
    suite = truncation_suite(g, b_list)
    if fmt == "csv":
        cols = ["B", "schur_bound", "empirical_opnorm"]
        rows = [
            [str(r.B), r.schur_bound, r.empirical_opnorm] for r in suite.reports
        ]
        _atomic_write(out, _rows_csv(cols, rows))
    else:
        _atomic_write(out, truncation_suite_to_json(suite))
    return 0


# -- selfcheck -------------------------------------------------------------

_MELLIN_CHECK_THETAS = (0.5, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 12.0)
_MELLIN_CHECK_TS = (0.0, 1.0, 5.0, 20.0)


def _check_zeta() -> tuple[bool, str]:
    rep = zeta_selfcheck()
    return rep.passed, (
        f"max_rel={rep.max_rel_dev:.3e} max_zero_abs={rep.max_zero_abs:.3e}"
    )


def _check_mellin() -> tuple[bool, str]:
    worst = 0.0
    for theta in _MELLIN_CHECK_THETAS:
        for t in _MELLIN_CHECK_TS:
            closed = mellin_closed(theta, t)
            direct = mellin_direct(theta, t)
            rel = abs(closed - direct) / max(1.0, abs(closed))
            worst = max(worst, rel)
    return worst < 1.0e-6, f"worst_rel={worst:.3e} over 16 combinations"


def _check_gram() -> tuple[bool, str]:
    rep = cross_validate(IndexWindow(3, 3))
    budget = 1.0e-4 + rep.max_err_estimate
    return rep.max_abs_diff <= budget, (
        f"max_abs_diff={rep.max_abs_diff:.3e} budget={budget:.3e}"
    )


def _check_structural() -> tuple[bool, str]:
    failures = []
    xs = (np.arange(257) + 0.5) / 257
    if float(np.max(np.abs(eval_f(1.0, xs)))) != 0.0:
        failures.append("f_1 not identically zero")
    sm = SmoothingParams(W=5.0, epsilon=1.0e-6)
    vals = psi(np.linspace(0.0, 50.0, 101), sm)
    if not (np.all(vals >= sm.epsilon) and np.all(vals <= 1.0 + sm.epsilon)):
        failures.append("psi out of [eps, 1+eps]")
    if abs(float(psi(np.array([0.0]), sm)[0]) - (1.0 + sm.epsilon)) > 1e-15:
        failures.append("psi(0) != 1+eps")
    a, b = theta_of((1, 0)), theta_of((0, 1))
    lam, mu = lambda_mu(a.index, b.index)
    if abs(lam - (a.log_theta - b.log_theta)) > 1e-15 or abs(
        mu - (a.log_theta + b.log_theta)
    ) > 1e-15:
        failures.append("lambda/mu arithmetic broken")
    win = IndexWindow(6, 6)
    for center in win:
        for r in range(1, 13):
            n_shell = len(shell(center, r, window=win))
            if n_shell > 4 * r:
                failures.append(f"shell count {n_shell} > 4r at {center}, r={r}")
    inj = check_injectivity(IndexWindow(8, 8))
    if not inj.injective:
        failures.append("ladder thetas not distinct on 8x8")
    if l2_norm(0.5) > 2.0 + 1e-8:
        failures.append("norm bound violated for theta=1/2")
    detail = "; ".join(failures) if failures else "all identities hold"
    return not failures, detail


def cmd_selfcheck(out: str | None = None) -> int:
    """Run the four check groups; exit 3 on any failure."""
    groups = []
    for name, fn in (
        ("zeta_oracle", _check_zeta),
        ("mellin_closed_vs_direct", _check_mellin),
        ("gram_cross_validation", _check_gram),
        ("structural_identities", _check_structural),
    ):
        ok, detail = fn()
        groups.append({"name": name, "passed": ok, "detail": detail})
    passed = all(g["passed"] for g in groups)
    text = json.dumps({"passed": passed, "groups": groups}, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out is not None:
        _atomic_write(out, text)
    return 0 if passed else 3


# -- argument wiring --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # exit-code contract reserves 2 for computation failures, so argparse
    # flag errors must exit 1 instead of its default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_window(p: argparse.ArgumentParser, j_default: int = 3, k_default: int = 3):
    p.add_argument("--jmax", type=int, default=j_default, help="window bound on j")
    p.add_argument("--kmax", type=int, default=k_default, help="window bound on k")


def _add_quad(p: argparse.ArgumentParser):
    cutoff_use = (
        "; used only by the eps^2 share of smoothed builds and by raw windows "
        f"with a denominator above {_CLOSED_FORM_CAP}, since raw entries come "
        "from an exact closed form"
    )
    p.add_argument(
        "--abs-tol",
        type=float,
        default=DEFAULT_QUAD.abs_tol,
        help="absolute error target that sets the default cutoff x_min = abs_tol/8"
        + cutoff_use,
    )
    p.add_argument(
        "--x-min",
        type=float,
        default=None,
        help="small-x cutoff (default abs_tol/8)" + cutoff_use,
    )
    p.add_argument("--tmax-raw", type=float, default=DEFAULT_QUAD.t_max_raw)


def _add_smoothing(p: argparse.ArgumentParser):
    p.add_argument("--W", type=float, default=5.0, help="Gaussian width")
    p.add_argument("--eps", type=float, default=1.0e-6, help="smoothing floor")


def _add_out(p: argparse.ArgumentParser, default_fmt: str):
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default=default_fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bnladder", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("profile", help="sample ladder profiles f_theta")
    p.add_argument(
        "--theta",
        action="append",
        type=_parse_theta,
        default=None,
        help="theta value (decimal or fraction); repeatable",
    )
    p.add_argument("--points", type=int, default=1000)
    _add_out(p, "csv")

    p = sub.add_parser("ladder", help="enumerate the index window")
    _add_window(p)
    _add_out(p, "csv")

    p = sub.add_parser("gram", help="build a Gram matrix")
    _add_window(p)
    p.add_argument("--kind", choices=("raw", "smoothed"), default="raw")
    p.add_argument("--method", choices=("direct", "spectral", "hybrid"), default="hybrid")
    _add_quad(p)
    _add_smoothing(p)
    _add_out(p, "csv")

    p = sub.add_parser("spectrum", help="critical-line transform moduli")
    p.add_argument("--theta", type=_parse_theta, default=0.5)
    p.add_argument("--tmin", type=float, default=0.1)
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--points", type=int, default=200)
    _add_smoothing(p)
    _add_out(p, "csv")

    p = sub.add_parser("decay", help="shell statistics and decay fit")
    _add_window(p)
    p.add_argument("--kind", choices=("raw", "smoothed"), default="raw")
    p.add_argument("--method", choices=("direct", "spectral", "hybrid"), default="hybrid")
    _add_quad(p)
    _add_smoothing(p)
    p.add_argument("--fit-lo", type=int, default=None)
    p.add_argument("--fit-hi", type=int, default=None)
    p.add_argument(
        "--exclude-zero-row",
        type=_parse_bool,
        default=True,
        metavar="BOOL",
        help="drop pairs involving the identically-zero profile",
    )
    _add_out(p, "json")

    p = sub.add_parser("truncate", help="finite-section truncation bounds")
    _add_window(p)
    p.add_argument("--kind", choices=("raw", "smoothed"), default="smoothed")
    p.add_argument("--method", choices=("direct", "spectral", "hybrid"), default="hybrid")
    _add_quad(p)
    _add_smoothing(p)
    p.add_argument("--bs", type=_parse_int_list, default=(1, 2, 3, 4))
    _add_out(p, "json")

    p = sub.add_parser("selfcheck", help="run the internal consistency suite")
    p.add_argument("--out", default=None, help="also write the JSON summary here")

    return parser


_DEFAULT_PROFILE_THETAS = [0.5, 1.0 / 3.0, 1.0 / 6.0]


def _dispatch(args: argparse.Namespace) -> int:
    sc = args.subcommand
    if sc == "profile":
        thetas = args.theta if args.theta else list(_DEFAULT_PROFILE_THETAS)
        return cmd_profile(thetas, args.points, args.out, args.format)
    if sc == "ladder":
        return cmd_ladder(IndexWindow(args.jmax, args.kmax), args.out, args.format)
    if sc == "gram":
        smoothing = _smoothing_from(args) if args.kind == "smoothed" else None
        return cmd_gram(
            IndexWindow(args.jmax, args.kmax),
            args.kind,
            args.method,
            _quad_from(args),
            args.out,
            args.format,
            smoothing,
        )
    if sc == "spectrum":
        if not (0.0 < args.tmin < args.tmax) or args.points < 2:
            raise ParameterError(
                "spectrum needs 0 < tmin < tmax and at least two grid points"
            )
        ts = np.geomspace(args.tmin, args.tmax, args.points)
        return cmd_spectrum(args.theta, ts, _smoothing_from(args), args.out, args.format)
    if sc == "decay":
        if (args.fit_lo is None) != (args.fit_hi is None):
            raise ParameterError("--fit-lo and --fit-hi must be given together")
        fit_range = None if args.fit_lo is None else (args.fit_lo, args.fit_hi)
        smoothing = _smoothing_from(args) if args.kind == "smoothed" else None
        return cmd_decay(
            IndexWindow(args.jmax, args.kmax),
            args.kind,
            args.method,
            _quad_from(args),
            fit_range,
            args.out,
            args.format,
            smoothing,
            args.exclude_zero_row,
        )
    if sc == "truncate":
        smoothing = _smoothing_from(args) if args.kind == "smoothed" else None
        return cmd_truncate(
            IndexWindow(args.jmax, args.kmax),
            smoothing,
            args.bs,
            args.out,
            args.format,
            kind=args.kind,
            method=args.method,
            quad=_quad_from(args),
        )
    if sc == "selfcheck":
        return cmd_selfcheck(args.out)
    raise AssertionError(f"unhandled subcommand {sc!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except ParameterError as exc:
        print(f"bnladder: error: {exc}", file=sys.stderr)
        return 1
    except BNLadderError as exc:
        print(f"bnladder: computation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bnladder: I/O failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

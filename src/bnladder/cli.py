"""Command-line front end: deterministic CSV/JSON emission of every report.

Each subparser is bound to its handler by ``set_defaults(run=...)``; a
handler takes the parsed namespace and returns the exit code.  ``gram``,
``decay`` and ``truncate`` declare their window, kind, method, quadrature
and smoothing flags through one group (:func:`_add_gram`) and get their
matrix from one call (:func:`_gram`).

Each handler validates its flags, computes everything in memory, and
only then writes its output files through :func:`bnladder.io.write_all`:
every file goes to its own temp file first and all are renamed together,
so a failure leaves none of them (and no temp file) behind.  All rows
are formatted by :mod:`bnladder.io`: floats with ``%.17g``, LF line
endings, sorted JSON keys; identical flags give byte-identical files.

Exit codes: 0 success, 1 validation error, 2 computation failure,
3 selfcheck failure.
"""

from __future__ import annotations

import argparse
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
from .gram import (
    _ROUTES,
    GramMatrix,
    build_gram,
    cross_validate,
    gram_to_csv,
    gram_to_json,
)
from .io import csv_text, json_rows, json_text, write_all
from .ladder import IndexWindow, check_injectivity, lambda_mu, shell, theta_of
from .mellin import SmoothingParams, mellin_closed, mellin_closed_grid, mellin_direct, psi
from .zeta import zeta_selfcheck

__all__ = ["main"]


def _sibling(path: str, tag: str, ext: str | None = None) -> str:
    base, old_ext = os.path.splitext(path)
    return base + "." + tag + (old_ext if ext is None else ext)


def _write_rows(out: str, fmt: str, schema: str, header, columns) -> None:
    """Write one table as CSV (see :func:`bnladder.io.csv_text`) or JSON rows."""
    if fmt == "json":
        write_all({out: json_rows(schema, header, columns)})
    else:
        write_all({out: csv_text(header, columns)})


# -- flag parsing helpers -------------------------------------------------


def _parse_theta(text: str) -> float:
    """Accept a decimal or a fraction like 1/12."""
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        try:
            num = int(num_s)
            value = num / int(den_s)
        except ZeroDivisionError as exc:
            raise argparse.ArgumentTypeError("fraction with zero denominator") from exc
        except (ValueError, OverflowError) as exc:  # overflow: the quotient exceeds a float
            raise argparse.ArgumentTypeError(f"bad fraction {text!r}") from exc
        if value == 0.0 and num != 0:
            raise argparse.ArgumentTypeError(f"fraction {text!r} underflows to 0")
        return value
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad theta {text!r}") from exc
    if value == 0.0:
        from decimal import Decimal  # here only, so that CLI start-up does not pay for it

        if Decimal(text) != 0:
            raise argparse.ArgumentTypeError(f"theta {text!r} underflows to 0")
    return value


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


# -- subcommand handlers ----------------------------------------------------

_DEFAULT_PROFILE_THETAS = (0.5, 1.0 / 3.0, 1.0 / 6.0)


def run_profile(args: argparse.Namespace) -> int:
    """Sample each profile on a half-offset equispaced grid."""
    thetas = args.theta or _DEFAULT_PROFILE_THETAS
    if args.points < 1:
        raise ParameterError(f"n_points must be positive, got {args.points}")
    xs = (np.arange(args.points) + 0.5) / args.points
    columns = [
        np.repeat(np.asarray(thetas, dtype=np.float64), args.points),
        np.tile(xs, len(thetas)),
        np.concatenate([eval_f(theta, xs) for theta in thetas]),
    ]
    _write_rows(args.out, args.format, "bnladder.profile/1", ("theta", "x", "f"), columns)
    return 0


def run_ladder(args: argparse.Namespace) -> int:
    window = IndexWindow(args.jmax, args.kmax)
    rows = [(p.index.j, p.index.k, p.theta, p.log_theta) for p in window.points()]
    header = ("j", "k", "theta", "log_theta")
    _write_rows(args.out, args.format, "bnladder.ladder/1", header, list(zip(*rows)))
    return 0


def _gram(args: argparse.Namespace) -> GramMatrix:
    """Build the Gram matrix the flags of :func:`_add_gram` describe."""
    smoothing = SmoothingParams(W=args.W, epsilon=args.eps) if args.kind == "smoothed" else None
    return build_gram(
        IndexWindow(args.jmax, args.kmax),
        kind=args.kind,
        method=args.method,
        smoothing=smoothing,
        quad=QuadratureConfig(x_min=args.x_min, t_max_raw=args.tmax_raw),
    )


def _normalized(g: GramMatrix) -> tuple[np.ndarray, np.ndarray]:
    """G_ij / sqrt(G_ii G_jj) and its validity mask (both diagonals > 0);
    invalid entries are 0 and the valid diagonal is exactly 1, not
    d / sqrt(d * d) roundoff.  Where G_ii G_jj falls below the least
    normal double (deep windows), the scale is sqrt(G_ii) sqrt(G_jj)
    instead, which neither underflows nor loses digits."""
    diag = np.diag(g.entries)
    pos = diag > 0.0
    ok = pos[:, None] & pos[None, :]
    safe = np.where(pos, diag, 1.0)
    prod, root = np.outer(safe, safe), np.sqrt(safe)
    scale = np.where(prod >= np.finfo(np.float64).tiny, np.sqrt(prod), np.outer(root, root))
    vals = np.where(ok, g.entries / scale, 0.0)
    vals[np.diag_indices_from(vals)] = np.where(pos, 1.0, 0.0)
    return vals, ok


def run_gram(args: argparse.Namespace) -> int:
    """Write the Gram serialization plus its normalized variant."""
    g = _gram(args)
    vals, ok = _normalized(g)
    header = ("j", "k", "j2", "k2", "value", "normalized")
    columns = [*g._pair_columns, vals.ravel(), ok.ravel()]
    if args.format == "json":
        texts = gram_to_json(g), json_rows("bnladder.gram_normalized/1", header, columns)
    else:
        texts = gram_to_csv(g), csv_text(header, columns)
    write_all(dict(zip((args.out, _sibling(args.out, "normalized")), texts)))
    return 0


def run_spectrum(args: argparse.Namespace) -> int:
    if not (0.0 < args.tmin < args.tmax < np.inf) or args.points < 2:
        raise ParameterError("spectrum needs 0 < tmin < tmax and at least two grid points")
    ts = np.geomspace(args.tmin, args.tmax, args.points)
    smoothing = SmoothingParams(W=args.W, epsilon=args.eps)
    if np.any(ts <= 0.0) or np.any(np.diff(ts) <= 0.0):
        raise ParameterError("--tmin and --tmax are too close for --points ascending grid points")
    abs_m = np.abs(mellin_closed_grid(args.theta, ts))
    header = ("t", "abs_M", "abs_M_smoothed")
    columns = [ts, abs_m, psi(ts, smoothing) * abs_m]
    _write_rows(args.out, args.format, "bnladder.spectrum/1", header, columns)
    return 0


def run_decay(args: argparse.Namespace) -> int:
    """Write the decay report JSON and the shell-statistics CSV."""
    if (args.fit_lo is None) != (args.fit_hi is None):
        raise ParameterError("--fit-lo and --fit-hi must be given together")
    fit_range = None if args.fit_lo is None else (args.fit_lo, args.fit_hi)
    rep = decay_report(_gram(args), fit_range=fit_range, exclude_zero_row=args.exclude_zero_row)
    report_json = decay_report_to_json(rep)
    shells_csv = shells_to_csv(rep.shells)
    if args.format == "csv":
        write_all({args.out: shells_csv, _sibling(args.out, "report", ".json"): report_json})
    else:
        write_all({args.out: report_json, _sibling(args.out, "shells", ".csv"): shells_csv})
    return 0


def run_truncate(args: argparse.Namespace) -> int:
    suite = truncation_suite(_gram(args), args.bs)
    if args.format == "csv":
        header = ("B", "schur_bound", "empirical_opnorm")
        rows = [(r.B, r.schur_bound, r.empirical_opnorm) for r in suite.reports]
        write_all({args.out: csv_text(header, list(zip(*rows)))})
    else:
        write_all({args.out: truncation_suite_to_json(suite)})
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
        # one sweep per theta serves all four ordinates
        direct = mellin_direct(theta, np.array(_MELLIN_CHECK_TS)).tolist()
        for t, d in zip(_MELLIN_CHECK_TS, direct):
            closed = mellin_closed(theta, t)
            worst = max(worst, abs(closed - d) / max(1.0, abs(closed)))
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
    if max(abs(lam - (a.log_theta - b.log_theta)), abs(mu - (a.log_theta + b.log_theta))) > 1e-15:
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


def run_selfcheck(args: argparse.Namespace) -> int:
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
    text = json_text({"passed": passed, "groups": groups})
    sys.stdout.write(text)
    if args.out is not None:
        write_all({args.out: text})
    return 0 if passed else 3


# -- argument wiring --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # exit-code contract reserves 2 for computation failures, so argparse
    # flag errors must exit 1 instead of its default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_window(p: argparse.ArgumentParser):
    p.add_argument("--jmax", type=int, default=3, help="window bound on j")
    p.add_argument("--kmax", type=int, default=3, help="window bound on k")


def _add_smoothing(p: argparse.ArgumentParser):
    p.add_argument("--W", type=float, default=5.0, help="Gaussian width")
    p.add_argument("--eps", type=float, default=1.0e-6, help="smoothing floor")


def _add_gram(p: argparse.ArgumentParser, kind_default: str):
    """The flags :func:`_gram` reads: window, kind, method, quadrature, smoothing."""
    _add_window(p)
    p.add_argument("--kind", choices=tuple(_ROUTES), default=kind_default)
    methods = "; ".join(f"{kind}: {' or '.join(r)}" for kind, r in _ROUTES.items())
    p.add_argument(
        "--method",
        choices=tuple(m for routes in _ROUTES.values() for m in routes),
        default=None,
        help=f"{methods} (the first is the default)",
    )
    p.add_argument(
        "--x-min",
        type=float,
        default=None,
        help="small-x cutoff (default 1e-6/8), read only by windows with a denominator above "
        f"{_CLOSED_FORM_CAP}: raw builds cut there, the eps^2 share of smoothed ones at "
        "x_min/eps^2 clamped to [x_min, 0.25]",
    )
    tmax_help = "truncation height of raw spectral builds, at least 10"
    p.add_argument("--tmax-raw", type=float, default=DEFAULT_QUAD.t_max_raw, help=tmax_help)
    _add_smoothing(p)


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
    p.set_defaults(run=run_profile)

    p = sub.add_parser("ladder", help="enumerate the index window")
    _add_window(p)
    _add_out(p, "csv")
    p.set_defaults(run=run_ladder)

    p = sub.add_parser("gram", help="build a Gram matrix")
    _add_gram(p, "raw")
    _add_out(p, "csv")
    p.set_defaults(run=run_gram)

    p = sub.add_parser("spectrum", help="critical-line transform moduli")
    p.add_argument("--theta", type=_parse_theta, default=0.5)
    p.add_argument("--tmin", type=float, default=0.1)
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--points", type=int, default=200)
    _add_smoothing(p)
    _add_out(p, "csv")
    p.set_defaults(run=run_spectrum)

    p = sub.add_parser("decay", help="shell statistics and decay fit")
    _add_gram(p, "raw")
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
    p.set_defaults(run=run_decay)

    p = sub.add_parser("truncate", help="finite-section truncation bounds")
    _add_gram(p, "smoothed")
    p.add_argument("--bs", type=_parse_int_list, default=(1, 2, 3, 4))
    _add_out(p, "json")
    p.set_defaults(run=run_truncate)

    p = sub.add_parser("selfcheck", help="run the internal consistency suite")
    p.add_argument("--out", default=None, help="also write the JSON summary here")
    p.set_defaults(run=run_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
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

"""Command-line surface: compute, verify, and export.

Subcommands
-----------
coeffs      coefficient tables of the base family or a type I vector
verify      residual suites (orthogonality, recurrence, ode, lowering,
            raising, zeros) over n = 1..n-max
zeros       sorted zeros of the base polynomial
recurrence  nearest-neighbor coefficient table with the n -> inf limits
density     limit density u_r and CDF F_r on an interior x grid
figure2     the five density curves r = 1..5 as CSV plus a standalone SVG

Conventions: data on stdout, diagnostics on stderr; CSV has a mandatory
header (`k,re,im` for coefficients, `x,u,F` for curves); floats carry 17
significant digits and round-trip exactly; `--format json` wraps the payload
in a record with schema_version "1".

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 degree-cap or
resource error.  ``main`` alone maps a command's usage error (one private
exception) and the library's documented exceptions to them, each reported
as one `error:` line on stderr: a usage error -> 2; `DegenerateParameters` (a
formula singular at the exact parameter values given) -> 2; `DegreeCapError`
and `DoubleRangeError` (a value outside the double range) -> 3;
`ZeroFindingError` (zeros that cannot be isolated or certified) -> 1.  A
size that does not fit in memory (`MemoryError`) exits 3 with one `error:`
line, and so does an output that cannot be written: an
`--svg` file, or a stdout whose reader has gone (`BrokenPipeError`, as
under `| head -1`).  ``main`` flushes stdout before it returns, so a closed
pipe fails there, and then points the descriptor at the null device, so
the flush at exit prints no traceback.  `verify --suite zeros` counts a
level whose zeros cannot be certified as failed (residual inf).

``main`` parses with one parser built on its first call and reused for the
life of the process; ``build_parser`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .asymptotics import density_curve
from .numerics import DegenerateParameters, DoubleRangeError
from .operators import lowering_check, ode_coeffs, ode_residual, raising_check
from .orthogonality import verify_level
from .polynomials import (
    DegreeCapError,
    Params,
    base_poly,
    type1_diagonal,
    type1_down,
    type1_up,
)
from .recurrence import coeff_a, coeff_b, limit_a, limit_b, recurrence_residuals
from .zeros import ZeroFindingError, find_zeros

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_USAGE = 2
_EXIT_CAP = 3


def _fmt(v):
    return f"{v:.17g}"


def _to_json(obj):
    # deterministic JSON with 17-significant-digit floats (the stdlib encoder
    # cannot be told how to print floats)
    if isinstance(obj, dict):
        inner = ",".join(f"{_to_json(k)}:{_to_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit_record(args, payload):
    record = {
        "schema_version": "1",
        "command": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "payload": payload,
    }
    sys.stdout.write(_to_json(record) + "\n")


def _emit_table(args, kind, columns, rows, csv_body=None):
    # the rows under their CSV header, or one JSON record; csv_body, when
    # given, is the rows already written as CSV
    if args.format == "json":
        _emit_record(args, {"kind": kind, "columns": columns, "rows": rows})
        return
    if csv_body is None:
        csv_body = "".join(
            ",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row) + "\n"
            for row in rows
        )
    sys.stdout.write(",".join(columns) + "\n" + csv_body)


class _UsageError(Exception):
    """An argument the command cannot take; ``main`` prints it as one
    `error:` line and exits 2."""


def _usage_fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return _EXIT_USAGE


def _params(args):
    if args.r < 1:
        raise _UsageError("--r must be an integer >= 1")
    if not (math.isfinite(args.alpha) and args.alpha > -1.0):
        raise _UsageError("--alpha must be finite and > -1")
    if not (math.isfinite(args.beta) and args.beta > -1.0):
        raise _UsageError("--beta must be finite and > -1")
    return Params(args.r, args.alpha, args.beta)


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def _cmd_coeffs(args):
    params = _params(args)
    fam = args.family
    if fam in ("up", "down") and args.k is None:
        raise _UsageError(f"--family {fam} requires --k (ray index 1..r)")
    if fam in ("up", "down") and not 1 <= args.k <= args.r:
        raise _UsageError(f"--k must lie in 1..{args.r}")
    if fam in ("base", "diag") and args.k is not None:
        raise _UsageError(f"--family {fam} does not take --k")
    if fam in ("base", "up") and args.n < 0:
        raise _UsageError(f"--n must be >= 0 for the {fam} family")
    if fam == "diag" and args.n < 1:
        raise _UsageError("--n must be >= 1 for the diagonal family")
    if fam == "down" and args.n < 1:
        raise _UsageError("--n must be >= 1 for the down family")

    if fam == "base":
        table, columns = [base_poly(args.n, params)], ["k", "re", "im"]
    else:
        builder = {"diag": type1_diagonal, "up": type1_up, "down": type1_down}[fam]
        v = builder(args.n, params) if fam == "diag" else builder(args.n, args.k, params)
        table, columns = v.coeffs, ["ray", "k", "re", "im"]
    # each row up to its last nonzero coefficient (at least one); a row with
    # no nonzero imaginary part prints +0 there.  The base table is one
    # polynomial and has no ray column.
    rows = []
    for j, c in enumerate(table, start=1):
        live = np.flatnonzero(c)
        c = c[: live[-1] + 1 if live.size else 1]
        im = c.imag.tolist() if c.imag.any() else [0.0] * len(c)
        rows.extend(
            (j, k, re, im_k)[-len(columns):]
            for k, (re, im_k) in enumerate(zip(c.real.tolist(), im))
        )
    _emit_table(args, "coefficients", columns, rows)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _ortho_residual_level(n, params, tol):
    # one oracle call per level, on the constructors' memoized stacks
    worst = 0.0
    for rep in verify_level(n, params, tol):
        worst = max(worst, rep.max_ortho_residual, rep.norm_residual)
    return worst


def _cmd_verify(args):
    params = _params(args)
    if args.n_max < 1:
        raise _UsageError("--n-max must be >= 1")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise _UsageError("--tol must be finite and >= 0")
    suite = args.suite
    if suite in ("recurrence",) and params.r < 2:
        raise _UsageError("the recurrence suite needs --r >= 2")
    if suite == "raising" and not (
        params.alpha > params.r - 1 and params.beta > params.r - 1
    ):
        raise _UsageError("the raising suite needs alpha, beta > r-1")

    def residual_for(n):
        if suite == "orthogonality":
            return _ortho_residual_level(n, params, args.tol)
        if suite == "recurrence":
            return max(recurrence_residuals(n, params))
        if suite == "ode":
            return ode_residual(ode_coeffs(n, params))
        if suite == "lowering":
            return lowering_check(n, params)
        if suite == "raising":
            return raising_check(n, params)
        if suite == "zeros":
            # a level whose zeros cannot be certified fails; the suite goes on
            try:
                return float(find_zeros(n, params).residuals.max())
            except ZeroFindingError as e:
                print(f"n={n}: {e}", file=sys.stderr)
                return float("inf")
        raise AssertionError(suite)

    all_pass = True
    for n in range(1, args.n_max + 1):
        res = residual_for(n)
        ok = res <= args.tol
        all_pass = all_pass and ok
        print(f"suite={suite} n={n} worst_residual={_fmt(res)} {'pass' if ok else 'FAIL'}")
    print(f"suite={suite} overall={'pass' if all_pass else 'FAIL'}")
    return _EXIT_OK if all_pass else _EXIT_VERIFY


# ---------------------------------------------------------------------------
# zeros / recurrence / density / figure2
# ---------------------------------------------------------------------------


def _cmd_zeros(args):
    params = _params(args)
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    zs = find_zeros(args.n, params)
    if args.format == "csv":
        sys.stdout.write("i,x\n")
        for i, x in enumerate(zs.zeros, start=1):
            sys.stdout.write(f"{i},{_fmt(float(x))}\n")
    else:
        payload = {
            "kind": "zeros",
            "n": zs.n,
            "precision": zs.precision,
            "zeros": [float(x) for x in zs.zeros],
        }
        _emit_record(args, payload)
    return _EXIT_OK


def _cmd_recurrence(args):
    params = _params(args)
    if params.r < 2:
        raise _UsageError("the recurrence table needs --r >= 2 (b is undefined at r=1)")
    if args.n_max < 1:
        raise _UsageError("--n-max must be >= 1")
    la, lb = limit_a(params.r), limit_b(params.r)
    rows = [
        (n, coeff_a(n, params), coeff_b(n, params), la, lb)
        for n in range(1, args.n_max + 1)
    ]
    _emit_table(args, "table", ["n", "a", "b", "a_limit", "b_limit"], rows)
    return _EXIT_OK


def _rows(curve):
    # the (x, u, F) rows of a curve, one per sample
    return np.column_stack((curve.x, curve.u, curve.F))


def _csv_rows(curve, lead=""):
    # every row of a curve after `lead`, each value as _fmt writes it, in one
    # format call over the interleaved columns
    rows = _rows(curve)
    return (lead + "%.17g,%.17g,%.17g\n") * len(rows) % tuple(rows.ravel().tolist())


def _cmd_density(args):
    if args.r < 1:
        raise _UsageError("--r must be an integer >= 1")
    if args.samples < 1:
        raise _UsageError("--samples must be >= 1")
    try:
        curve = density_curve(args.r, args.samples, spacing="x")
    except ValueError as e:
        raise _UsageError(str(e)) from None
    _emit_table(args, "curve", ["x", "u", "F"], _rows(curve).tolist(), _csv_rows(curve))
    return _EXIT_OK


_SVG_STROKES = ("#000000", "#c22222", "#2255cc", "#1f8f4d", "#8844bb")


def _svg_figure(curves):
    # hand-emitted polyline SVG: axes, five curves clipped at u = 3, small legend
    width, height, ymax = 640, 440, 3.0
    ml, mr, mt, mb = 56.0, 16.0, 16.0, 44.0
    pw, ph = width - ml - mr, height - mt - mb

    def sx(x):
        return ml + pw * x

    def sy(y):
        return mt + ph * (1.0 - min(y, ymax) / ymax)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<line x1="{_fmt(ml)}" y1="{_fmt(mt + ph)}" x2="{_fmt(ml + pw)}" '
        f'y2="{_fmt(mt + ph)}" stroke="#333333" stroke-width="1"/>',
        f'<line x1="{_fmt(ml)}" y1="{_fmt(mt)}" x2="{_fmt(ml)}" '
        f'y2="{_fmt(mt + ph)}" stroke="#333333" stroke-width="1"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{_fmt(sx(tick))}" y="{_fmt(mt + ph + 18.0)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{tick:g}</text>'
        )
    for tick in (0.0, 1.0, 2.0, 3.0):
        parts.append(
            f'<text x="{_fmt(ml - 8.0)}" y="{_fmt(sy(tick) + 4.0)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{tick:g}</text>'
        )
    for i, curve in enumerate(curves):
        pts = " ".join(
            f"{_fmt(sx(float(x)))},{_fmt(sy(float(u)))}"
            for x, u in zip(curve.x, curve.u)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{_SVG_STROKES[i]}" '
            f'stroke-width="1.4"/>'
        )
        parts.append(
            f'<text x="{_fmt(ml + pw - 60.0)}" y="{_fmt(mt + 16.0 + 15.0 * i)}" '
            f'font-size="12" font-family="sans-serif" fill="{_SVG_STROKES[i]}">'
            f"r = {curve.r}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_figure2(args):
    if args.samples < 10:
        raise _UsageError("--samples must be >= 10")
    curves = [density_curve(r, args.samples, spacing="theta") for r in range(1, 6)]
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(_svg_figure(curves))
        except OSError as e:
            print(f"error: cannot write --svg {args.svg}: {e.strerror or e}", file=sys.stderr)
            return _EXIT_CAP
        print(f"wrote {args.svg}", file=sys.stderr)
    sys.stdout.write("r,x,u,F\n")
    for curve in curves:
        sys.stdout.write(_csv_rows(curve, f"{curve.r},"))
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="angelesco",
        description="Type I multiple orthogonal polynomials on the r-star.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--r", type=int, required=True, help="ray count, >= 1")
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--beta", type=float, default=0.0)

    p = sub.add_parser("coeffs", help="coefficient tables")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("base", "diag", "up", "down"), default="base")
    p.add_argument("--k", type=int, default=None, help="ray index for up/down")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="residual verification suites")
    p.add_argument(
        "--suite",
        choices=("orthogonality", "recurrence", "ode", "lowering", "raising", "zeros"),
        required=True,
    )
    add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("zeros", help="zeros of the base polynomial")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("recurrence", help="recurrence coefficient table")
    add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("density", help="limit density curve")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--samples", type=int, default=99)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("figure2", help="five density curves r=1..5 (CSV + SVG)")
    p.add_argument("--samples", type=int, default=2001, help="points per curve")
    p.add_argument("--svg", default="figure2.svg", help="SVG output path ('' to skip)")
    p.set_defaults(func=_cmd_figure2)

    return ap


@lru_cache(maxsize=1)
def _shared_parser():
    # parse_args builds a new Namespace on every call and leaves the parser
    # as it was, the _cmd_* handlers look library functions up as module
    # globals when they run, and argparse reads sys.stdout / sys.stderr
    # when it prints, so one parser serves every call of main
    return build_parser()


def main(argv=None):
    ap = _shared_parser()
    try:
        try:
            args = ap.parse_args(argv)
        except SystemExit as e:
            # argparse exits 2 on usage errors already
            code = int(e.code) if e.code is not None else _EXIT_USAGE
        else:
            # the one map from the library's documented exceptions to exit codes
            try:
                code = args.func(args)
            except _UsageError as e:
                code = _usage_fail(e)
            except DegenerateParameters as e:
                code = _usage_fail(f"degenerate parameters: {e}")
            except (DoubleRangeError, DegreeCapError, ZeroFindingError) as e:
                print(f"error: {e}", file=sys.stderr)
                code = _EXIT_VERIFY if isinstance(e, ZeroFindingError) else _EXIT_CAP
            except MemoryError as e:
                print(f"error: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
                code = _EXIT_CAP
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError as e:
        # stdout's reader is gone: an output that cannot be written.  The
        # descriptor now points at devnull, so flushing what is left in the
        # buffer at exit stays silent
        print(f"error: cannot write stdout: {e.strerror or e}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_CAP
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Seeded fuzz of ``cli.main``: no argv makes it raise or print a traceback,
and a ``recurrence`` table that exits 0 holds only finite values.

The grammar covers every subcommand with small counts, ray counts up to 65
for ``density``, exponents at the edges of their domain (just above -1,
-1 itself, 300, nan, +-inf, a non-number), and counts of 0 and -1.
Arguments whose runs take seconds at larger n (alpha or beta at 1e5 or
1e300, and r in the hundreds) are covered by explicit examples with small
counts, not by random draws.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from angelesco.cli import main

# each option draws from its valid values, mostly, or from its edge values
# (invalid or at the edge of the domain), or is left out, so required ones
# also exercise usage errors
_OPTIONS = {
    "r": (["1", "2", "3", "5"], ["-1", "0"]),
    "density-r": (["1", "2", "5", "64"], ["-1", "0", "65"]),
    "alpha": (["-0.999999999999", "-0.5", "0", "0.7", "2", "300"], ["-1", "nan", "inf", "-inf", "x"]),
    "n": (["1", "2", "3", "8"], ["-1", "0"]),
    "samples": (["2", "5"], ["-1", "0", "1"]),
    "figure2-samples": (["10", "12"], ["-1", "0", "9"]),
    "tol": (["1e-9", "1e-30"], ["0", "-1", "nan"]),
    "suite": (["orthogonality", "recurrence", "ode", "lowering", "raising", "zeros"], ["x"]),
    "family": (["base", "diag", "up", "down"], ["x"]),
    "k": (["1", "2"], ["-1", "0", "9"]),
    "format": (["csv", "json"], ["x"]),
}
_OPTIONS["beta"] = _OPTIONS["alpha"]
_OPTIONS["n-max"] = _OPTIONS["n"]
_KIND = st.sampled_from(["valid"] * 8 + ["edge", "omit"])

# CSV headers by subcommand; coefficient tables of vectors add a ray column
_HEADERS = {
    "coeffs": ("k,re,im", "ray,k,re,im"),
    "zeros": ("i,x",),
    "recurrence": ("n,a,b,a_limit,b_limit",),
    "density": ("x,u,F",),
    "figure2": ("r,x,u,F",),
}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(list(_HEADERS) + ["verify"]))
    opts = []

    def maybe(name, key=None):
        valid, edge = _OPTIONS[key or name]
        kind = draw(_KIND)
        if kind != "omit":
            value = draw(st.sampled_from(valid if kind == "valid" else edge))
            opts.append(f"--{name}={value}")
            return value
        return None

    if cmd in ("coeffs", "verify", "zeros", "recurrence"):
        for name in ("r", "alpha", "beta"):
            maybe(name)
    if cmd == "coeffs":
        maybe("n")
        if maybe("family") in ("up", "down") or draw(_KIND) == "edge":
            maybe("k")
    elif cmd == "verify":
        for name in ("suite", "n-max", "tol"):
            maybe(name)
    elif cmd == "zeros":
        maybe("n")
    elif cmd == "recurrence":
        maybe("n-max")
    elif cmd == "density":
        maybe("r", "density-r")
        maybe("samples")
    else:
        maybe("samples", "figure2-samples")
        opts.append("--svg=")
    if cmd not in ("verify", "figure2"):
        maybe("format")
    return [cmd] + draw(st.permutations(opts))


def _check_output(argv, out):
    if argv[0] == "verify":
        assert out.splitlines()[-1].endswith("overall=pass")
        return
    if "--format=json" in argv:
        record = json.loads(out)
        assert record["schema_version"] == "1"
        rows = record["payload"].get("rows", [])
    else:
        header, *rows = csv.reader(io.StringIO(out))
        assert ",".join(header) in _HEADERS[argv[0]]
        assert all(len(row) == len(header) for row in rows)
    if argv[0] == "recurrence":
        # a table exits 0 only with finite coefficients
        assert all(math.isfinite(float(v)) for row in rows for v in row), argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=["zeros", "--r=2", "--alpha=1e300", "--beta=1e300", "--n=1"])
@example(argv=["zeros", "--r=2", "--alpha=1e300", "--n=2"])
@example(argv=["zeros", "--r=3", "--alpha=1e5", "--beta=1e5", "--n=2"])
@example(argv=["coeffs", "--r=2", "--alpha=1e300", "--beta=1e300", "--n=2", "--family=up"])
@example(argv=["verify", "--suite=recurrence", "--r=143", "--n-max=1"])
@example(argv=["zeros", "--r=200", "--n=2", "--format=json"])
@example(argv=["coeffs", "--r=2", "--n=-1", "--family=up", "--k=1"])
@example(argv=["recurrence", "--r=2", "--alpha=1e300", "--n-max=2"])
@example(argv=["recurrence", "--r=3", "--beta=1e300", "--n-max=2"])
@example(argv=["recurrence", "--r=3", "--alpha=1e17", "--n-max=2"])
def test_main_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _check_output(argv, out.getvalue())

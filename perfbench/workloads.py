"""The four workloads: seeded item lists and the code that runs one item.

Every workload is a closed loop with one client: the next item starts when
the previous one has returned.  Items are drawn in cycles of 25.  A cycle
always holds the same strata (ray counts, degree levels, suites, sample
counts); the seed draws the parameters inside each stratum and the order,
so every seed gives the same work mix and runs of whole cycles compare.
CLI items go through ``angelesco.cli.main(argv)`` with stdout captured;
``call`` items call the asymptotics API directly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks

CRITERION1_GRID = (-0.5, 0.0, 0.7, 2.0)
CRITERION5_PAIRS = ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0))
CRITERION3_PAIRS = ((0.0, 0.0), (0.7, -0.5))
# the tolerance tests/test_acceptance.py pins for each verify suite
SUITE_TOL = {
    "orthogonality": "1e-9",
    "recurrence": "1e-9",
    "ode": "1e-8",
    "lowering": "1e-13",
    "raising": "1e-11",
}
PERRON_GRID = tuple(float(x) for x in np.linspace(0.05, 0.95, 50))  # criterion 7
PERRON_R = (2, 3, 4)  # criterion 7
CUT_X = tuple(round(0.05 * i, 2) for i in range(1, 20))
CUT_EPS = tuple(10.0 ** -k for k in range(1, 9))


@dataclass(frozen=True)
class Item:
    """One unit of work: a CLI argv (``kind="cli"``) or a direct API call
    ``(function, argument)`` (``kind="call"``)."""

    kind: str
    args: tuple

    @property
    def label(self):
        if self.kind == "cli":
            return " ".join(self.args)
        return f"{self.args[0]}({', '.join(map(repr, self.args[1:]))})"


def _num(v):
    return f"{v:g}"


def _verify(suite, r, a, b, n_max):
    return Item("cli", (
        "verify", "--suite", suite, "--r", str(r), "--alpha", _num(a),
        "--beta", _num(b), "--n-max", str(n_max), "--tol", SUITE_TOL[suite],
    ))


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

ORTHO_LEVELS = (12, 12, 12, 12, 24)  # per r: four small, one large n-max


def ortho_cycle(rng):
    """r = 1..5, each at four small and one large n-max; (alpha, beta) drawn
    from the criterion-1 grid."""
    return [
        _verify("orthogonality", r, rng.choice(CRITERION1_GRID),
                rng.choice(CRITERION1_GRID), n_max)
        for r in range(1, 6)
        for n_max in ORTHO_LEVELS
    ]


ZERO_DOUBLE_STRATA = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12))
# nineteen fixed degrees over 13..60, dense near the n = 13 switch and sparse
# near the cap, so one cycle stays a few seconds long.  They are fixed, not
# drawn, because an extended-path item's cost grows like n^2, and repeated so
# that the 50th and 90th percentiles of a run fall inside the n = 16 and
# n = 40 groups rather than on a single item.
ZERO_EXTENDED_N = (13, 13, 13, 13, 16, 16, 16, 16, 16, 18, 20, 22, 25, 28, 32, 40, 40, 40, 60)


def zeros_cycle(rng):
    """Six degrees on the double path (drawn inside 1..12), nineteen on the
    extended path (13..60); r and (alpha, beta) drawn from the criterion-5
    cases."""
    degrees = [rng.randint(lo, hi) for lo, hi in ZERO_DOUBLE_STRATA] + list(ZERO_EXTENDED_N)
    items = []
    for n in degrees:
        a, b = rng.choice(CRITERION5_PAIRS)
        items.append(Item("cli", (
            "zeros", "--r", str(rng.randint(1, 5)), "--alpha", _num(a),
            "--beta", _num(b), "--n", str(n),
        )))
    return items


def identity_cycle(rng):
    """Per cycle and r = 2..5: the recurrence at n-max 8 (the pinned 1e-9
    fails there, a known defect kept visible), the ODE three times at n-max
    12 (both of its paths) and the raising identity; plus five lowering
    checks.  Degrees are fixed, since they set an item's cost."""
    items = []
    for r in range(2, 6):
        items.append(_verify("recurrence", r, *rng.choice(CRITERION3_PAIRS), 8))
        for _ in range(3):
            items.append(_verify("ode", r, *rng.choice(CRITERION3_PAIRS), 12))
        # the raising identity needs alpha, beta > r-1 (criterion 4's pair)
        items.append(_verify("raising", r, r - 0.5, r + 1.3, 12))
    for _ in range(5):
        items.append(_verify("lowering", rng.randint(2, 5), *rng.choice(CRITERION5_PAIRS), 12))
    return items


def limit_cycle(rng):
    """Fifteen CLI items (five figure2 runs, density twice for every r) and
    ten direct calls (Perron on the criterion-7 grid, branches approaching
    the cut, endpoint exponents); no polynomial code runs."""
    items = [Item("cli", ("figure2", "--samples", "2001", "--svg", ""))] * 5
    items += [Item("cli", ("density", "--r", str(r), "--samples", "999")) for r in range(1, 6)] * 2
    items += [Item("call", ("perron_density", r)) for r in PERRON_R + (rng.choice(PERRON_R),)]
    items += [Item("call", ("endpoint_exponents", rng.randint(1, 5))) for _ in range(3)]
    items += [Item("call", ("cubic_branches_r2", rng.choice(CUT_X))) for _ in range(3)]
    return items


WORKLOADS = {
    "ortho_verify": ortho_cycle,
    "zeros_degree": zeros_cycle,
    "identity_suites": identity_cycle,
    "limit_density": limit_cycle,
}


def cycle(workload, seed, index):
    """Items of cycle ``index`` for ``seed``, in their run order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    items = WORKLOADS[workload](rng)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# running and checking one item
# ---------------------------------------------------------------------------


def _call(name, arg):
    # looked up on the module at call time, so the traced pass sees the
    # rebound functions
    import angelesco.asymptotics as asym

    if name == "perron_density":
        return [asym.perron_density(x, arg) for x in PERRON_GRID]
    if name == "cubic_branches_r2":
        return [asym.cubic_branches_r2(complex(arg, e)) for e in CUT_EPS]
    if name == "endpoint_exponents":
        return asym.endpoint_exponents(arg)
    raise ValueError(f"unknown call {name!r}")


@dataclass
class Outcome:
    """One executed item: latency in seconds, exit code (None on an
    exception), captured stdout, returned value and error text."""

    item: Item
    latency: float
    code: int | None
    stdout: str
    value: object = None
    error: str | None = None
    digest: str | None = None

    @property
    def text(self):
        """What the item produced: stdout for CLI items, the repr of the
        returned value for calls."""
        return self.stdout if self.item.kind == "cli" else repr(self.value)

    def seal(self):
        """Keep only a digest of the output, so stored outcomes stay small."""
        self.digest = hashlib.sha256(self.text.encode()).hexdigest()
        self.stdout, self.value = "", None


def run_item(item, rec=None):
    """Run one item in the timed region.  With a recorder, a CLI item gets a
    ``cli.main`` span around the whole invocation."""
    import angelesco.cli as cli

    out, err = io.StringIO(), io.StringIO()
    code, value, error, span = None, None, None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if item.kind == "cli":
                if rec is not None:
                    span = rec.open("cli.main")
                code = cli.main(list(item.args))
            else:
                value = _call(*item.args)
                code = 0
    except Exception:
        error = traceback.format_exc(limit=-3)
    finally:
        if span is not None:
            rec.close(span)
    latency = time.perf_counter() - t0
    if error is None and err.getvalue():
        error = err.getvalue().strip()
    return Outcome(item, latency, code, out.getvalue(), value, error)


def check_outcome(outcome):
    """Cheap checks of one outcome; raises ``checks.CheckFailed``."""
    item = outcome.item
    if outcome.code is None:
        raise checks.CheckFailed(f"exception: {outcome.error}")
    if item.kind == "cli":
        report = checks.CLI_CHECKS[item.args[0]](item.args, outcome.code, outcome.stdout)
        if report.suite == "orthogonality" and report.failing_levels:
            n = report.failing_levels[0]
            raise checks.CheckFailed("orthogonality level failed", f"n={n}")
        return report
    name, arg = item.args
    if name == "perron_density":
        return checks.Report(deferred=("perron", arg, PERRON_GRID, outcome.value))
    if name == "cubic_branches_r2":
        checks.check_branches(arg, CUT_EPS, outcome.value)
    elif name == "endpoint_exponents":
        checks.check_endpoints(arg, outcome.value)
    return checks.Report()

"""Import the library from the checkout's ``src/`` and warm it up.

Run as a script, this is the set-up probe: a fresh interpreter importing
``angelesco.cli`` and warming up, the cost every CLI invocation of the
library pays, timed as ``setup_s``.  It then prints the median time of the
yardstick loop, taken in the host state the probe ran in, and the time that
took.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingLibrary(RuntimeError):
    """The checkout holds no importable ``angelesco`` under ``src/``."""


def import_library():
    """Put the checkout's ``src/`` first on the path and import the CLI,
    refusing any ``angelesco`` that lives elsewhere."""
    if not (SRC / "angelesco" / "__init__.py").is_file():
        raise MissingLibrary(f"no angelesco package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import angelesco
    import angelesco.cli

    if Path(angelesco.__file__).resolve().parent != SRC / "angelesco":
        raise MissingLibrary(f"angelesco imported from {angelesco.__file__}, not {SRC}")
    return angelesco.cli


def warm_up():
    """Fill the per-r monotonicity probe of the theta inversion and the
    moment and phase caches of the oracle, for r = 1..5."""
    cli = import_library()
    from angelesco.asymptotics import limit_cdf

    with contextlib.redirect_stdout(io.StringIO()):
        for r in range(1, 6):
            limit_cdf(0.5, r)
            cli.main(["verify", "--suite", "orthogonality", "--r", str(r), "--n-max", "3"])


if __name__ == "__main__":
    import statistics
    import time

    from yardstick import reference_s

    warm_up()
    t0 = time.perf_counter()
    ref = statistics.median(reference_s() for _ in range(5))
    print(ref, time.perf_counter() - t0)

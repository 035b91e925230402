"""Child process of the benchmark: one nlwaves CLI invocation, clocked.

    python3 -s perfbench/launch.py SRC RECORD TRACE -- <nlwaves arguments>

SRC is the checkout's ``src`` directory; nlwaves must be imported from it.
RECORD is the JSON file the clock readings are written to.  TRACE is 0 for
an end-to-end run and 1 for a traced run.

With TRACE=0 the only hooks are two clock reads around each
``dynamics.integrate`` and ``lattice.integrate_chain`` call: the first entry
marks the end of set-up, and their summed duration is the stepping time.
The readings use CLOCK_MONOTONIC (``time.monotonic_ns``), which is shared by
all processes, so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def rebind(original, wrapper) -> None:
    """Replace `original` by `wrapper` wherever an nlwaves module binds it.

    Names imported with ``from .spectral import ...`` are bound in the
    importing module too, so patching the defining module alone misses them.
    """
    for name, module in list(sys.modules.items()):
        if name != "nlwaves" and not name.startswith("nlwaves."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class StepClock:
    """Set-up end and stepping time from the integrators' entry and exit."""

    def __init__(self):
        self.first_step_ns = None
        self.step_ns = 0

    def install(self) -> None:
        from nlwaves import dynamics, lattice

        for fn in (dynamics.integrate, lattice.integrate_chain):
            rebind(fn, self._wrap(fn))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            start = time.monotonic_ns()
            if self.first_step_ns is None:
                self.first_step_ns = start
            try:
                return fn(*args, **kwargs)
            finally:
                self.step_ns += time.monotonic_ns() - start

        return clocked

    def record(self) -> dict:
        return {"first_step_ns": self.first_step_ns, "step_ns": self.step_ns}


def main(argv) -> int:
    src, record_path, trace = argv[0], Path(argv[1]), argv[2] == "1"
    if argv[3] != "--":
        sys.stderr.write("usage: launch.py SRC RECORD TRACE -- ARGS...\n")
        return 64
    sys.path.insert(0, src)
    import numpy
    import nlwaves
    from nlwaves import cli

    if Path(src).resolve() not in Path(nlwaves.__file__).resolve().parents:
        sys.stderr.write(f"nlwaves imported from {nlwaves.__file__}, not {src}\n")
        return 65
    if trace:
        from tracer import Tracer

        hooks = Tracer()
    else:
        hooks = StepClock()
    hooks.install()
    code = cli.main(argv[4:])
    record = {"exit": code, "numpy": numpy.__version__, **hooks.record()}
    record_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One recorder for every benchmark suite behind a ``BENCH_*.json``.

A suite is a module of :mod:`repro.bench` with one interface:

``run(seed, count, quick)``
    measures the suite and returns its JSON-ready payload (``quick``
    shrinks every workload to smoke size);
``render(results)``
    the human-readable report of a payload;
``failed_bars(results)``
    every bar a payload misses, one message each;
``SEED``, ``COUNT``, ``JSON``, ``TEXT``
    the full run's workload seed and size, and the names of its two
    artifacts: the payload and the report under ``results/``.

:func:`record_suite` runs one suite, writes both artifacts and only
then returns its failed bars, so a failing run still leaves its
record.  ``repro bench --suite`` and the suites' pytest exhibits both
record through it.

A quick run never writes a full run's artifact: its default paths are
the ``_quick`` sidecars (``BENCH_<suite>_quick.json`` and
``results/<name>_quick.txt``).  An explicit path is written as given.
"""

from __future__ import annotations

import importlib
import json
import os
from typing import List, Optional

#: Every recorded suite by its ``repro bench --suite`` name: the module
#: that implements it, imported on use.
SUITES = {
    "compiled-eval": "repro.bench.perfsuite",
    "struct-cache": "repro.bench.structcache",
    "serve": "repro.bench.servebench",
}


def quick_path(path: str) -> str:
    """The ``_quick`` sidecar of an artifact path."""
    base, ext = os.path.splitext(path)
    return f"{base}_quick{ext}"


def record_suite(
    name: str,
    seed: Optional[int] = None,
    count: Optional[int] = None,
    quick: bool = False,
    json_path: Optional[str] = None,
    text_path: Optional[str] = None,
    root: str = ".",
) -> List[str]:
    """Run suite ``name``, write its payload and report, print the
    report, and return its failed bars.

    ``seed`` and ``count`` default to the suite's full run.  The
    default artifact paths are relative to ``root``: the suite's
    ``JSON`` there and its ``TEXT`` under ``results/``, or their
    ``_quick`` sidecars when ``quick`` is set.
    """
    suite = importlib.import_module(SUITES[name])
    results = suite.run(
        seed=suite.SEED if seed is None else seed,
        count=suite.COUNT if count is None else count,
        quick=quick,
    )
    defaults = [
        os.path.join(root, suite.JSON),
        os.path.join(root, "results", suite.TEXT),
    ]
    if quick:
        defaults = [quick_path(path) for path in defaults]
    json_path = json_path or defaults[0]
    text_path = text_path or defaults[1]
    text = suite.render(results)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.makedirs(os.path.dirname(text_path) or ".", exist_ok=True)
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    print(f"; json written: {json_path}")
    print(f"; text written: {text_path}")
    return suite.failed_bars(results)

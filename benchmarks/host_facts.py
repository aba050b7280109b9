"""The ``host`` block of the BENCH_*.json documents.

It says which machine a benchmark's wall times belong to; the counts
the benchmarks record do not depend on it.  Stdlib only, so every
benchmark script stays importable with the baseline toolchain.
"""

from __future__ import annotations

import os
import platform
from importlib import metadata
from typing import Any, Dict, Sequence


def host_facts(packages: Sequence[str] = ("numpy",)) -> Dict[str, Any]:
    """CPU count, the Python version, and the version of each of
    *packages* (None when it is not installed)."""
    facts: Dict[str, Any] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    for package in packages:
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = None
    return facts

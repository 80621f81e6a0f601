"""Process environment of a benchmark run (imports nothing heavy).

Every run uses one BLAS thread per process: with inherited BLAS threads
the pool workers of ``city-shard`` oversubscribe the cores and the
run-to-run spread measures the scheduler instead of the program.  The
variables must be set before numpy is first imported, which is why this
module is applied at the very top of ``bench/__main__.py``.  ``REPRO_*``
variables are dropped so every entry point runs with its program default
(e.g. the ``reference`` nn backend).
"""

from __future__ import annotations

import os
from pathlib import Path

#: Repository root (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pinned_environ(environ) -> dict[str, str]:
    """A copy of ``environ``: BLAS threads pinned, ``REPRO_*`` removed."""
    env = {key: value for key, value in environ.items()
           if not key.startswith("REPRO_")}
    env.update(PINNED_THREADS)
    return env


def apply_to_process() -> None:
    """Pin this process's environment in place (before numpy loads)."""
    pinned = pinned_environ(os.environ)
    for key in [k for k in os.environ if k not in pinned]:
        del os.environ[key]
    os.environ.update(pinned)

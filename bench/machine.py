"""Machine and configuration facts stamped on every benchmark record."""

from __future__ import annotations

import os
import platform
import subprocess

from .env import PINNED_THREADS, ROOT


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict | None:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version")}


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts(seed: int | None = None) -> dict:
    """Cores, affinity, CPU, interpreter, numpy/BLAS, backend, commit, seed."""
    import numpy as np
    from repro.nn.backend import backend_name

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    getaffinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(getaffinity(0)) if getaffinity else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {key: os.environ.get(key) for key in PINNED_THREADS},
        "nn_backend": backend_name(),
        "git_commit": commit,
        "git_dirty": bool(status) if status is not None else None,
        "seed": seed,
    }

"""The checkout the benchmark sits in, and the machine it runs on.

The benchmark always measures the ``src/flowr`` next to it, never an
installed copy, and refuses to run where that source is missing.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSourceError(RuntimeError):
    pass


def check_source():
    if not (SRC / "flowr" / "__init__.py").is_file():
        raise MissingSourceError(f"no flowr source at {SRC / 'flowr'}; run from a full checkout")


def use_checkout_source():
    check_source()
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import flowr

    if Path(flowr.__file__).resolve().parent != SRC / "flowr":
        raise MissingSourceError(f"imported flowr from {flowr.__file__}, not from {SRC}")


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        return get()
    return None


def describe_machine():
    """Where a result was measured: hardware, versions, BLAS and source."""
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "flowr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "flowr_source_sha256": digest.hexdigest(),
    }

"""Environment record stored with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

_THREAD_FUNCS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


def cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in _THREAD_FUNCS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src_dir):
    """SHA-256 over the package's .py files, names included, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment(root, src_dir, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads(np)
    return {
        "cpu_count": cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_within_cpus": threads is None or threads <= cpu_count(),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(src_dir),
        "seed": seed,
    }

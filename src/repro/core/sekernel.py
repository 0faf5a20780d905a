"""Build, load and call the compiled Shrink-and-Expand loop.

``se_kernel.c`` (next to this file) is compiled on first use in each
process: the compiler named by the conventional ``CC`` variable
(default ``gcc``) writes a shared library into a fresh temporary
directory, :class:`ctypes.CDLL` maps it, and the directory is deleted
at once, so nothing stays on disk and no cache can go stale or race
another process.  :func:`load` returns ``None`` when any step fails (no
compiler, an unwritable temporary directory, a ``noexec`` mount), and
:mod:`repro.core.se` then runs its numpy loop instead.  The outcome is
decided once per process, under a lock.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import shutil
import subprocess
import tempfile

import numpy as np

from ..analysis.locks import make_lock

__all__ = ["SOURCE", "CFLAGS", "load", "refine_rows"]

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "se_kernel.c")

#: No fast-math, no fused multiply-add and no ``-march``: the C loop
#: must round exactly like numpy's baseline build.
CFLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")

_lock = make_lock("se.kernel_build")
_loaded: list[ctypes.CDLL | None] = []  # empty until the first load


def load() -> ctypes.CDLL | None:
    """The compiled loop, building it on the first call; ``None`` when
    it cannot be built or loaded in this process."""
    if not _loaded:
        with _lock:
            if not _loaded:
                _loaded.append(_build())
    return _loaded[0]


def _build() -> ctypes.CDLL | None:
    try:
        cc = shlex.split(os.environ.get("CC") or "gcc")
        tmp = tempfile.mkdtemp(prefix="repro-se-")
    except (OSError, ValueError):
        return None
    try:
        target = os.path.join(tmp, "se_kernel.so")
        done = subprocess.run(
            [*cc, *CFLAGS, "-o", target, SOURCE],
            stdin=subprocess.DEVNULL, capture_output=True, timeout=300,
        )
        if done.returncode != 0:
            return None
        lib = ctypes.CDLL(target)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.se_refine.restype = ctypes.c_int
    lib.se_refine.argtypes = (
        [i64] * 3 + [ptr] * 9 + [ctypes.c_double, i64, ptr, ptr]
    )
    return lib


def _ptr(a: np.ndarray, dtype: type) -> int:
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise TypeError(
            f"the compiled SE loop takes C-contiguous {np.dtype(dtype)} "
            f"arrays, not {a.dtype} with flags {a.flags}"
        )
    return a.ctypes.data


def refine_rows(
    b_lo: np.ndarray,
    b_hi: np.ndarray,
    h_lo: np.ndarray,
    h_hi: np.ndarray,
    l_lo: np.ndarray,
    l_hi: np.ndarray,
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    valid: np.ndarray,
    delta: float,
    m_max: int,
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """:func:`repro.core.se.refine_rows_numpy`, compiled: same
    arguments, same in-place bounds, same return value."""
    lib = load()
    if lib is None:
        raise RuntimeError("the compiled SE loop is not available")
    k, n, d = a_lo.shape
    for a in (b_lo, b_hi, h_lo, h_hi, l_lo, l_hi):
        if a.shape != (k, d):
            raise ValueError(f"bounds of shape {a.shape}, not {(k, d)}")
    if a_hi.shape != (k, n, d) or valid.shape != (k, n):
        raise ValueError("C-set arrays disagree in shape")
    iterations = np.zeros(k, dtype=np.int64)
    counts = np.zeros(3, dtype=np.int64)
    f8 = np.float64
    status = lib.se_refine(
        k, n, d, _ptr(b_lo, f8), _ptr(b_hi, f8),
        _ptr(h_lo, f8), _ptr(h_hi, f8), _ptr(l_lo, f8), _ptr(l_hi, f8),
        _ptr(a_lo, f8), _ptr(a_hi, f8), _ptr(valid, np.bool_),
        float(delta), int(m_max),
        _ptr(iterations, np.int64), _ptr(counts, np.int64),
    )
    if status != 0:
        raise MemoryError("the compiled SE loop could not allocate scratch")
    tests, shrinks, expands = (int(c) for c in counts)
    return iterations, (tests, shrinks, expands)

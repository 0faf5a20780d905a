"""Build and load the compiled loops, and call them.

``se_kernel.c`` (next to this file, the Shrink-and-Expand row loop) and
``engine/step2_kernel.c`` (the Step-2 log walk) are compiled together
on first use in each process: one run of the compiler named by the
conventional ``CC`` variable (default ``gcc``) writes one shared
library into a fresh temporary directory, :class:`ctypes.CDLL` maps it,
and the directory is deleted at once, so nothing stays on disk and no
cache can go stale or race another process.  :func:`load` returns
``None`` when any step fails (no compiler, an unwritable temporary
directory, a ``noexec`` mount), and :mod:`repro.core.se` and
:mod:`repro.engine.batch` then run their numpy code instead.  The
outcome is decided once per process, under a lock, and
:func:`kernel_name` reports it.

ctypes releases the GIL for the length of a call, so two serving
threads can run the loops at once; each call allocates its own scratch.
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

__all__ = [
    "SOURCES", "CFLAGS", "kernel_name", "load", "refine_rows", "step2_walk",
]

_HERE = os.path.dirname(os.path.abspath(__file__))
#: The C sources of the one library (``einsum_sum.h`` is included).
SOURCES = (
    os.path.join(_HERE, "se_kernel.c"),
    os.path.join(os.path.dirname(_HERE), "engine", "step2_kernel.c"),
)

#: No fast-math, no fused multiply-add and no ``-march``: the C loops
#: must round exactly like numpy's baseline build.
CFLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")

_lock = make_lock("se.kernel_build")
_loaded: list[ctypes.CDLL | None] = []  # empty until the first load


def load() -> ctypes.CDLL | None:
    """The compiled loops, building them on the first call; ``None``
    when they cannot be built or loaded in this process."""
    if not _loaded:
        with _lock:
            if not _loaded:
                _loaded.append(_build())
    return _loaded[0]


def kernel_name() -> str:
    """Which loops this process runs: ``"c"`` when the library built
    and loaded, otherwise ``"numpy"`` (for SE and Step 2 alike)."""
    return "c" if load() is not None else "numpy"


def _build() -> ctypes.CDLL | None:
    try:
        cc = shlex.split(os.environ.get("CC") or "gcc")
        tmp = tempfile.mkdtemp(prefix="repro-se-")
    except (OSError, ValueError):
        return None
    try:
        target = os.path.join(tmp, "kernels.so")
        done = subprocess.run(
            [*cc, *CFLAGS, "-o", target, *SOURCES, "-lm"],
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
    lib.step2_walk.restype = ctypes.c_int
    lib.step2_walk.argtypes = [i64] * 3 + [ptr] * 6 + [i64, ptr, ptr]
    return lib


def _ptr(a: np.ndarray, dtype: type) -> int:
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise TypeError(
            f"the compiled loops take C-contiguous {np.dtype(dtype)} "
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


def step2_walk(
    instances: np.ndarray,
    weights: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    queries: np.ndarray,
    column: np.ndarray,
    n_out: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The compiled Step-2 log walk over ``(b, d)`` query rows.

    Candidate ``j`` owns rows ``starts[j]:starts[j] + lengths[j]`` of
    the packed ``(N, d)`` ``instances`` and ``(N,)`` ``weights``; its
    probability goes to output column ``column[j]`` (``-1``: it only
    competes).  Returns ``(P, tied)``: the ``(b, n_out)``
    probabilities and a ``(b,)`` bool mask of the rows whose distances
    tie across candidates (or are not finite), whose ``P`` rows are
    left unset for the tie-aware numpy path.
    """
    lib = load()
    if lib is None:
        raise RuntimeError("the compiled Step-2 walk is not available")
    b, d = queries.shape
    n = len(starts)
    if instances.shape[1:] != (d,) or weights.shape != instances.shape[:1]:
        raise ValueError("instances, weights and queries disagree in shape")
    if lengths.shape != (n,) or column.shape != (n,):
        raise ValueError("starts, lengths and column disagree in shape")
    P = np.empty((b, n_out))
    tied = np.zeros(b, dtype=np.uint8)
    f8, i8 = np.float64, np.int64
    status = lib.step2_walk(
        b, n, d, _ptr(instances, f8), _ptr(weights, f8),
        _ptr(starts, i8), _ptr(lengths, i8), _ptr(queries, f8),
        _ptr(column, i8), int(n_out), _ptr(P, f8), _ptr(tied, np.uint8),
    )
    if status != 0:
        raise MemoryError("the compiled Step-2 walk could not allocate scratch")
    return P, tied.view(np.bool_)

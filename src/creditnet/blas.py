"""The thread count of the OpenBLAS that numpy loaded: read it, and hold it
for the length of a scope.

Training runs each fit at one thread (``training.FIT_THREADS``). Its matrix
products are small (d_model 32, 10 tokens, batch 128), and OpenBLAS's other
threads spin between them. On a 2-CPU x86-64 host a fit at two threads burns
twice its wall time in CPU alone, and two trainings at once each ran 4-12x
slower than at one thread. Scoring runs at the caller's count.

The library is found among those already mapped into this process (Linux's
``/proc/self/maps``), in the manner of threadpoolctl: it is opened with
``RTLD_NOLOAD``, so no second OpenBLAS is ever loaded. The thread calls are
the scipy-openblas build's ``scipy_openblas_{get,set}_num_threads64_``, which
numpy's wheels ship, else plain OpenBLAS's ``openblas_{get,set}_num_threads``.
Without them (MKL, Accelerate, another platform) ``threads`` returns ``None``
and ``limit`` does nothing.

The count is global to the process. Two Python threads that enter ``limit``
at once can restore in the wrong order, leaving the count one of them set.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache
from typing import Callable, NamedTuple, Optional

import numpy  # noqa: F401  (importing numpy loads the BLAS that the lookup finds)

# (getter, setter) pairs, tried in order in each mapped OpenBLAS library
SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _Control(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            # address, perms, offset, device, inode, then the path, if any
            paths = {fields[5].strip() for fields in (line.split(maxsplit=5) for line in fh)
                     if len(fields) == 6}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


@cache
def _control(symbols: tuple) -> Optional[_Control]:
    """The first ``symbols`` pair that a mapped OpenBLAS exports, as callables."""
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_NOW)
        except OSError:
            continue
        for getter, setter in symbols:
            if hasattr(lib, getter) and hasattr(lib, setter):
                get, set_ = getattr(lib, getter), getattr(lib, setter)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return _Control(get, set_)
    return None


def threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count, or ``None`` without the symbols."""
    control = _control(SYMBOLS)
    return None if control is None else control.get()


@contextmanager
def limit(n: int):
    """Run the body at ``n`` BLAS threads, then restore the count found on
    entry, also when the body raises; a no-op without the symbols."""
    control = _control(SYMBOLS)
    if control is None:
        yield
        return
    saved = control.get()
    control.set(n)
    try:
        yield
    finally:
        control.set(saved)

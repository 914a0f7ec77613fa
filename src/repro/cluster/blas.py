"""While a shard worker pool is open, every process runs BLAS on one thread.

The pool is the parallelism.  A thread count belongs to the process, so
the count of open pools is module state: the first pool to open records
the parent's OpenBLAS thread counts and sets one, and the last to close
sets them back.  A count of one is never set again, because after a fork
OpenBLAS rebuilds its thread pool on any set call.  Where no OpenBLAS is
loaded (MKL, Accelerate, BLIS, or no ``/proc``) every call does nothing.
"""

import ctypes
import os
import threading

_lock = threading.RLock()  # a pool's ``__del__`` may release under it
_holders, _saved, _pairs = 0, [], None  # _pairs: (get, set) per OpenBLAS
_NAMES = [
    (f"{stem}_get_num_threads{suffix}", f"{stem}_set_num_threads{suffix}")
    for stem in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def _openblas() -> list:
    """The get/set pair of each OpenBLAS this process has loaded."""
    global _pairs
    if _pairs is None:
        pairs, paths = [], set()
        try:
            with open("/proc/self/maps", encoding="utf-8") as maps:
                paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
        except OSError:  # no /proc: this process's libraries stay unknown
            pass
        for path in sorted(p for p in paths if "openblas" in p.split("/")[-1]):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            for get, put in _NAMES:
                if hasattr(lib, get) and hasattr(lib, put):
                    get, put = getattr(lib, get), getattr(lib, put)
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    pairs.append((get, put))
                    break
        _pairs = pairs
    return _pairs


def threads() -> int | None:
    """This process's BLAS thread count; ``None`` without OpenBLAS."""
    return max((get() for get, _ in _openblas()), default=None)


def one_thread() -> None:
    for get, put in _openblas():
        if get() != 1:
            put(1)


def hold() -> None:
    global _holders, _saved
    with _lock:
        if _holders == 0:
            _saved = [get() for get, _ in _openblas()]
            one_thread()
        _holders += 1


def release() -> None:
    global _holders
    with _lock:
        _holders -= 1
        if _holders == 0:
            for (get, put), count in zip(_openblas(), _saved):
                if get() != count:
                    put(count)

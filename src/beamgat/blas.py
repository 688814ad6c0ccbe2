"""One BLAS thread for a block of numeric work when numpy runs on OpenBLAS.

beamgat's matrix products are a few MFLOP each; a second OpenBLAS thread
buys them little wall time and spin-waits between calls, and worker processes
that each run several BLAS threads oversubscribe the cores. Parallelism
comes from ``--workers`` (one process per frame) instead.
"""

import contextlib
import ctypes

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

# (get, set) thread-count symbols of the OpenBLAS builds numpy ships or links
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS numpy calls, or None
    when numpy's BLAS is not OpenBLAS. The lookup goes through numpy's core
    extension, whose symbol scope holds the BLAS library it links."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for get_name, set_name in _SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """Run the block with one OpenBLAS thread and restore the caller's count
    afterwards; does nothing when numpy's BLAS is not OpenBLAS."""
    api = openblas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)

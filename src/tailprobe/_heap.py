"""Allocator settings applied once at ``import tailprobe``."""

import ctypes
import platform

# mallopt parameter numbers from glibc's <malloc.h>.
M_TOP_PAD = -2
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD_BYTES = 32 << 20
TOP_PAD_BYTES = 64 << 20


def _keep_heap_mapped(libc=None) -> bool:
    """Keep freed heap mapped between Monte-Carlo draws on glibc.

    One TFD calibration draw at n = 10⁴ peaks at about 4.2 MiB of
    temporaries, above the trim threshold glibc's dynamic heuristic settles
    on, so glibc returned the heap top to the kernel after every draw and
    the next draw faulted it back in: about 82 000 minor faults per cold
    ``assess`` (glibc 2.36). With M_MMAP_THRESHOLD at 32 MiB (arrays below
    that come from the heap, not fresh mmaps) and M_TOP_PAD at 64 MiB (a
    trim leaves that much free heap mapped) it takes about 10, and about a
    fifth less wall time. M_MMAP_THRESHOLD alone keeps the 128 KiB trim
    threshold (about 200 000 faults). M_TOP_PAD alone freezes the mmap
    threshold wherever start-up left it, so the explicit 32 MiB keeps large
    arrays on the heap whatever ran before. The cost: up to 64 MiB of freed
    heap stays mapped; peak RSS rose by under 1 MiB in the benchmark.

    ``libc`` defaults to the C library of this process, and only on glibc.
    Does nothing where ``mallopt`` is missing or refuses the first setting.
    Returns whether both settings were applied.
    """
    if libc is None:
        if platform.libc_ver()[0] != "glibc":
            return False
        libc = ctypes.CDLL(None)
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)) and bool(
        mallopt(M_TOP_PAD, TOP_PAD_BYTES)
    )

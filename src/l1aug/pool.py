"""One process-pool map, shared by training's member groups, the loop's episode batches, the bound
report's experiments and the CLI's seeds and cells.

Workers are forked where the platform can fork, and each runs OpenBLAS on one
thread; the calls and their results travel by pickle. A worker sees one
usable CPU, so the maps never nest: a seed worker steps its episodes and
trains its members in-process.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import gc
import multiprocessing
import os

# Thread-count setters of the OpenBLAS builds numpy ships with (64-bit integer
# symbols first) or links from the system.
OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def usable_cpus() -> int:
    """CPUs this process may fork workers onto: those it may run on, or 1 where it cannot fork.

    It cannot where the platform lacks ``fork``, and should not inside a pool
    worker, whose siblings already hold the other CPUs.
    """
    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.parent_process() is not None:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def one_blas_thread() -> bool:
    """Run this process's OpenBLAS on one thread; False where no OpenBLAS is found.

    A forked worker inherits the parent's BLAS thread count, and OpenBLAS
    threads spin for a while after each threaded call, so workers that each
    hold one CPU's share but keep every CPU's threads slow one another down.
    Bits do not depend on the thread count. The library is found in
    ``/proc/self/maps``, so this is a no-op where that does not exist.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return False
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return True
    return False


def map_jobs(fn, calls: list[tuple], jobs: int):
    """Yield ``fn(*call)`` for each call in order.

    With more than one call and ``jobs`` above 1 the calls run in
    ``min(jobs, len(calls))`` worker processes, each of which first runs
    ``one_blas_thread``; otherwise they run here, leaving this process's BLAS
    threads alone. Every worker has been joined when the generator finishes
    or raises, also when a worker dies. The parent's objects are frozen out
    of the collector while the workers fork, and thawed before any result
    comes back.
    """
    workers = min(jobs, len(calls))
    if workers <= 1:
        yield from (fn(*call) for call in calls)
        return
    context = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None
    # concurrent.futures imports its process pool on first use, so a process
    # that starts no pool does not load it (0.2 MiB of peak RSS in `l1aug verify`
    # at one CPU), nor does the CLI's start-up.
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                                initializer=one_blas_thread) as executor:
        # Every worker forks at the first submit. The collector skips frozen
        # objects, so a worker's collections neither walk nor copy the heap it
        # inherited; unfrozen, small allocation changes in the run path have
        # cost a loop's first run a quarter of its speed.
        gc.freeze()
        try:
            futures = [executor.submit(fn, *call) for call in calls]
        finally:
            gc.unfreeze()
        yield from (future.result() for future in futures)

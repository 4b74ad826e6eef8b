"""One ordered map, serial or over a process pool that gets its shared data once per worker.

The pool forks where the platform offers ``fork`` and this process runs no thread but its main one: a
forked worker starts with the parent's modules and data in memory, so it imports nothing and unpickles
no shared data. A fork copies only the calling thread, so a lock held by another thread would stay
locked in the child for good; a process with other threads running, and a platform without ``fork``,
gets a ``spawn`` pool, whose workers import the package and unpickle the shared data first.

Where the platform has an affinity mask, the n-th worker to start pins itself to the n-th CPU of the
mask, cycling when there are more workers than CPUs. Left to itself, the scheduler may keep two new
workers on one CPU for hundreds of milliseconds, each at half speed, while another CPU idles: on a
2-vCPU virtual machine it did so whenever the parent ran on the second CPU. Two processes that run
pools at the same time pin their workers to the same first CPUs of their masks; give them disjoint
masks (``taskset -c``). A worker's :func:`usable_cpus` is 1, with or without a mask, so a map that a
worker makes with the default ``jobs`` runs in that worker rather than nesting a pool.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

from .errors import DataError


_worker: tuple | None = None  # a pool worker's (fn, shared), set once by _init_worker


def _affinity() -> list[int]:
    """The CPUs this process may run on, or [] where the platform has no affinity mask."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else every CPU; 1 in a
    pool worker, so that a map a worker makes runs in the worker."""
    if _worker is not None:
        return 1
    return len(_affinity()) or os.cpu_count() or 1


def forks() -> bool:
    """Whether a pool started now forks its workers: the platform offers ``fork`` and no other thread runs."""
    return "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1


# the thread-count setter of each OpenBLAS build numpy ships; its getter has "_get_" for "_set_"
_BLAS_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "scipy_openblas_set_num_threads64_")


def _one_blas_thread() -> None:
    """Give each OpenBLAS this process has loaded one thread, where its memory map (Linux) shows one.

    A worker is one of up to as many processes as CPUs, and pinned to one of them where there is a mask, so
    BLAS threads of its own only contend for the CPUs: with OpenBLAS at its default thread count on 2 CPUs, a
    lambda sweep ran 4 times slower at 2 jobs than at 1. OpenBLAS splits a product's rows and columns between
    its threads, not the sums, so the results do not change. Other BLAS libraries keep their thread count.

    In a forked child the setter first restarts the thread pool that the fork stopped, and those threads spin
    for a while, at the worker's expense, before they sleep; the pool is stopped again, and with one thread
    OpenBLAS does not start it."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        for setter in _BLAS_THREADS:
            getter = setter.replace("_set_", "_get_")
            if hasattr(lib, setter) and hasattr(lib, getter) and getattr(lib, getter)() > 1:
                getattr(lib, setter)(1)
                if hasattr(lib, "blas_thread_shutdown_"):
                    lib.blas_thread_shutdown_()


def _init_worker(fn, shared, cpus, started) -> None:
    global _worker
    _worker = (fn, shared)
    _one_blas_thread()
    if cpus:
        with started.get_lock():  # the pool's workers count themselves as they start: the n-th takes cpus[n]
            n = started.value
            started.value += 1
        os.sched_setaffinity(0, {cpus[n % len(cpus)]})


def _call(item):
    fn, shared = _worker
    return fn(shared, item)


@contextlib.contextmanager
def ordered_results(fn, shared, items, jobs: int | None = None):
    """An iterator over ``fn(shared, item)`` for each of ``items``, in order, valid inside the ``with``
    block. With ``jobs > 1`` and more than one item, the results come from a pool of
    ``min(jobs, len(items))`` processes, each given ``fn`` and ``shared`` once, that is started on entry and
    shut down on exit, so nothing opened inside the block is forked; an error raised by ``fn`` reaches the
    caller as itself. ``fn`` must be a module-level function.

    ``jobs=None`` is every usable CPU where the pool would fork, else 1: the choice for a map whose output
    does not depend on the worker count. A spawned worker imports numpy and the package before its first
    item, which costs about what such a map saves, and only a fork hands the workers a ``shared`` that does
    not pickle, such as a lambda."""
    if jobs is None:
        jobs = usable_cpus() if forks() else 1
    if jobs < 1:
        raise DataError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if jobs == 1 or len(items) < 2:
        yield (fn(shared, item) for item in items)
        return
    context = multiprocessing.get_context("fork" if forks() else "spawn")
    cpus = _affinity()
    started = context.Value("i", 0) if cpus else None
    with ProcessPoolExecutor(min(jobs, len(items)), mp_context=context, initializer=_init_worker,
                             initargs=(fn, shared, cpus, started)) as pool:
        yield pool.map(_call, items)  # every item is submitted, and every worker started, before this yields


def ordered_map(fn, shared, items, jobs: int | None = None) -> list:
    """``[fn(shared, item) for item in items]``, by :func:`ordered_results`."""
    with ordered_results(fn, shared, items, jobs) as results:
        return list(results)

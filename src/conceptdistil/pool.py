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
masks (``taskset -c``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

from .errors import DataError


def _affinity() -> list[int]:
    """The CPUs this process may run on, or [] where the platform has no affinity mask."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else every CPU."""
    return len(_affinity()) or os.cpu_count() or 1


def forks() -> bool:
    """Whether a pool started now forks its workers: the platform offers ``fork`` and no other thread runs."""
    return "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1


_worker: tuple | None = None  # a pool worker's (fn, shared), set once by _init_worker


def _init_worker(fn, shared, cpus, started) -> None:
    global _worker
    _worker = (fn, shared)
    if cpus:
        with started.get_lock():  # the pool's workers count themselves as they start: the n-th takes cpus[n]
            n = started.value
            started.value += 1
        os.sched_setaffinity(0, {cpus[n % len(cpus)]})


def _call(item):
    fn, shared = _worker
    return fn(shared, item)


def ordered_map(fn, shared, items, jobs: int) -> list:
    """``[fn(shared, item) for item in items]``. With ``jobs > 1`` and more than one item, in a pool of
    ``min(jobs, len(items))`` processes, each given ``fn`` and ``shared`` once; an error raised by ``fn``
    reaches the caller as itself. ``fn`` must be a module-level function."""
    if jobs < 1:
        raise DataError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if jobs == 1 or len(items) < 2:
        return [fn(shared, item) for item in items]
    context = multiprocessing.get_context("fork" if forks() else "spawn")
    cpus = _affinity()
    started = context.Value("i", 0) if cpus else None
    with ProcessPoolExecutor(min(jobs, len(items)), mp_context=context, initializer=_init_worker,
                             initargs=(fn, shared, cpus, started)) as pool:
        return list(pool.map(_call, items))

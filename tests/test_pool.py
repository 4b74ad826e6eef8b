"""pool.ordered_map: the serial list comprehension, or the same list from a process pool."""

import ctypes
import multiprocessing
import os
import threading
import time

import numpy  # noqa: F401  (loads the BLAS that blas_threads looks for)
import pytest

from conceptdistil import pool
from conceptdistil.errors import DataError


def pid_and_cpus(seconds, item):
    time.sleep(seconds)
    return os.getpid(), frozenset(os.sched_getaffinity(0))


def pid_and(shared, item):
    if item == "fail":
        raise DataError(f"item {item} failed with {shared}")
    return os.getpid(), shared, item


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_results_are_in_item_order_with_the_shared_data(jobs):
    out = pool.ordered_map(pid_and, "s", range(5), jobs)
    assert [(shared, item) for _, shared, item in out] == [("s", i) for i in range(5)]
    assert ({pid for pid, _, _ in out} == {os.getpid()}) == (jobs == 1)


def test_a_single_item_runs_in_the_caller():
    assert pool.ordered_map(pid_and, None, ["a"], 4) == [(os.getpid(), None, "a")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_error_in_an_item_reaches_the_caller_as_itself(jobs):
    with pytest.raises(DataError, match=r"^item fail failed with s$"):
        pool.ordered_map(pid_and, "s", ["ok", "fail", "ok"], jobs)


@pytest.mark.parametrize("jobs", [0, -4])
def test_jobs_below_one_fail_before_any_item(jobs):
    with pytest.raises(DataError, match=f"jobs must be >= 1, got {jobs}"):
        pool.ordered_map(pid_and, None, ["fail"], jobs)


def cpus_and_nested_pids(shared, item):
    return pool.usable_cpus(), os.getpid(), {pid for pid, _, _ in pool.ordered_map(pid_and, None, range(3))}


def test_a_worker_without_an_affinity_mask_has_one_cpu_and_maps_in_itself(monkeypatch):
    monkeypatch.setattr(pool, "_affinity", lambda: [])
    assert pool.usable_cpus() == (os.cpu_count() or 1)
    out = pool.ordered_map(cpus_and_nested_pids, None, range(2), 2)
    assert [cpus for cpus, _, _ in out] == [1, 1]
    assert all(nested == {pid} for _, pid, nested in out)
    assert os.getpid() not in {pid for _, pid, _ in out}


def blas_threads(shared, item) -> list[int]:
    """The thread count of each OpenBLAS in this process's memory map."""
    try:
        with open("/proc/self/maps") as fh:
            libs = [ctypes.CDLL(path) for path in {line.split()[-1] for line in fh if "openblas" in line}]
    except OSError:
        return []
    getters = [name.replace("_set_", "_get_") for name in pool._BLAS_THREADS]
    return [getattr(lib, name)() for lib in libs for name in getters if hasattr(lib, name)]


def blas_and_os_threads(shared, item) -> tuple[list[int], int]:
    return blas_threads(shared, item), len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not blas_threads(None, None), reason="no OpenBLAS in the memory map")
def test_a_worker_runs_openblas_on_one_thread_and_starts_none():
    before = blas_threads(None, None)
    assert pool.ordered_map(blas_and_os_threads, None, range(2), 2) == [([1] * len(before), 1)] * 2
    assert blas_threads(None, None) == before


affinity = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the platform has no affinity mask")
two_cpus = pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two CPUs")


@affinity
def test_usable_cpus_is_the_affinity_mask():
    assert pool.usable_cpus() == len(os.sched_getaffinity(0))


def pinned_cpus(jobs):
    """Each worker's pid and CPUs, from a map whose items each take long enough that every worker runs one."""
    out = pool.ordered_map(pid_and_cpus, 0.1, range(2 * jobs), jobs)
    pinned = dict(out)  # a worker runs every item on one CPU
    assert len(pinned) == len(set(out)) == jobs
    return list(pinned.values())


@two_cpus
@pytest.mark.parametrize("per_cpu", [1, 2])
def test_workers_are_pinned_to_the_cpus_in_turn(per_cpu):
    cpus = os.sched_getaffinity(0)
    pinned = pinned_cpus(per_cpu * len(cpus))
    assert all(len(c) == 1 for c in pinned)
    assert sorted(c for (c,) in pinned) == sorted(sorted(cpus) * per_cpu)
    assert os.sched_getaffinity(0) == cpus


def send_pinned_cpus(conn, jobs):
    conn.send(pinned_cpus(jobs))
    conn.close()


@two_cpus
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_a_pool_started_in_a_child_process_pins_its_workers_to_distinct_cpus():
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=send_pinned_cpus, args=(sender, 2))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the child sent nothing"
        pinned = receiver.recv()
    finally:
        receiver.close()
        child.join(60)
    assert child.exitcode == 0
    assert len(set(pinned)) == 2 and all(len(c) == 1 for c in pinned)


@pytest.fixture
def other_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    yield
    stop.set()
    thread.join(10)
    assert not thread.is_alive()


def test_a_process_with_another_thread_spawns_its_workers(other_thread, monkeypatch):
    assert not pool.forks()
    contexts = []
    executor = pool.ProcessPoolExecutor

    def recording(*args, mp_context, **kwargs):
        contexts.append(mp_context.get_start_method())
        return executor(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", recording)
    out = pool.ordered_map(pid_and, "s", range(3), 2)
    assert contexts == ["spawn"]
    assert [(shared, item) for _, shared, item in out] == [("s", i) for i in range(3)]
    assert os.getpid() not in {pid for pid, _, _ in out}

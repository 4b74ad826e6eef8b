"""pool.ordered_map: the serial list comprehension, or the same list from a process pool."""

import multiprocessing
import os
import threading
import time

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

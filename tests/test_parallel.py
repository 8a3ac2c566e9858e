import os
import time

import numpy as np
import pytest

from rfmst.parallel import fork_map, shared_zeros


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _counted_forks(monkeypatch):
    """Patch os.fork to record, in the parent, the id of each child."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _slow_in(parent, seconds=0.05):
    """Sleep in `parent`, so that the workers take some of the items."""
    if os.getpid() == parent:
        time.sleep(seconds)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_every_index_comes_back_once_with_its_own_result(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    forks = _counted_forks(monkeypatch)
    parent = os.getpid()

    def square(i):
        _slow_in(parent)
        return i * i, os.getpid()

    results = list(fork_map(square, 7))
    assert sorted(i for i, _ in results) == list(range(7))
    assert all(value == i * i for i, (value, _) in results)
    assert len(forks) == cpus - 1
    assert {pid for _, (_, pid) in results} <= {parent, *forks}
    _assert_no_child_left()


@pytest.mark.parametrize("n", [0, 1])
def test_no_fork_for_fewer_than_two_items(monkeypatch, n):
    _cpus(monkeypatch, 3)
    forks = _counted_forks(monkeypatch)
    assert list(fork_map(lambda i: (i, os.getpid()), n)) == \
        [(i, (i, os.getpid())) for i in range(n)]
    assert forks == []
    _assert_no_child_left()


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch):
    _cpus(monkeypatch, 3)
    parent = os.getpid()

    def fail_in_a_worker(i):
        _slow_in(parent)
        if os.getpid() != parent:
            raise ValueError(f"item {i} failed in worker {os.getpid()}")

    with pytest.raises(ValueError, match=r"item \d+ failed in worker \d+"):
        list(fork_map(fail_in_a_worker, 4))
    _assert_no_child_left()


def test_a_worker_that_dies_is_reported(monkeypatch):
    _cpus(monkeypatch, 2)
    parent = os.getpid()

    def die_in_a_worker(i):
        _slow_in(parent)
        if os.getpid() != parent:
            os._exit(3)

    with pytest.raises(RuntimeError, match=r"worker \d+ exited with status 3"):
        list(fork_map(die_in_a_worker, 4))
    _assert_no_child_left()


def test_an_error_in_the_parent_leaves_no_worker(monkeypatch):
    _cpus(monkeypatch, 3)
    parent = os.getpid()

    def fail_in_the_parent(i):
        if os.getpid() == parent:
            raise ValueError("item failed in the parent")
        time.sleep(10)       # a worker still busy is killed, not waited for

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="item failed in the parent"):
        list(fork_map(fail_in_the_parent, 4))
    assert time.perf_counter() - t0 < 5
    _assert_no_child_left()


def test_closing_the_map_early_leaves_no_worker(monkeypatch):
    _cpus(monkeypatch, 3)
    results = fork_map(lambda i: i, 6)
    assert next(results) is not None
    results.close()
    _assert_no_child_left()


def test_workers_write_into_a_shared_array_in_place(monkeypatch):
    _cpus(monkeypatch, 3)
    forks = _counted_forks(monkeypatch)
    parent = os.getpid()
    shared = shared_zeros((6, 2), np.int64)
    private = np.zeros((6, 2), np.int64)
    assert shared.flags.c_contiguous and not shared.any()

    def write(i):
        _slow_in(parent)
        shared[i] = private[i] = (i + 1, os.getpid())

    assert [i for i, _ in sorted(fork_map(write, 6))] == list(range(6))
    assert shared[:, 0].tolist() == [1, 2, 3, 4, 5, 6]
    writers = set(shared[:, 1].tolist())
    assert writers & set(forks) and writers <= {parent, *forks}
    # a worker's writes to ordinary memory stay its own
    assert set(private[:, 1].tolist()) <= {0, parent}
    _assert_no_child_left()


def test_an_empty_shared_array():
    assert shared_zeros((0, 5), np.complex64).shape == (0, 5)

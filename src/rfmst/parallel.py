"""Map a function over range(n) on every CPU this process may run on.

fork_map(fn, n) runs fn(i) for each index in this process and in workers
forked for the call, one process per usable CPU (os.sched_getaffinity), at
most one per index: the call is one stage, and its workers stage workers.
Every process takes the next index from one shared queue, a file of 4-byte
indices, so which process runs which index depends on timing; fn must
therefore give the same result for an index whichever process runs it.  A
worker keeps its (index, result) records until the queue is empty, then
sends them to the parent by pickle.  An exception in a worker is raised in
the parent with its type and message, and a worker that ends without
sending raises RuntimeError naming its exit status.  When the generator
finishes, raises or is closed, every worker it has left is killed and
reaped.  With one CPU, or one index, nothing forks.  Workers inherit the
parent's memory through fork, so fn may be a closure over large inputs;
only indices and results cross between processes.
"""
from __future__ import annotations

import os
import pickle
import signal
import tempfile


def _processes(n: int) -> int:
    """Processes that share n items: one per CPU this process may run on,
    at most one per item."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else min(len(affinity(0)), n)


def _queued(queue: int):
    """Indices taken one at a time from the shared queue until it is empty.
    Every process of the call shares the queue's descriptor, and so its
    read offset; the kernel advances a shared offset atomically, so each
    index is read once."""
    while item := os.read(queue, 4):
        yield int.from_bytes(item, "little")


def _received(results):
    """The (index, result) records a worker sent, in order; an exception it
    sent instead is raised."""
    while True:
        try:
            record = pickle.load(results)
        except EOFError:
            return
        if isinstance(record, BaseException):
            raise record
        yield record


def _worker(fn, queue: int, result_w: int):
    """Body of a forked worker: run fn on the indices it takes from the
    queue, then send their records, or the exception that stopped it, to
    the parent.  It never returns: it ends its process with os._exit, exit
    status 0 once every record is sent."""
    code = 1
    try:
        with os.fdopen(result_w, "wb") as results:
            try:
                records = [(i, fn(i)) for i in _queued(queue)]
            except Exception as exc:
                pickle.dump(exc, results)
            else:
                for record in records:
                    pickle.dump(record, results)
                code = 0
    finally:
        os._exit(code)


def fork_map(fn, n: int):
    """Yield (i, fn(i)) for every i in range(n), in no fixed order: first
    this process's own, then each worker's (see the module docstring).

    Wrap it in contextlib.closing where the caller may raise before it is
    exhausted: the caller's traceback keeps an unclosed generator, and so
    its workers, alive."""
    workers = {}                # pid -> the read end of its result pipe
    queue = tempfile.TemporaryFile()
    try:
        queue.write(b"".join(i.to_bytes(4, "little") for i in range(n)))
        queue.seek(0)
        for _ in range(_processes(n) - 1):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, queue.fileno(), result_w)
            os.close(result_w)
            workers[pid] = os.fdopen(result_r, "rb")
        for i in _queued(queue.fileno()):
            yield i, fn(i)
        for pid in list(workers):
            yield from _received(workers[pid])
            workers.pop(pid).close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status:
                raise RuntimeError(f"stage worker {pid} exited with "
                                   f"status {status}")
    finally:
        queue.close()
        for pid, results in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            results.close()

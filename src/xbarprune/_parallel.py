"""Work spread over the CPUs this process may use, with results that do
not depend on how many there are.

Two patterns, both on forked processes, so that a worker starts with the
caller's state and nothing is pickled on the way in:

* ``_fork_map`` is a fork-join: ``[run(i) for i in range(count)]`` cut
  into contiguous chunks, one per usable CPU, the first run in this
  process and each other one in a forked child, gathered in order.
  ``mapping.simulate_layer`` splits a layer's tiles with it and
  ``nn.evaluate`` a test set's batches.
* ``_partner`` forks one partner that works in lockstep with this
  process: the two exchange one short pipe message each way per step and
  share one anonymous ``mmap`` for the bulk data. ``nn``'s training
  computes the second half of every minibatch in it.

While either runs, each process is pinned to a CPU of its own and runs
OpenBLAS on one thread, and this process's affinity mask is restored
after. Unpinned, a child forked right after a busy spell on the other CPU
(a fit's partner) shared its parent's CPU and gained nothing. The CPU
count comes from the affinity mask (``os.sched_getaffinity``). Callers
that already run the package in worker processes of their own should
narrow each worker's CPU affinity (``os.sched_setaffinity``), or every
worker forks as many children again.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import multiprocessing
import os
from contextlib import contextmanager


def _usable_cpus() -> int:
    """CPUs this process may give work to: 1 where it cannot say, cannot
    fork, or is a daemonic process, which multiprocessing lets have no
    children."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _openblas_threads() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into
    this process (the numpy and scipy wheels each bring their own), found
    by file name in /proc/self/maps; empty where it cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps
                     if "openblas" in line}
    except OSError:
        return ()
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread in this process, and in every child
    forked inside, then restore its thread counts. Each process already
    has a CPU of its own; an OpenBLAS pool per process, one thread per
    CPU, busy-waits on the CPUs of the others."""
    controls = _openblas_threads()
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def _send_outcome(send, outcome) -> None:
    """Send `outcome`, or a RuntimeError naming it if it does not pickle
    (an exception may hold anything)."""
    try:
        send.send(outcome)
    except Exception:
        send.send(RuntimeError(f"{type(outcome).__name__}: {outcome}"))


@contextmanager
def _pinned():
    """Pin this process to the first CPU of its affinity mask and yield the
    mask's CPUs in order; restore the mask on exit, also on an error."""
    before = os.sched_getaffinity(0)
    cpus = sorted(before)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield cpus
    finally:
        os.sched_setaffinity(0, before)


def _run_chunk(send, run, lo: int, hi: int, cpu: int) -> None:
    """A forked child's body: pin itself to `cpu`, then send
    [run(i) for i in lo..hi-1], or the exception that stopped it."""
    try:
        os.sched_setaffinity(0, {cpu})
        outcome = [run(i) for i in range(lo, hi)]
    except Exception as exc:            # re-raised by the parent
        outcome = exc
    _send_outcome(send, outcome)
    send.close()


def _receive(receive, process, what: str):
    """The next message from `process`, re-raising an exception it sent;
    a process that exits before sending is reported by its exit code."""
    try:
        message = receive.recv()
    except EOFError:
        process.join()
        raise RuntimeError(f"{what} exited with code {process.exitcode} "
                           "before it answered") from None
    if isinstance(message, Exception):
        raise message
    return message


def _fork_map(run, count: int, split: bool) -> list:
    """[run(i) for i in range(count)], on the usable CPUs if `split`:
    contiguous chunks, the first in this process and each other one in a
    forked child, gathered in order, with OpenBLAS on one thread in each.
    Chunk k runs pinned to CPU k of the affinity mask (modulo its size),
    and this process's mask is restored after. Every child is joined
    before this returns or raises; a child's exception is raised here."""
    workers = min(_usable_cpus(), count) if split else 1
    if workers < 2:
        return [run(i) for i in range(count)]
    bounds = [count * k // workers for k in range(workers + 1)]
    fork = multiprocessing.get_context("fork")
    children, gathered = [], False
    with _one_blas_thread(), _pinned() as cpus:
        try:
            for k, (lo, hi) in enumerate(zip(bounds[1:-1], bounds[2:]), start=1):
                receive, send = fork.Pipe(duplex=False)
                child = fork.Process(target=_run_chunk,
                                     args=(send, run, lo, hi, cpus[k % len(cpus)]))
                children.append((child, receive))
                try:
                    child.start()
                finally:
                    send.close()
            results = [run(i) for i in range(bounds[1])]
            for child, receive in children:
                results.extend(_receive(receive, child, "a worker"))
            gathered = True
            return results
        finally:
            for child, receive in children:
                if child.pid is not None:   # the fork succeeded
                    if not gathered:
                        child.terminate()   # it may be blocked writing to its pipe
                    child.join()
                    child.close()
                receive.close()


class Partner:
    """This process's end of a `_partner`: `shared` is the anonymous
    shared mmap, `send` sends the partner one message and `receive`
    returns its next one."""

    def __init__(self, link, process, shared: mmap.mmap):
        self._link, self._process, self.shared = link, process, shared

    def send(self, message) -> None:
        self._link.send(message)

    def receive(self):
        """The partner's next message; an exception it sent is raised
        here, and a partner that exits first raises RuntimeError."""
        return _receive(self._link, self._process, "the partner process")


def _run_partner(link, body, shared: mmap.mmap, cpu: int) -> None:
    """A partner's body: pin itself to `cpu`, then run body(link, shared)
    and send the exception that stops it, if any."""
    try:
        os.sched_setaffinity(0, {cpu})
        body(link, shared)
    except Exception as exc:            # re-raised by the parent
        _send_outcome(link, exc)
    link.close()


@contextmanager
def _partner(body, size: int):
    """Run body(link, shared) in a forked partner process and yield this
    process's `Partner`. `link` is the partner's end of a two-way pipe,
    and `shared` an anonymous mmap of `size` bytes that both processes
    see. For the duration, this process is pinned to the first CPU of its
    affinity mask and the partner to the second (the first too, where the
    mask holds one), and both run OpenBLAS on one thread. On exit this
    process restores its affinity mask and joins the partner, which must
    have returned; on an error it terminates the partner first."""
    shared = mmap.mmap(-1, size)
    fork = multiprocessing.get_context("fork")
    mine, theirs = fork.Pipe()
    finished = False
    with _one_blas_thread(), _pinned() as cpus:
        process = fork.Process(target=_run_partner,
                               args=(theirs, body, shared, cpus[1 % len(cpus)]))
        try:
            try:
                process.start()
            finally:
                theirs.close()
            yield Partner(mine, process, shared)
            finished = True
        finally:
            if process.pid is not None:     # the fork succeeded
                if not finished:
                    process.terminate()     # it may be waiting for this process
                process.join()
                process.close()
            mine.close()

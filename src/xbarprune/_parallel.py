"""Work spread over the CPUs this process may use, with results that do
not depend on how many there are.

Two patterns, both on forked processes:

* ``_fork_map`` is a fork-join over a persistent pool:
  ``[run(*a) for a in args]`` cut into contiguous chunks, one per usable
  CPU, the first run in this process and each other one in a pool
  worker, gathered in order. ``run`` must be a module-level function and
  the arguments must pickle: each worker's chunk travels to it as one
  standard pickle, ``run`` by its import path. ``mapping.simulate_layer``
  and ``mapping.layer_nf`` split a layer's tile stack with it, cut into
  chunks by ``_bounds`` and one task each, and ``nn.evaluate`` the chunks
  of a test set cut into at least two chunks per usable CPU.
* ``_partner`` forks one partner per fit that works in lockstep with
  this process: the two share one anonymous ``mmap`` for the data of a
  step and hand each step over through two semaphores, spinning rather
  than sleeping until the other side has released its own (``_spin``).
  Their pipe carries only the partner's exception and the EOF of either
  end. ``nn``'s training computes the second half of every minibatch in
  it.

The pool's first split call forks one daemonic worker per extra usable
CPU (more if a later call has more chunks), and later calls reuse them,
so a split call pays no fork. A worker holds a copy-on-write snapshot of
this process as it was at that fork, plus what it has built since, such
as its own ``circuit._topology`` cache: it runs the functions and reads
the module state of that snapshot, and sees later changes only through
its arguments. Workers belong to the process that forked them: a forked
child, such as a fit's partner, closes its copy of their pipes and forks
workers of its own if it splits. A worker exits when its pipe reaches
EOF and is terminated at interpreter exit; after any error, death or
interrupted call every worker is terminated and the next call forks new
ones, so no stale result is ever read. A call made while another is
using the pool, from a chunk that splits again or from another thread,
runs in this process alone. ``_shutdown`` terminates the pool at once.

While either pattern runs, each process is pinned to a CPU of its own
and runs OpenBLAS on one thread, and this process's affinity mask is
restored after. Unpinned, a child forked right after a busy spell on the
other CPU (a fit's partner) shared its parent's CPU and gained nothing.
The CPU count comes from the affinity mask (``os.sched_getaffinity``).
Callers that already run the package in worker processes of their own
should narrow each worker's CPU affinity (``os.sched_setaffinity``), or
every worker forks as many pool workers again, each holding a snapshot
of its parent.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
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


def _serve(link) -> None:
    """A pool worker's body: run every task that arrives on `link`, a
    pickled (run, chunk, cpu), pinned to `cpu`, and send back
    [run(*a) for a in chunk] or the exception that stopped it, until the
    pipe closes. Interrupts are ignored; the parent decides when a worker
    stops."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            _send_outcome(link, _run_task(link.recv_bytes()))
    except (EOFError, ConnectionError):     # the parent closed its end
        pass


def _run_task(task: bytes):
    """The outcome of one task: its results, or the exception that
    stopped it."""
    try:
        run, chunk, cpu = pickle.loads(task)
        os.sched_setaffinity(0, {cpu})
        return [run(*args) for args in chunk]
    except Exception as exc:            # re-raised by the parent
        return exc


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


_pool: list = []                # (process, pipe end) of each worker, in chunk order
_pool_busy = threading.Lock()   # held by the one call that is using the pool


def _workers(count: int) -> list:
    """The first `count` workers of the pool, forking as many more as it
    lacks; a pool with a dead worker is replaced whole."""
    if not all(process.is_alive() for process, _ in _pool):
        _shutdown()
    fork = multiprocessing.get_context("fork")
    while len(_pool) < count:
        mine, theirs = fork.Pipe()
        process = fork.Process(target=_serve, args=(theirs,), daemon=True)
        _pool.append((process, mine))   # listed first, so the worker closes its copy
        try:
            process.start()
        finally:
            theirs.close()
    return _pool[:count]


def _shutdown() -> None:
    """Terminate and join every worker of this process's pool."""
    while _pool:
        process, link = _pool.pop()
        if process.pid is not None:     # the fork succeeded
            process.terminate()
            process.join()
            process.close()
        link.close()


def _forget_pool() -> None:
    """In a forked child: close its copies of the parent's pipe ends, so
    that a worker sees EOF once its parent has gone, and start with no
    pool. multiprocessing forgets its parent's children only in a child it
    started itself, so the workers are dropped from its list here too;
    otherwise a child's interpreter exit would terminate them."""
    global _pool_busy
    for process, link in _pool:
        multiprocessing.process._children.discard(process)
        link.close()
    _pool.clear()
    _pool_busy = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _bounds(count: int, split: bool) -> list[int]:
    """Bounds of contiguous chunks of `count` items: one chunk per usable
    CPU but no more than there are items, if `split`; else one."""
    parts = max(1, min(_usable_cpus(), count)) if split else 1
    return [count * k // parts for k in range(parts + 1)]


def _fork_map(run, args: list, split: bool) -> list:
    """[run(*a) for a in args], on the usable CPUs if `split`: contiguous
    chunks, the first in this process and each other one in a pool
    worker, gathered in order, with OpenBLAS on one thread in each. Chunk
    k runs pinned to CPU k of the affinity mask (modulo its size), and
    this process's mask is restored after. A worker's exception is raised
    here. When this returns, every worker is idle; when it raises, the
    pool has been shut down."""
    bounds = _bounds(len(args), split)
    workers = len(bounds) - 1
    if workers < 2 or not _pool_busy.acquire(blocking=False):
        return [run(*a) for a in args]
    gathered = False
    try:
        with _one_blas_thread(), _pinned() as cpus:
            pool = _workers(workers - 1)
            for k, (_, link) in enumerate(pool, start=1):
                link.send((run, args[bounds[k]:bounds[k + 1]], cpus[k % len(cpus)]))
            results = [run(*a) for a in args[:bounds[1]]]
            for process, link in pool:
                results.extend(_receive(link, process, "a worker"))
            gathered = True
            return results
    finally:
        if not gathered:
            _shutdown()
        _pool_busy.release()


def _spin(semaphore, link) -> bool:
    """Acquire `semaphore` without sleeping: try it again and again,
    giving up the CPU between tries, since the other side may share this
    one (an affinity mask of one CPU), and check `link` every 64 failed
    tries. Returns True once acquired, or False as soon as `link` has
    something to read: a message, or the EOF of a process that has gone."""
    tries = 0
    while not semaphore.acquire(False):
        tries += 1
        if tries % 64 == 0 and link.poll():
            return False
        os.sched_yield()
    return True


class Partner:
    """This process's end of a `_partner`: `shared` is the anonymous
    shared mmap, `wait` returns once the partner has released `done` (its
    part of a step is in `shared`), and `go` releases the partner's `go`
    (this process's part is there)."""

    def __init__(self, link, process, shared: mmap.mmap, done, go):
        self._link, self._process, self.shared = link, process, shared
        self._done, self._go = done, go

    def wait(self) -> None:
        """Spin until the partner has handed its part over (`_spin`); an
        exception it sent is raised here, and a partner that exits first
        raises RuntimeError."""
        while not _spin(self._done, self._link):
            self.receive()

    def go(self) -> None:
        self._go.release()

    def receive(self):
        """The partner's next message; an exception it sent is raised
        here, and a partner that exits first raises RuntimeError."""
        return _receive(self._link, self._process, "the partner process")


def _run_partner(link, other_end, body, shared: mmap.mmap, cpu: int, done, go) -> None:
    """A partner's body: close its copy of the parent's end of the pipe,
    so that the parent's exit reaches `link` as EOF, pin itself to `cpu`,
    then run body(link, shared, done, go) and send the exception that
    stops it, if any."""
    other_end.close()
    try:
        os.sched_setaffinity(0, {cpu})
        body(link, shared, done, go)
    except Exception as exc:            # re-raised by the parent
        _send_outcome(link, exc)
    link.close()


@contextmanager
def _partner(body, size: int):
    """Run body(link, shared, done, go) in a forked partner process and
    yield this process's `Partner`. `link` is the partner's end of a
    two-way pipe, `shared` an anonymous mmap of `size` bytes that both
    processes see, and `done` and `go` the handoff's two semaphores (see
    `Partner`), both at 0. The partner takes `go` with `_spin`, which
    returns False once this process's end of the pipe has closed. For
    the duration, this process is pinned to the first CPU of its affinity
    mask and the partner to the second (the first too, where the mask
    holds one), and both run OpenBLAS on one thread. On exit this process
    restores its affinity mask and joins the partner, which must have
    returned; on an error it terminates the partner first."""
    shared = mmap.mmap(-1, size)
    fork = multiprocessing.get_context("fork")
    done, go = fork.Semaphore(0), fork.Semaphore(0)
    mine, theirs = fork.Pipe()
    finished = False
    with _one_blas_thread(), _pinned() as cpus:
        process = fork.Process(target=_run_partner,
                               args=(theirs, mine, body, shared, cpus[1 % len(cpus)], done, go))
        try:
            try:
                process.start()
            finally:
                theirs.close()
            yield Partner(mine, process, shared, done, go)
            finished = True
        finally:
            if process.pid is not None:     # the fork succeeded
                if not finished:
                    process.terminate()     # it may be waiting for this process
                process.join()
                process.close()
            mine.close()

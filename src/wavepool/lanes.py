"""Two lanes on two CPUs: the lane rule (``lanes``), the OpenBLAS pin
(``_one_blas_thread``, so that the numbers do not depend on the thread count
the process started with) and ``Lanes``, the only code that forks a worker,
writes it a request, reads its reply and reaps it.

A worker may serve many jobs and outlive the call that forked it, so every
live one is kept in ``_LIVE`` until ``Lanes.close`` reaps it. A process
forked while workers live, a worker or anyone else's child, closes their
pipe ends at once (``_forget_workers``): a worker leaves at EOF, which it
would never see while another process held its request pipe open."""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import pickle
import signal
import threading
import traceback
import warnings
from contextlib import contextmanager, suppress
from functools import cache
from itertools import accumulate

import numpy as np

# why a worker's exchange failed, in ``Lanes.fault``; a worker that dies
# raises ``ChildProcessError(DIED)`` in the caller
DIED = "the lane worker exited unexpectedly"
CUT_SHORT = "a request did not finish cleanly"

_LIVE: set[Lanes] = set()  # every Lanes whose worker is forked and not yet reaped


def lanes(sizes) -> tuple[list[int], list[int]]:
    """Split a batch of graphs with the given node counts into two lanes of
    batch positions, each in batch order. Largest graph first (ties in batch
    order), each goes to the lane whose running sum of n^2 is lower, ties to
    lane 0."""
    load, members = [0, 0], ([], [])
    for pos in sorted(range(len(sizes)), key=lambda p: -sizes[p]):
        lane = 0 if load[0] <= load[1] else 1
        load[lane] += sizes[pos] ** 2
        members[lane].append(pos)
    return sorted(members[0]), sorted(members[1])


@cache
def _blas_control() -> tuple:
    """The (get, set) thread-count functions of every loaded OpenBLAS,
    found by file name in /proc/self/maps; empty where there is none."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return ()
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p) and os.path.isfile(p)):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            with suppress(AttributeError):
                controls.append((getattr(library, name.format("get")),
                                 getattr(library, name.format("set"))))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the block with every OpenBLAS of ``_blas_control`` on one thread,
    and give each back the caller's count after."""
    counts = [(set_count, get_count()) for get_count, set_count in _blas_control()]
    for set_count, _ in counts:
        set_count(1)
    try:
        yield
    finally:
        for set_count, count in counts:
            set_count(count)


def worker_plan(count: int) -> tuple[bool, str]:
    """Whether lane 1 of a job of ``count`` graphs runs in a forked process,
    and why or why not. Any BLAS but an OpenBLAS that ``_one_blas_thread``
    can set keeps lane 1 in-process."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False, "this platform has no os.fork or os.sched_getaffinity"
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return False, f"only {cpus} CPU is available"
    if not _blas_control():
        return False, "no OpenBLAS thread control found"
    if threading.active_count() > 1:  # a fork copies no thread but may copy a held lock
        return False, f"{threading.active_count()} Python threads are running"
    if count < 2:
        return False, f"{count} graph{'' if count == 1 else 's'} cannot fill two lanes"
    return True, f"{cpus} CPUs, one OpenBLAS thread per lane, {count} graphs at a time"


def _shared_arrays(shapes):
    """Zeroed float64 arrays of the given shapes in one anonymous shared
    mapping, which a process forked afterwards shares, each on pages of its
    own. Returns the mapping, the arrays and each array's (offset, length)
    in bytes."""
    sizes = [-(-math.prod(shape) * 8 // mmap.PAGESIZE) * mmap.PAGESIZE for shape in shapes]
    mapping = mmap.mmap(-1, sum(sizes))
    spans = list(zip(accumulate(sizes[:-1], initial=0), sizes))
    arrays = [np.frombuffer(mapping, np.float64, math.prod(shape), offset).reshape(shape)
              for shape, (offset, _) in zip(shapes, spans)]
    return mapping, arrays, spans


def _send(pipe, message) -> None:
    pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _shipped(error: Exception) -> tuple[Exception, str]:
    """An error as it crosses a pipe: itself, or a RuntimeError naming it if
    it cannot be pickled, and its traceback text."""
    text = "".join(traceback.format_exception(error))
    try:
        pickle.dumps(error)
    except Exception:  # an error that cannot cross the pipe as itself
        error = RuntimeError(f"{type(error).__name__}: {error}")
    return error, text


def _serve(inbox, outbox, handlers: dict) -> None:
    """A worker's loop: answer each ``(kind, args, indices)`` request read
    from ``inbox`` with ``(handlers[kind](*args, indices), None)``, or
    ``(None, shipped error)`` when the handler raises. Returns at EOF."""
    while True:
        try:
            kind, args, indices = pickle.load(inbox)
        except EOFError:
            return
        try:
            reply = handlers[kind](*args, indices), None
        except Exception as exc:
            reply = None, _shipped(exc)
        _send(outbox, reply)


def _forget_workers() -> None:
    """In a newly forked process: close the pipe ends of every live worker,
    which belong to the parent, and forget them, so that the parent alone
    decides when each worker sees EOF and reaps it."""
    for other in _LIVE:
        for pipe in other.pipes:
            with suppress(OSError):
                pipe.close()
        other.pid = other.pipes = None
    _LIVE.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


class Lanes:
    """Two lanes whose lane 1 runs in one forked worker where
    ``worker_plan(count)`` allows it (``forked``, ``reason``), else here
    after lane 0, with the same numbers. ``handlers`` maps each kind of job
    to the function that runs one lane of it in the worker, given the
    request's arguments and the lane's indices. Call ``fork`` once, then
    ``run`` any number of jobs, then ``close`` to reap the worker. A job whose
    exchange with the worker fails sets ``fault``; the worker is then of no
    further use, and only ``close`` remains."""

    def __init__(self, count: int, handlers: dict):
        self.forked, self.reason = worker_plan(count)
        self.handlers = handlers
        self.pid = self.pipes = self.fault = None

    def fork(self, prepare=None) -> None:
        """Where lane 1 forks: call ``prepare``, which builds what the worker
        should find built, then fork the worker. It sees this process's
        memory as it was at the fork, copy-on-write, apart from shared
        mappings. It ignores SIGINT (the parent handles Ctrl-C) and warnings,
        never logs, and leaves with ``os._exit`` at EOF or on a broken pipe,
        so it also ends when its parent is killed. This process drops the
        handlers, so that a handler bound to an object does not keep it
        alive here."""
        handlers, self.handlers = self.handlers, None
        if not self.forked:
            return
        if prepare is not None:
            prepare()
        from_parent, to_worker = os.pipe()
        from_worker, to_parent = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (from_parent, to_worker, from_worker, to_parent):
                os.close(fd)
            raise
        if pid == 0:  # the worker: serve until EOF, never return
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                warnings.simplefilter("ignore")
                os.close(to_worker)
                os.close(from_worker)
                with os.fdopen(from_parent, "rb") as inbox, os.fdopen(to_parent, "wb") as outbox:
                    _serve(inbox, outbox, handlers)
                status = 0
            finally:
                os._exit(status)
        os.close(from_parent)
        os.close(to_parent)
        self.pid = pid
        self.pipes = (os.fdopen(to_worker, "wb"), os.fdopen(from_worker, "rb"))
        _LIVE.add(self)

    def run(self, graphs, indices, kind: str, here, args=()):
        """Split the graphs at ``indices`` into two ``lanes`` and return each
        lane's positions in ``indices`` and its result. Lane 0 is ``here(its
        indices)``. Lane 1 goes to the worker's ``kind`` handler with
        ``args``, sent before lane 0 starts and received after it ends, even
        when lane 0 raises; with no worker it is ``here`` after lane 0. The
        first error in lane order is raised, and a worker that dies as
        ``ChildProcessError``. Unless the worker's reply arrives whole and
        carries no error, ``fault`` says why."""
        positions = lanes([graphs[i].node_count for i in indices])
        first, second = ([indices[p] for p in lane] for lane in positions)
        if self.pipes is None:
            return positions, [here(first), here(second)]
        requests, replies = self.pipes
        self.fault = CUT_SHORT  # until a whole reply without an error arrives
        try:
            _send(requests, (kind, args, second))
        except BrokenPipeError:
            self.fault = DIED
            raise ChildProcessError(DIED) from None
        try:
            mine = here(first)
        finally:
            try:
                theirs, error = pickle.load(replies)
            except (EOFError, pickle.UnpicklingError):  # no reply, or one cut short
                self.fault = DIED
                raise ChildProcessError(DIED) from None
            if error is None:
                self.fault = None
        if error is not None:
            error, text = error
            if hasattr(error, "add_note"):  # Python 3.11 on
                error.add_note(f"raised in the lane worker:\n{text}")
            raise error
        return positions, [mine, theirs]

    def close(self) -> None:
        """Close the pipes, so that the worker leaves, and reap it. A request
        that a dead worker left unread fails to flush, and its pipe closes
        all the same."""
        if self.pipes is None:
            return
        requests, replies = self.pipes
        self.pipes = None
        _LIVE.discard(self)
        try:
            with suppress(BrokenPipeError):
                requests.close()
            replies.close()
        finally:
            os.waitpid(self.pid, 0)

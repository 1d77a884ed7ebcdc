"""A job split into shares that run on forked processes.

:func:`fork_shares` runs share 0 of a job in the calling process and
each other share in a child made by ``os.fork``. A child pickles its
results, or its first error, back through a pipe and ends with
``os._exit``, so it never returns into its parent's code. Of K shares,
share w makes the results of items w, w + K, w + 2K, ... in order; the
merge interleaves them into item order and raises the error of the
lowest failing item, which is the error a serial run raises. Forking
imports nothing and starts no thread: a child shares its parent's pages
until it writes them. :func:`usable_cpus` caps the share count.
"""

from __future__ import annotations

import os
import pickle
import signal
from operator import itemgetter


def usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``, else
    ``os.cpu_count()``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(share, w: int) -> tuple[list, Exception | None]:
    """The results of share ``w`` up to its first error, and that error."""
    results = []
    try:
        for result in share(w):
            results.append(result)
    except Exception as exc:
        return results, exc
    return results, None


def _child(share, w: int, write_end: int, read_ends: list[int]):
    """Run share ``w`` in a forked child and send back what :func:`_run`
    returns; never returns."""
    code = 1
    try:
        # Every pipe's read end: a write then fails, not blocks, if the
        # parent stops reading.
        for fd in read_ends:
            os.close(fd)
        data = pickle.dumps(_run(share, w), pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, read_end: int, w: int, n: int) -> tuple[list, Exception | None]:
    """What child ``pid`` sent for share ``w`` of ``n``, once it has ended."""
    try:
        with open(read_end, "rb") as fh:
            data = fh.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise ChildProcessError(f"share {w} of {n} was ended by signal {-code}" if code < 0
                                else f"share {w} of {n} ended with exit status {code}")
    return pickle.loads(data)


def _failures(outcomes: list, n: int) -> list[tuple[int, Exception]]:
    """The (item, error) of each failed share of ``outcomes``: a share fails
    at the item after its last result."""
    return [(len(results) * n + w, error) for w, (results, error) in enumerate(outcomes)
            if error is not None]


def fork_shares(share, n: int) -> list:
    """The results of items 0, 1, 2, ... of a job in ``n`` shares, in item
    order: ``share(w)`` is an iterable over the results of items w, w + n,
    w + 2n, ... Share 0 runs here and each other share in a forked child;
    ``n`` = 1 forks nothing. If a share raises, the error raised is that of
    the lowest failing item, and a child whose items all come after it is
    killed, not waited for. A child that dies raises ``ChildProcessError``.
    No child outlives the call.
    """
    pending = []  # (pid, read end) of each child not yet waited for, by share
    try:
        for w in range(1, n):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if not pid:
                _child(share, w, write_end, [fd for _, fd in pending] + [read_end])
            os.close(write_end)
            pending.append((pid, read_end))
        outcomes = [_run(share, 0)]
        for w in range(1, n):
            if any(item < w for item, _ in _failures(outcomes, n)):
                break
            outcomes.append(_collect(*pending.pop(0), w, n))
    finally:
        for pid, read_end in pending:
            os.kill(pid, signal.SIGKILL)
            os.close(read_end)
            os.waitpid(pid, 0)
    if failed := _failures(outcomes, n):
        raise min(failed, key=itemgetter(0))[1]
    return [outcomes[i % n][0][i // n] for i in range(sum(len(r) for r, _ in outcomes))]

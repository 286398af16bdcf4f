"""fork_map: [fn(item) for item in items] over forked worker processes.

The items are split into the contiguous shares of contiguous_ranges, the
one partition rule of the package: the parent runs the first share and one
forked child each further one. fn, the items and everything they reach are
inherited by the fork, not pickled. Only each child's results (or its first
exception) come back, pickled through a pipe, so large outputs belong in
memory mapped shared before the fork (as the stochastic path march does).
The guarantees:

- results come back in item order, whatever the number of workers;
- the exception raised is the serial run's, the first failing item's,
  whatever the number of workers: if the parent's own share raises, the
  children are killed and reaped and the parent's exception propagates;
  otherwise every child is reaped and the first failing share's exception
  is re-raised as its child pickled it;
- a child leaves through os._exit, so no finally block, atexit handler or
  stdio flush of the caller runs in it;
- each child's pipe is read to EOF before the child is reaped, because a
  payload can exceed the pipe buffer;
- without os.fork or os.sched_getaffinity, the items run serially in the
  caller, and so does a fork_map inside a forked worker, which already
  holds its CPU.
"""

import os
import pickle
import signal

_in_worker = False          # set in a forked worker


def usable_cpus() -> int:
    """CPUs fork_map can run workers on: the affinity mask, or 1 without
    os.fork or os.sched_getaffinity, or inside a forked worker."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and not _in_worker:
        return len(os.sched_getaffinity(0))
    return 1


def contiguous_ranges(count: int) -> list:
    """range(count) as min(usable_cpus(), count) contiguous slices (one
    empty slice when count is 0), at the bounds ceil(count w / W):
    nonincreasing sizes, so fork_map's parent share is the first and largest."""
    W = max(1, min(usable_cpus(), count))
    bounds = [-(-count * w // W) for w in range(W + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _child(fn, items, fd):
    """Forked worker: pickle [fn(item) for item in items], or the exception
    of its first failure, to fd, and leave through os._exit."""
    global _in_worker
    _in_worker = True
    code = 1
    try:
        try:
            payload = True, [fn(item) for item in items]
        except BaseException as exc:
            payload = False, exc
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _reap(pid, fd):
    """(payload or None, exit code) of a child; its pipe is read to EOF first."""
    with os.fdopen(fd, "rb") as fh:
        try:
            payload = pickle.load(fh)
        except Exception:               # the child died before it wrote one
            payload = None
        fh.read()
    return payload, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def fork_map(fn, items):
    """[fn(item) for item in items] over min(usable_cpus(), len(items))
    processes, one per share of contiguous_ranges(len(items)): the parent
    runs the first share and a forked child each other one.
    """
    items = list(items)
    shares = contiguous_ranges(len(items))
    children = []                       # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child(fn, items[share], w)
            os.close(w)
            children.append((pid, r))
        results = [fn(item) for item in items[shares[0]]]
        payloads = []
        while children:
            payload, code = _reap(*children[0])
            pid, _ = children.pop(0)
            if code != 0 or payload is None:
                payload = False, RuntimeError(f"forked worker {pid} exited with code "
                                              f"{code} and no readable result")
            payloads.append(payload)
        for ok, value in payloads:      # in share order: the first failure wins
            if not ok:
                raise value
            results += value
        return results
    finally:
        for pid, fd in children:        # left only when the parent raised
            os.kill(pid, signal.SIGKILL)
            _reap(pid, fd)

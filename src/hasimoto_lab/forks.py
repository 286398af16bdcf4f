"""fork_map: [fn(item) for item in items] over forked worker processes.

The parent and one forked child per further CPU of the affinity mask (at
most one process per item) each run a share of the items; fn, the items
and everything they reach are inherited by the fork, not pickled. Only each
child's results (or its first exception) come back, pickled through a pipe,
so large outputs belong in memory mapped shared before the fork (as the
stochastic path march does). The guarantees:

- results come back in item order, whatever the number of workers;
- a child leaves through os._exit, so no finally block, atexit handler or
  stdio flush of the caller runs in it;
- each child's pipe is read to EOF before the child is reaped, because a
  payload can exceed the pipe buffer;
- if the parent's own share raises, the children are killed and reaped and
  the parent's exception propagates; otherwise the exception of the lowest
  failing item index is re-raised as its child pickled it;
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
    """range(count) as min(usable_cpus(), count) contiguous slices, at the
    bounds ceil(count w / W): nonincreasing sizes, so fork_map's parent
    share is the first and largest."""
    W = min(usable_cpus(), count)
    bounds = [-(-count * w // W) for w in range(W + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _child(fn, items, share, fd):
    """Forked worker: pickle fn over items[share], or (item index, exception)
    of its first failure, to fd, and leave through os._exit."""
    global _in_worker
    _in_worker = True
    code, done = 1, []
    try:
        try:
            for i in share:
                done.append(fn(items[i]))
            payload = (True, done)
        except BaseException as exc:
            payload = (False, (share[len(done)], exc))
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
    processes. Items are dealt round-robin in item order; the parent runs
    the first share and a forked child each other one.
    """
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    shares = [range(w, len(items), workers) for w in range(workers)]
    results = [None] * len(items)
    children = []                       # (pid, read end of its pipe, share)
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child(fn, items, share, w)
            os.close(w)
            children.append((pid, r, share))
        for i in shares[0]:
            results[i] = fn(items[i])
        failures = []
        while children:
            payload, code = _reap(*children[0][:2])
            pid, _, share = children.pop(0)
            if code != 0 or payload is None:
                raise RuntimeError(f"forked worker {pid} exited with code {code} "
                                   "and no readable result")
            ok, value = payload
            if ok:
                for i, res in zip(share, value):
                    results[i] = res
            else:
                failures.append(value)
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return results
    finally:
        for pid, fd, _ in children:     # left only when the parent raised
            os.kill(pid, signal.SIGKILL)
            _reap(pid, fd)

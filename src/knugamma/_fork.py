"""``fork_map``: a list of independent items run by this process and
forked children, for ``knu check`` (one check per item) and
``knu signmap`` (one y's files per item).  ``checks.run_suite`` and
``cli._write_maps`` import it only when they run, so start-up does not
compile it or load pickle."""

import os
import pickle
import threading
import warnings
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Tuple

# 8-byte claim records in the queue: 4096 bytes, which a new pipe takes
# whole on Linux and macOS, so the caller can fill it before it forks
_RECORDS = 512


def _claims(queue: int, step: int, count: int) -> Iterator[int]:
    """The item indices this process claims from the pipe ``queue``:
    each 8-byte record there is the first of ``step`` items, and a read
    that finds the pipe empty (its write end is closed) ends the work."""
    while True:
        record = os.read(queue, 8)
        if not record:
            return
        start = int.from_bytes(record, "little")
        yield from range(start, min(start + step, count))


def _run(fn: Callable, items: list, indices: Iterable[int]) -> Tuple[dict, dict]:
    """``fn`` on ``items[i]`` for each i of ``indices``, as
    ({index: result}, {index: exception})."""
    results, errors = {}, {}
    for i in indices:
        try:
            results[i] = fn(items[i])
        except Exception as exc:  # raised by the caller of fork_map, after every item has run
            errors[i] = exc
    return results, errors


def _child(fn: Callable, items: list, claims: Iterator[int], out_fd: int) -> None:
    """A forked process's share of a ``fork_map``: its results, errors
    and recorded warnings go to ``out_fd`` as one pickle, and the
    process ends without running the caller's exit handlers or flushing
    the buffers it copied."""
    status = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            done = _run(fn, items, claims)
        payload = pickle.dumps((*done, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
        with open(out_fd, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn: Callable, items: Iterable, width: Optional[int] = None) -> list:
    """``[fn(item) for item in items]``, run by ``width`` processes:
    this one and ``width - 1`` forked children.  Before it forks, this
    process writes every item index but 0 into a pipe and closes its
    write end; each process then claims the next index by reading it,
    and stops when the pipe is empty.  Item 0 is this process's, so it
    always runs at least one item, and a child that dies loses only the
    items it claimed.  The default width is the number of CPUs this
    process may run on, at most one per item.

    Every item runs even where some raise.  Each child sends back its
    results, its exceptions and the warnings it recorded; once every
    child is reaped, those warnings are issued here and the exception
    of the lowest failing index is raised, or the results are returned
    in item order; an item a dead child never returned raises
    ``RuntimeError``.  Where a fork fails, the processes already started
    share the items.  A width of one, fewer than two items, a platform
    without fork, or other threads running (fork copies only the calling
    thread, so a lock another thread holds would stay locked in the
    children) runs the items here, in order, up to the first that
    raises."""
    items = list(items)
    if width is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        width = min(cpus, len(items))
    if width <= 1 or len(items) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]

    step = -(-(len(items) - 1) // _RECORDS)  # items per record
    queue, queue_end = os.pipe()
    os.write(queue_end, b"".join(i.to_bytes(8, "little") for i in range(1, len(items), step)))
    os.close(queue_end)
    children, payloads = {}, []
    try:
        for _ in range(width - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: those started share the items
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                os.close(read_fd)
                _child(fn, items, _claims(queue, step, len(items)), write_fd)
            os.close(write_fd)
            children[pid] = read_fd
        results, errors = _run(fn, items, chain([0], _claims(queue, step, len(items))))
    finally:
        for pid, read_fd in children.items():
            with open(read_fd, "rb") as fh:
                payloads.append(fh.read())
            os.waitpid(pid, 0)
        os.close(queue)
    for payload in filter(None, payloads):
        child_results, child_errors, caught = pickle.loads(payload)
        results.update(child_results)
        errors.update(child_errors)
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
    lost = [i for i in range(len(items)) if i not in results and i not in errors]
    if lost:
        raise RuntimeError(f"a forked process ended before returning items {lost}")
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(items))]

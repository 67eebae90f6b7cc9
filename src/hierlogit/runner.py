"""Chunks of work on one thread per CPU of the process's affinity mask, in order.

The Monte Carlo kernel and the CSV writer both split their work into chunks
whose numpy calls release the interpreter lock; ``ChunkRunner.map`` runs
them and hands the results back in the order of the chunks.
"""

import itertools
import os
from collections import deque
from functools import partial


def cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class ChunkRunner:
    """``map`` on one thread per CPU, used as ``with ChunkRunner() as runner:``.

    The pool starts at the first map that has two items and serves every
    later map of the runner; with one CPU, or while every map has one item,
    the items run in the calling thread and ``concurrent.futures`` (about
    10 ms to import) is not imported.
    """

    def __init__(self):
        self.workers, self._pool = cpus(), None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def map(self, fn, items):
        """Yield ``fn(item)`` for each of ``items``, in order, as ``map`` does:
        when ``fn`` or the making of an item raises, the results before it come
        first. At most one item per worker is in flight."""
        items = _made(items)
        head = list(itertools.islice(items, 2 if self.workers > 1 else 0))
        if len(head) == 2 and self._pool is None:
            from concurrent.futures import ThreadPoolExecutor  # here, as importing it takes ~10 ms
            self._pool = ThreadPoolExecutor(self.workers)
        submit = partial if len(head) < 2 else lambda fn, item: self._pool.submit(fn, item).result
        calls = (item if isinstance(item, _Raise) else submit(fn, item) for item in itertools.chain(head, items))
        ahead = deque(itertools.islice(calls, self.workers))
        while ahead:
            result = ahead.popleft()()
            ahead.extend(itertools.islice(calls, 1))
            yield result


class _Raise:
    """In place of an item, a call that raises the error its making raised."""

    def __init__(self, err):
        self.err = err

    def __call__(self):
        raise self.err


def _made(items):
    """``items``, then a ``_Raise`` of the error, if any, that making the next one raised."""
    try:
        yield from items
    except Exception as err:
        yield _Raise(err)

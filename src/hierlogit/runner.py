"""Chunks of work on one thread per CPU of the process's affinity mask, in order.

The Monte Carlo kernel and the CSV writer both split their work into chunks
whose numpy calls release the interpreter lock; ``ChunkRunner.map`` runs
them and hands the results back in the order of the chunks.
"""

import itertools
import os
import threading
from collections import deque
from functools import partial


def cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class ChunkRunner:
    """``map`` on one thread per CPU, used as ``with ChunkRunner() as runner:``.

    The threads start at the first map that has two items and serve every
    later map of the runner; with one CPU, or while every map has one item,
    the items run in the calling thread and no thread starts. Leaving the
    ``with`` block joins the threads once they have run the items handed to
    them.
    """

    def __init__(self):
        self.workers, self._threads = cpus(), []
        # items handed to the threads, in order, and a count of them
        self._jobs, self._ready = deque(), threading.Semaphore(0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # a None after every item ends each thread
        for _ in self._threads:
            self._hand(None)
        for thread in self._threads:
            thread.join()

    def map(self, fn, items):
        """Yield ``fn(item)`` for each of ``items``, in order, as ``map`` does:
        when ``fn`` or the making of an item raises, the results before it come
        first. At most one item per worker is in flight."""
        items = _made(items)
        head = list(itertools.islice(items, 2 if self.workers > 1 else 0))
        if len(head) == 2 and not self._threads:
            self._threads = [threading.Thread(target=self._serve) for _ in range(self.workers)]
            for thread in self._threads:
                thread.start()
        submit = partial if len(head) < 2 else lambda fn, item: self._hand(_Job(fn, item))
        calls = (item if isinstance(item, _Raise) else submit(fn, item) for item in itertools.chain(head, items))
        ahead = deque(itertools.islice(calls, self.workers))
        while ahead:
            result = ahead.popleft()()
            ahead.extend(itertools.islice(calls, 1))
            yield result

    def _hand(self, job):
        """Hand ``job`` to the threads, and return it."""
        self._jobs.append(job)
        self._ready.release()
        return job

    def _serve(self):
        while self._ready.acquire() and (job := self._jobs.popleft()) is not None:
            job.run()
            # a finished job holds its result until the caller has taken it, not longer
            del job


class _Job:
    """``fn(item)`` for a thread to run; calling the job waits until it has
    run, then returns its result or raises its error."""

    def __init__(self, fn, item):
        self._call, self._done = partial(fn, item), threading.Lock()
        self._done.acquire()

    def run(self):
        # as in an executor, any error reaches the caller, where the result is read
        try:
            self._result = self._call()
        except BaseException as err:
            self._result = _Raise(err)
        self._call = None
        self._done.release()

    def __call__(self):
        with self._done:
            return self._result() if isinstance(self._result, _Raise) else self._result


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

"""In-order dialog runner that overlaps backend waits across dialogs.

Pipeline code runs one dialog at a time. Each worker thread of
:func:`run_dialogs` holds a shared *turn* lock while it runs a dialog and
gives the turn up only inside :func:`waiting`, which the HTTP backend enters
while a sent request awaits its answer, during a connect to a peer that is
not a loopback address (with its TLS handshake for https) and during a
retry backoff. Dialogs therefore overlap only while they wait on the
backend; RNG draws, counters and every other step run as if serial, and
each dialog's result depends only on its index, so artifacts are
byte-identical at any concurrency.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, TypeVar

__all__ = ["run_dialogs", "waiting"]

T = TypeVar("T")
R = TypeVar("R")

# the turn held by the current worker thread, if it runs inside run_dialogs
_local = threading.local()


def run_dialogs(fn: Callable[[T], R], items: Iterable[T], workers: int) -> list[R]:
    """``[fn(item) for item in items]`` on ``workers`` threads, results in
    item order.

    Each thread holds the turn and takes the next item itself, so the turn
    changes hands only inside :func:`waiting`: with a backend that never
    waits, one thread runs every item. After an exception no further item
    starts, and the lowest-index failed item's exception is raised.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    items = list(items)
    results: list = [None] * len(items)
    errors: dict = {}  # item index -> exception
    turn = threading.Lock()
    indices = iter(range(len(items)))  # shared; advanced only under the turn

    def work() -> None:  # the thread, and so its _local.turn, ends with it
        with turn:
            _local.turn = turn
            for i in indices:
                if errors:
                    break
                try:
                    results[i] = fn(items[i])
                except BaseException as e:  # re-raised by the caller below
                    errors[i] = e

    # daemon threads, so an interrupted caller does not wait for every item
    threads = [threading.Thread(target=work, name=f"dialog-{k}", daemon=True)
               for k in range(min(workers, len(items)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


@contextmanager
def waiting():
    """Give up the caller's turn while it blocks on I/O, so another dialog can
    run; a no-op outside :func:`run_dialogs`."""
    turn = getattr(_local, "turn", None)
    if turn is None:
        yield
        return
    turn.release()
    try:
        yield
    finally:
        turn.acquire()

"""In-order dialog runner that overlaps backend waits across dialogs.

Pipeline code runs one dialog at a time. Each worker thread of
:func:`run_dialogs` holds a shared *turn* lock while it runs a dialog and
gives the turn up only inside :func:`waiting`, which the HTTP backend wraps
around its network round trip and its retry backoff. Dialogs therefore
overlap only while they wait on the backend; RNG draws, counters and every
other step run as if serial, and each dialog's result depends only on its
index, so artifacts are byte-identical at any concurrency.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
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

    On the first exception the items not yet started are cancelled, the
    running ones finish, and the exception of the lowest-index failed item is
    raised, as a serial loop would raise it.
    """
    turn = threading.Lock()

    def one(item: T) -> R:
        with turn:
            _local.turn = turn
            try:
                return fn(item)
            finally:
                _local.turn = None

    with ThreadPoolExecutor(max_workers=workers,
                            thread_name_prefix="dialog") as pool:
        futures = [pool.submit(one, item) for item in items]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for future in futures:
                future.cancel()
    # items start in order, so every cancelled item comes after a failed one
    return [future.result() for future in futures]


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

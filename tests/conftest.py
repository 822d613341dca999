import threading
import time

import pytest

from rotmatch import tensor as T


@pytest.fixture
def lanes(monkeypatch):
    """Make every `tensor.fork_join` call that gets two lanes, and is not made
    inside a lane of another, use both: each lane waits after starting its
    first call until the other has started one, and the calling thread's lane
    then goes on 5 ms late, so the worker's first calls finish before the
    caller's. A call inside a lane runs unpaced: the pool's worker may be
    busy with the outer call. Returns a list with one (call count, set of
    thread idents that ran calls) per `fork_join` call."""
    fork_join = T.fork_join
    record, outer = [], []

    def paced(calls):
        threads, caller = set(), threading.get_ident()
        record.append((len(calls), threads))
        both = not outer and T._ACTIVE_TAPE.get() is None and min(T.LANES, len(calls)) >= 2
        barrier = threading.Barrier(2, timeout=30)

        def run(call):
            me = threading.get_ident()
            if both and me not in threads:
                threads.add(me)
                barrier.wait()
                if me == caller:
                    time.sleep(0.005)
            threads.add(me)
            return call()

        outer.append(both)
        try:
            return fork_join([lambda call=call: run(call) for call in calls])
        finally:
            outer.pop()

    monkeypatch.setattr(T, "fork_join", paced)
    return record

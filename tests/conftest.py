import threading
import time

import pytest

from rotmatch import tensor as T


@pytest.fixture
def lanes(monkeypatch):
    """Make every `tensor.share` call that gets two lanes, and is not made
    inside a lane of another, use both: each lane waits after drawing its
    first item until the other has drawn one, and the calling thread's lane
    then starts 5 ms late, so the worker's first items finish before the
    caller's. A call inside a lane runs unpaced: the pool's worker may be
    busy with the outer call. Returns a list with one (item count, set of
    thread idents that drew items) per call."""
    share = T.share
    calls, outer = [], []

    def paced(lane, items, per_lane=8):
        threads, caller = set(), threading.get_ident()
        calls.append((len(items), threads))
        both = not outer and min(T.LANES, len(items) // per_lane) >= 2
        barrier = threading.Barrier(2, timeout=30)

        def draw(queue):
            for i, item in enumerate(queue):
                threads.add(threading.get_ident())
                if both and i == 0:
                    barrier.wait()
                    if threading.get_ident() == caller:
                        time.sleep(0.005)
                yield item

        outer.append(both)
        try:
            return share(lambda queue: lane(draw(queue)), items, per_lane)
        finally:
            outer.pop()

    monkeypatch.setattr(T, "share", paced)
    return calls

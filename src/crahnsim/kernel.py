"""Deterministic discrete-event engine: event queue, clock, named random streams.

The queue is a binary heap of plain tuples `(at, id, fn, args, target, kind)`;
running an event calls `fn(*args)`, as in the standard library's
`sched.enterabs(time, priority, action, argument=())`, so a caller passes its
handler and arguments rather than building a closure per event. Tuples compare
element by element and ids are unique, so the heap orders by `(at, id)` and
never compares the handler, its arguments or its labels.
"""

import hashlib
import heapq
import math
from typing import Callable, Iterator, Optional

import numpy as np

DEFAULT_SIM_TIME_S = 500.0


class PastTimeError(ValueError):
    """Raised when an event is scheduled before the current clock."""


def stream_seed(seed: int, label: str) -> int:
    """Stable 64-bit seed for a (seed, label) pair, identical across platforms."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def named_stream(seed: int, label: str) -> np.random.Generator:
    """A new generator for a (seed, label) pair; the same pair yields the same sequence."""
    return np.random.Generator(np.random.PCG64(stream_seed(seed, label)))


def block_draws(draw: Callable[[int], np.ndarray], size: int) -> Iterator:
    """The values of successive `draw(size)` calls, one at a time, as Python
    floats or ints.

    For a stream method such as `Generator.random`, these are in order the
    values of its scalar calls, at a fraction of the per-value cost. The
    stream moves on a whole block at a time, so the iterator must be its
    only reader."""
    while True:
        yield from draw(size).tolist()


# The two helpers below return numpy's own values, computed as numpy computes
# them, without its per-call dispatch: a scalar `uniform` or `integers` call
# took about 2 us, the helpers 0.5-0.7 us (2-vCPU Xeon, Python 3.11, numpy
# 2.4). So a stream gives the same floats and ints as through the numpy calls.

def draw_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """`rng.uniform(low, high)` as numpy computes it, `low + (high - low) *
    rng.random()`, raising where numpy raises and then drawing nothing."""
    span = high - low
    if not 0 <= span < math.inf:
        if span < 0 and span != -math.inf:
            raise ValueError("high - low < 0")
        raise OverflowError("high - low range exceeds valid bounds")
    return low + span * rng.random()


def bounded_draws(rng: np.random.Generator, size: int) -> Callable[[int], int]:
    """A function n -> `int(rng.integers(0, n))` for 1 <= n <= 2**32.

    It applies numpy's scalar algorithm (Lemire's multiply and reject, one
    32-bit word per try, no draw when n == 1) to words read `size` at a time:
    a uint32 block holds the stream's successive 32-bit words. As with
    `block_draws`, it must be the stream's only reader."""
    words = block_draws(lambda k: rng.integers(0, 2**32, k, dtype=np.uint32), size)

    def draw(n: int) -> int:
        if not 1 <= n <= 2**32:
            raise ValueError(f"bounded draw needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        m = next(words) * n
        if m & 0xFFFFFFFF < n:
            threshold = (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next(words) * n
        return m >> 32
    return draw


class Kernel:
    """Single-threaded event loop.

    Execution order is totally determined by (at, id); ids are assigned in
    scheduling order, so ties at equal timestamps run in scheduling order.
    """

    def __init__(self, seed: int = 0, end: float = DEFAULT_SIM_TIME_S,
                 trace: Optional[list] = None):
        self.now = 0.0
        self.end = float(end)
        self.seed = int(seed)
        self._heap: list[tuple] = []  # (at, id, fn, args, target, kind)
        self._next_id = 1
        self._pending: set[int] = set()
        self._streams: dict[str, np.random.Generator] = {}
        self.trace = trace

    def stream(self, label: str) -> np.random.Generator:
        """Named random stream; same (seed, label) yields the same sequence."""
        gen = self._streams.get(label)
        if gen is None:
            gen = named_stream(self.seed, label)
            self._streams[label] = gen
        return gen

    @property
    def next_id(self) -> int:
        """The id that the next `schedule` call returns."""
        return self._next_id

    def schedule(self, at: float, fn: Callable[..., None], *, args: tuple = (),
                 target: str = "system", kind: str = "event") -> int:
        """Run `fn(*args)` at time `at`; returns the event id."""
        if not at >= self.now:  # also rejects NaN, which no ordering could place
            raise PastTimeError(
                f"cannot schedule at t={at} (clock is at t={self.now})")
        eid = self._next_id
        self._next_id = eid + 1
        heapq.heappush(self._heap, (float(at), eid, fn, args, target, kind))
        self._pending.add(eid)
        return eid

    def every(self, period: float, fn: Callable[[], None], *, target: str = "system",
              kind: str = "event") -> int:
        """Run `fn()` at now + period, then again `period` after each run while
        that falls at or before `end`; returns the first event's id. A period
        that is not > 0 raises ValueError and schedules nothing."""
        if not period > 0:  # also rejects NaN
            raise ValueError(f"every: period must be > 0, got {period}")
        return self.schedule(self.now + period, self._every, args=(period, fn, target, kind),
                             target=target, kind=kind)

    def _every(self, period: float, fn: Callable[[], None], target: str, kind: str) -> None:
        fn()
        if self.now + period <= self.end:
            self.every(period, fn, target=target, kind=kind)

    def cancel(self, event_id: int) -> bool:
        if event_id in self._pending:
            self._pending.discard(event_id)
            return True
        return False

    def run_until(self, t_end: Optional[float] = None) -> int:
        """Execute all events with at <= t_end (closed interval); advance clock to t_end."""
        if t_end is None:
            t_end = self.end
        if not t_end >= self.now:
            raise PastTimeError(
                f"cannot run backwards to t={t_end} (clock is at t={self.now})")
        heap, pending, pop, trace = self._heap, self._pending, heapq.heappop, self.trace
        executed = 0
        while heap and heap[0][0] <= t_end:
            at, eid, fn, args, target, kind = pop(heap)
            if eid not in pending:
                continue  # cancelled
            pending.remove(eid)
            self.now = at
            if trace is not None:
                trace.append(f"{at:.6f},{eid},{target},{kind}")
            fn(*args)
            executed += 1
        self.now = t_end
        return executed

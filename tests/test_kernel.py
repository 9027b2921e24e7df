"""Event-queue semantics: ordering, cancellation, horizons, named streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crahnsim.kernel import Kernel, PastTimeError, named_stream, stream_seed


def test_first_event_on_empty_queue_gets_id_one():
    k = Kernel(seed=0)
    fired = []
    eid = k.schedule(0.0, lambda: fired.append("E"))
    assert eid == 1
    k.run_until(1.0)
    assert fired == ["E"]


def test_time_ordering_beats_scheduling_order():
    k = Kernel(seed=0)
    order = []
    k.schedule(5.0, lambda: order.append("A"))
    k.schedule(3.0, lambda: order.append("B"))
    k.run_until(10.0)
    assert order == ["B", "A"]


def test_equal_timestamps_run_in_scheduling_order():
    k = Kernel(seed=0)
    order = []
    for name in ("x", "y", "z"):
        k.schedule(2.0, lambda n=name: order.append(n))
    k.run_until(2.0)
    assert order == ["x", "y", "z"]


def test_thousand_random_events_match_stable_sort_oracle():
    rng = np.random.Generator(np.random.PCG64(7))
    k = Kernel(seed=0)
    executed = []
    expected = []
    for i in range(1000):
        at = float(rng.uniform(0.0, 100.0))
        eid = k.schedule(at, lambda i=i: executed.append(i))
        expected.append((at, eid, i))
    expected.sort(key=lambda e: (e[0], e[1]))
    k.run_until(100.0)
    assert executed == [i for _, _, i in expected]


def test_cancel_pending_then_cancel_again():
    k = Kernel(seed=0)
    fired = []
    eid = k.schedule(1.0, lambda: fired.append(1))
    assert k.cancel(eid) is True
    assert k.cancel(eid) is False
    k.run_until(5.0)
    assert fired == []


def test_cancel_unknown_id_is_false():
    assert Kernel(seed=0).cancel(42) is False


def test_schedule_ten_cancel_five_matches_set_difference():
    rng = np.random.Generator(np.random.PCG64(3))
    k = Kernel(seed=0)
    fired = []
    ids = [k.schedule(float(rng.uniform(0, 10)), lambda i=i: fired.append(i))
           for i in range(10)]
    dropped = set(rng.choice(10, size=5, replace=False).tolist())
    for i in dropped:
        assert k.cancel(ids[i])
    k.run_until(10.0)
    assert sorted(fired) == sorted(set(range(10)) - dropped)


def test_run_until_zero_with_no_events():
    k = Kernel(seed=0)
    assert k.run_until(0.0) == 0
    assert k.now == 0.0


def test_run_until_advances_clock_to_horizon():
    k = Kernel(seed=0, end=500.0)
    assert k.run_until() == 0
    assert k.now == 500.0


def test_event_exactly_at_horizon_executes():
    k = Kernel(seed=0)
    fired = []
    k.schedule(5.0, lambda: fired.append(1))
    k.run_until(5.0)
    assert fired == [1]


def test_child_event_beyond_horizon_stays_pending():
    k = Kernel(seed=0)
    fired = []

    def parent():
        fired.append("parent")
        k.schedule(20.0, lambda: fired.append("child"))

    k.schedule(10.0, parent)
    assert k.run_until(15.0) == 1
    assert fired == ["parent"]
    k.run_until(25.0)
    assert fired == ["parent", "child"]


def test_handler_scheduled_event_at_current_time_runs_same_call():
    k = Kernel(seed=0)
    fired = []
    k.schedule(1.0, lambda: k.schedule(k.now, lambda: fired.append("same-t")))
    k.run_until(1.0)
    assert fired == ["same-t"]


def test_past_scheduling_rejected():
    k = Kernel(seed=0)
    k.schedule(1.0, lambda: None)
    k.run_until(5.0)
    with pytest.raises(PastTimeError):
        k.schedule(4.0, lambda: None)
    with pytest.raises(PastTimeError):
        k.run_until(3.0)


def test_nan_times_rejected_without_touching_the_queue_or_clock():
    k = Kernel(seed=0)
    fired = []
    k.schedule(1.0, lambda: fired.append(1))
    with pytest.raises(PastTimeError):
        k.schedule(float("nan"), lambda: fired.append("nan"))
    with pytest.raises(PastTimeError):
        k.run_until(float("nan"))
    assert k.now == 0.0
    assert k.run_until(2.0) == 1
    assert fired == [1]
    assert k.schedule(3.0, lambda: None) == 2  # the rejected calls used no id


@pytest.mark.parametrize("start,end,expected,pending", [
    (0.0, 10.0, ["3.000000,1,t,tick", "3.500000,2,system,child",
                 "6.000000,3,t,tick", "6.500000,4,system,child",
                 "9.000000,5,t,tick", "9.500000,6,system,child"], []),
    # a run exactly at the horizon still happens; its child lies past it
    (0.0, 9.0, ["3.000000,1,t,tick", "3.500000,2,system,child",
                "6.000000,3,t,tick", "6.500000,4,system,child",
                "9.000000,5,t,tick"], [6]),
    (1.0, 7.5, ["4.000000,1,t,tick", "4.500000,2,system,child",
                "7.000000,3,t,tick", "7.500000,4,system,child"], []),
    # period > end: the first run is scheduled unchecked and never reached
    (0.0, 2.0, [], [1]),
])
def test_every_matches_hand_written_schedule(start, end, expected, pending):
    trace = []
    k = Kernel(seed=0, end=end, trace=trace)
    k.run_until(start)

    def tick():
        # an event the handler schedules takes its id before the next run's
        k.schedule(k.now + 0.5, lambda: None, kind="child")
    assert k.every(3.0, tick, target="t", kind="tick") == 1
    k.run_until(end)
    assert trace == expected
    assert [e for e in range(1, 10) if k.cancel(e)] == pending


def test_args_are_passed_to_the_handler():
    k = Kernel(seed=0)
    got = []
    k.schedule(1.0, lambda *a: got.append(a), args=(7, "x"))
    k.schedule(2.0, lambda *a: got.append(a))
    k.run_until(2.0)
    assert got == [(7, "x"), ()]


def test_trace_is_identical_across_identical_runs():
    def run():
        trace = []
        k = Kernel(seed=11, trace=trace)
        rng = k.stream("setup")
        for i in range(50):
            k.schedule(float(rng.uniform(0, 100)), lambda: None,
                       target=f"n{i % 5}", kind="tick")
        k.run_until(100.0)
        return trace

    assert run() == run()


def test_streams_are_cached_and_label_separated():
    k = Kernel(seed=5)
    a1 = k.stream("mobility")
    a2 = k.stream("mobility")
    assert a1 is a2
    b = k.stream("pu-activity")
    assert k.stream("mobility").random() != b.random()


def test_stream_seed_is_platform_stable():
    # frozen reference value; a change here breaks reproducibility of all runs
    assert stream_seed(1, "replication-0") == 12551491362725246854
    assert stream_seed(0, "mobility") != stream_seed(0, "pu-activity")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=60))
def test_execution_order_is_sorted_by_time_then_id(times):
    k = Kernel(seed=0)
    seen = []
    keys = []
    for t in times:
        eid = k.schedule(t, lambda t=t: seen.append(t))
        keys.append((t, eid))
    k.run_until(1e3)
    assert seen == [t for t, _ in sorted(keys, key=lambda p: (p[0], p[1]))]


@pytest.mark.parametrize("period", [0.0, -1.0, float("nan")])
def test_every_rejects_a_period_that_is_not_positive(period):
    # every(0, fn) used to re-schedule itself at the same instant forever
    k = Kernel(seed=0, end=10.0)
    with pytest.raises(ValueError, match="period must be > 0"):
        k.every(period, lambda: None)
    assert k.next_id == 1  # nothing was scheduled
    assert k.now == 0.0


def test_named_stream_is_the_kernel_stream_of_that_seed_and_label():
    a = named_stream(5, "detector-train-3").random(4)
    b = Kernel(seed=5).stream("detector-train-3").random(4)
    assert np.array_equal(a, b)
    assert np.array_equal(named_stream(5, "x").random(4), named_stream(5, "x").random(4))

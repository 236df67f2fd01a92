"""The discrete-event simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_resolve_in_scheduling_order():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.schedule(1.0, lambda label=label: order.append(label))
    sim.run()
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []


def test_events_can_schedule_events():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, lambda: seen.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == [2.0]


def test_run_until_leaves_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("early"))
    sim.schedule(5.0, lambda: fired.append("late"))
    sim.run_until(2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    assert sim.pending == 1


def test_run_for_is_relative():
    sim = Simulator()
    sim.run_for(2.0)
    sim.run_for(3.0)
    assert sim.now == 5.0


def test_runaway_loop_detected():
    sim = Simulator()

    def again():
        sim.schedule(0.0, again)

    sim.schedule(0.0, again)
    with pytest.raises(RuntimeError):
        sim.run(max_events=100)


def test_periodic_task_fires_until_stopped():
    sim = Simulator()
    ticks = []
    task = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run_until(3.5)
    task.stop()
    sim.run_until(10.0)
    assert ticks == [1.0, 2.0, 3.0]
    assert task.stopped


def test_periodic_start_delay():
    sim = Simulator()
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now), start_delay=0.0)
    sim.run_until(2.5)
    assert ticks == [0.0, 1.0, 2.0]


def test_periodic_zero_interval_rejected():
    with pytest.raises(ValueError):
        Simulator().every(0, lambda: None)


def test_dispatched_counter():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.run()
    assert sim.dispatched == 2


def test_pending_counts_live_events_without_heap_scans():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending == 5
    events[0].cancel()
    assert sim.pending == 4  # cancel decrements immediately
    sim.step()  # fires the 2.0 event (the cancelled one is skipped)
    assert sim.pending == 3
    sim.run()
    assert sim.pending == 0


def test_cancel_is_idempotent_for_pending():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    other = sim.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()  # double-cancel must not double-decrement
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    other.cancel()  # cancel-after-fire is a no-op
    assert sim.pending == 0


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        # An event whose callback schedules another, ``delay`` later.
        st.tuples(st.just("chain"), st.sampled_from([0.0, 0.5])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("run_until"), st.sampled_from([0.0, 0.5, 1.5])),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(ops=_OPS)
def test_fire_order_is_the_time_seq_sort(ops):
    """Random schedule/cancel/step runs against a sorted-dict reference:
    events fire in ``(time, seq)`` order, and ``pending``, ``dispatched``
    and ``now`` agree after every operation."""
    sim = Simulator()
    fired: list[int] = []
    handles = {}
    labels = iter(range(10**6))

    def sim_schedule(delay, chained):
        label = next(labels)

        def fire():
            fired.append(label)
            if chained is not None:
                sim_schedule(chained, None)

        handles[label] = sim.schedule(delay, fire)

    # The reference: label -> (time, label, chained delay); the label is the scheduling order.
    queue: dict[int, tuple[float, int, float | None]] = {}
    expected: list[int] = []
    ref_labels = iter(range(10**6))
    now = 0.0

    def ref_schedule(when, chained):
        label = next(ref_labels)
        queue[label] = (when, label, chained)

    def ref_fire(until=None):
        nonlocal now
        while queue:
            when, label, chained = min(queue.values())
            if until is not None and when > until:
                break
            del queue[label]
            now = when
            expected.append(label)
            if chained is not None:
                ref_schedule(when + chained, None)
            if until is None:
                break

    for op, arg in ops:
        if op in ("schedule", "chain"):
            chained = None if op == "schedule" else arg
            sim_schedule(arg, chained)
            ref_schedule(now + arg, chained)
        elif op == "cancel":
            if arg in handles:
                handles[arg].cancel()
                queue.pop(arg, None)
        elif op == "step":
            assert sim.step() == bool(queue)
            ref_fire()
        else:
            deadline = now + arg
            sim.run_until(deadline)
            ref_fire(deadline)
            now = max(now, deadline)
        assert fired == expected
        assert sim.pending == len(queue)
        assert sim.dispatched == len(expected)
        assert sim.now == now

"""Kernel tests: clock, event ordering, run() modes."""

import pytest

from repro.sim import Event, EventAlreadyTriggered, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_run_until_time_stops_before_due_events():
    sim = Simulator()
    fired = []
    sim.call_later(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert fired == []
    sim.run()
    assert fired == ["late"]
    assert sim.now == 10.0


def test_run_until_exact_boundary_excludes_event_at_deadline():
    sim = Simulator()
    fired = []
    sim.call_later(5.0, fired.append, "x")
    sim.run(until=5.0)
    assert fired == []  # events due exactly at the deadline are left queued
    sim.run()
    assert fired == ["x"]


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.call_later(1.0, order.append, label)
    sim.run()
    assert order == ["a", "b", "c"]


def test_events_process_in_time_order():
    sim = Simulator()
    order = []
    sim.call_later(3.0, order.append, 3)
    sim.call_later(1.0, order.append, 1)
    sim.call_later(2.0, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_call_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_call_at_in_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError):
        sim.call_at(5.0, lambda: None)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 42

    process = sim.process(proc(sim))
    assert sim.run(until=process) == 42


def test_run_until_event_raises_its_exception():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    process = sim.process(proc(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=process)


def test_run_until_never_triggered_event_raises_runtime_error():
    sim = Simulator()
    marker = sim.event()
    with pytest.raises(RuntimeError):
        sim.run(until=marker)


def test_run_backwards_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_manual_event_succeed():
    sim = Simulator()
    event = sim.event()
    values = []
    event.callbacks.append(lambda ev: values.append(ev.value))
    event.succeed("payload")
    sim.run()
    assert values == ["payload"]
    assert event.processed


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        event.fail(ValueError())


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_event_value_raises_stored_exception():
    sim = Simulator()
    event = sim.event()
    event.fail(KeyError("missing"))
    sim.run()
    assert not event.ok
    with pytest.raises(KeyError):
        _ = event.value


def test_delayed_succeed():
    sim = Simulator()
    event = sim.event()
    stamps = []
    event.callbacks.append(lambda ev: stamps.append(sim.now))
    event.succeed(delay=3.0)
    sim.run()
    assert stamps == [3.0]


def test_stop_simulation_from_callback():
    sim = Simulator()
    sim.call_later(1.0, sim.stop, "halted")
    sim.call_later(2.0, lambda: pytest.fail("should not run"))
    assert sim.run() == "halted"
    assert sim.now == 1.0


def test_processed_event_counter():
    sim = Simulator()
    for _ in range(5):
        sim.timeout(1.0)
    sim.run()
    assert sim.processed_events == 5


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    sim.timeout(3.0)
    assert sim.peek() == 3.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_trigger_chaining():
    sim = Simulator()
    source = sim.event()
    sink = sim.event()
    source.succeed("chained")
    sim.run()
    sink.trigger(source)
    sim.run()
    assert sink.value == "chained"


def test_event_trigger_chaining_failure():
    sim = Simulator()
    source = sim.event()
    sink = sim.event()
    source.fail(RuntimeError("bad"))
    sim.run()
    sink.trigger(source)
    sim.run()
    assert not sink.ok
    assert isinstance(sink.exception, RuntimeError)


# -- scheduled-call contract ------------------------------------------------


def test_cancel_call_returns_true_once_then_false():
    sim = Simulator()
    handle = sim.call_later(1.0, lambda: None)
    assert sim.cancel_call(handle) is True
    assert sim.cancel_call(handle) is False


def test_cancel_call_after_the_call_ran_returns_false():
    sim = Simulator()
    fired = []
    handle = sim.call_at(2.0, fired.append, "ran")
    sim.run()
    assert fired == ["ran"]
    assert sim.cancel_call(handle) is False


def test_cancelled_call_never_runs_but_counts_as_processed():
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, fired.append, "cancelled")
    sim.call_later(2.0, fired.append, "kept")
    sim.cancel_call(handle)
    sim.run()
    assert fired == ["kept"]
    assert sim.processed_events == 2
    assert sim.now == 2.0


def test_call_later_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(-1, lambda: None)


def _mixed_same_instant(sim, log):
    """Schedule one entry of every kind for ``sim.now + 1`` and, from a
    callback at that instant, one of every kind at zero delay."""

    def proc(label):
        log.append(label)
        yield sim.timeout(0)

    def at_one():
        log.append("call_later@1")
        sim.call_later(0.0, log.append, "call_later@0")
        sim.timeout(0.0).callbacks.append(lambda _e: log.append("timeout@0"))
        sim.process(proc("process@0"))
        sim.call_at(sim.now, log.append, "call_at@0")
        event = sim.event()
        event.callbacks.append(lambda _e: log.append("succeed@0"))
        event.succeed()
        sim.process(proc("process@0b"))

    sim.call_later(1.0, at_one)
    sim.timeout(1.0).callbacks.append(lambda _e: log.append("timeout@1"))
    sim.call_at(1.0, log.append, "call_at@1")
    delayed = sim.event()
    delayed.callbacks.append(lambda _e: log.append("succeed@1"))
    delayed.succeed(delay=1.0)
    sim.call_later(1.0, log.append, "call_later@1b")


@pytest.mark.parametrize("profiled", [False, True])
def test_same_instant_fifo_across_entry_kinds(profiled):
    from repro.obs import SimProfiler

    sim = Simulator()
    if profiled:
        sim.attach_profiler(SimProfiler(timing_stride=2))
    log = []
    _mixed_same_instant(sim, log)
    sim.run()
    assert log == [
        "call_later@1",
        "timeout@1",
        "call_at@1",
        "succeed@1",
        "call_later@1b",
        "call_later@0",
        "timeout@0",
        "process@0",
        "call_at@0",
        "succeed@0",
        "process@0b",
    ]
    assert sim.now == 1.0


def test_same_instant_fifo_holds_when_stepping():
    sim = Simulator()
    log = []
    _mixed_same_instant(sim, log)
    while sim.peek() != float("inf"):
        sim.step()
    reference = Simulator()
    expected = []
    _mixed_same_instant(reference, expected)
    reference.run()
    assert log == expected


def test_call_reserved_runs_where_the_reservation_was_made():
    sim = Simulator()
    log = []
    key = sim.reserve(1.0)
    sim.call_later(1.0, log.append, "scheduled after the reservation")
    sim.call_later(0.5, lambda: sim.call_later(0.5, log.append, "at 0.5"))
    sim.call_later(0.6, lambda: sim.call_reserved(key, log.append, "reserved"))
    sim.run()
    assert log == ["reserved", "scheduled after the reservation", "at 0.5"]
    assert sim.now == 1.0


def test_reservation_rejects_negative_delay_and_past_keys():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.reserve(-1.0)
    key = sim.reserve(0.5)
    sim.run(until=1.0)
    with pytest.raises(ValueError):
        sim.call_reserved(key, lambda: None)

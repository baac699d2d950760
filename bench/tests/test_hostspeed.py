"""HostClock scales each stretch of work by the host speed around it."""

import pytest

from bench import hostspeed


def test_stretches_scale_by_the_mean_of_the_probes_around_them(monkeypatch):
    slowdowns = iter([9.0, 1.0, 2.0, 4.0])  # warm-up, start, then per flush
    monkeypatch.setattr(hostspeed.HostClock, "_probe",
                        lambda self: next(slowdowns))
    clock = hostspeed.HostClock()
    clock.add("import", 0.3, probe=True)  # between 1.0 and 2.0
    clock.add("run", 0.1)
    clock.add("run", 0.2)  # reaches PROBE_EVERY_S: between 2.0 and 4.0
    assert clock.raw == pytest.approx({"import": 0.3, "run": 0.3})
    assert clock.ref == pytest.approx({"import": 0.2, "run": 0.1})


def test_probe_measures_the_kernel():
    clock = hostspeed.HostClock()
    assert len(clock.probes) == 1 and clock.probes[0] > 0
    seconds = clock.timed("run", sum, [1, 2, 3], probe=True)
    assert seconds == 6 and len(clock.probes) == 2
    assert clock.ref["run"] > 0

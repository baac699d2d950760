"""The tracer wraps and restores class attributes exactly."""

import time

import pytest

from bench import trace, workloads
from bench.hostspeed import HostClock
from bench.trace import TARGETS, Tracer


class Toy:
    def outer(self):
        time.sleep(0.002)
        return self.inner()

    def inner(self):
        time.sleep(0.004)
        return 7


class Base:
    def send(self):
        return "base"


class Derived(Base):
    def send(self):
        return super().send() + "+derived"


TOYS = (
    ("toy.outer", f"{__name__}:Toy", "outer", False),
    ("toy.inner", f"{__name__}:Toy", "inner", False),
    ("toy.send", f"{__name__}:Base", "send", True),
)


def originals():
    """(class, attribute) -> the function in its __dict__, for every
    class a target can touch."""
    found = {}
    for _name, path, attr, subclasses in TARGETS:
        cls = trace._resolve(path)
        for owner in trace._family(cls) if subclasses else [cls]:
            if attr in owner.__dict__:
                found[(owner, attr)] = owner.__dict__[attr]
    return found


def assert_restored(before):
    for (owner, attr), fn in before.items():
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr}"


def test_install_wraps_and_restore_puts_back_by_identity():
    before = originals()
    tracer = Tracer()
    tracer.install()
    try:
        changed = [key for key, fn in before.items()
                   if key[0].__dict__[key[1]] is not fn]
        assert len(changed) == len(before)
        assert tracer.skipped == []
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    assert_restored(before)
    tracer.restore()  # idempotent
    assert_restored(before)


def test_restored_when_the_run_raises(monkeypatch):
    before = originals()

    def broken(config):
        raise RuntimeError("build failed")

    monkeypatch.setattr(workloads, "build_scenario", broken)
    with pytest.raises(RuntimeError, match="build failed"):
        workloads.execute("fig4-packet", 1, HostClock(), tracer=Tracer())
    assert_restored(before)


def test_missing_targets_are_skipped_and_listed():
    gone = (
        ("gone.class", "repro.net:NoSuchClass", "enqueue", False),
        ("gone.module", "repro.no_such_module:Thing", "run", False),
        ("gone.method", "repro.net:Link", "no_such_method", False),
    )
    tracer = Tracer(targets=TOYS + gone)
    tracer.install()
    tracer.restore()
    assert tracer.skipped == [
        "repro.net:NoSuchClass.enqueue",
        "repro.no_such_module:Thing.run",
        "repro.net:Link.no_such_method",
    ]
    assert tracer.report()["calls"]["gone.class"]["calls"] == 0


def test_counts_and_self_time():
    tracer = Tracer(targets=TOYS)
    tracer.install()
    try:
        assert Toy().outer() == 7
        assert Derived().send() == "base+derived"
        assert Base().send() == "base"
    finally:
        tracer.restore()
    calls = tracer.report()["calls"]
    assert calls["toy.outer"]["calls"] == calls["toy.inner"]["calls"] == 1
    outer, inner = calls["toy.outer"], calls["toy.inner"]
    assert outer["total_s"] >= inner["total_s"] >= 0.004
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - inner["total_s"], abs=1e-9
    )
    # A super() call from an override is one call, not two.
    assert calls["toy.send"]["calls"] == 2

"""Shared fixtures for the test suite."""

import pytest

from repro.core import toggles
from repro.sampleconfigs import load_translation_source
from repro.juniper import translate_cisco_to_juniper
from repro.topology import generate_star_network
from repro.topology.reference import build_reference_configs


@pytest.fixture(autouse=True)
def _toggle_hygiene():
    """Fail any test that leaks a non-default global toggle or leaves a
    planted bug enabled.

    The A/B toggles and the planted-bug flags are process globals; a
    test that flips one and returns without restoring it silently
    changes the behavior of every test that runs after it.  The state
    is restored here either way, so one leak cannot cascade — but the
    leaking test itself fails loudly.
    """
    from repro.batfish.bgpsim import _plant_bug, _planted_bugs

    yield
    leaked = toggles.deviations()
    planted = sorted(_planted_bugs())
    toggles.apply(dict(toggles.DEFAULTS))
    for name in planted:
        _plant_bug(name, False)
    assert not leaked, (
        "test leaked non-default global toggles: "
        + ", ".join(
            f"{name}={current!r} (default {default!r})"
            for name, current, default in leaked
        )
    )
    assert not planted, f"test left planted bugs enabled: {planted}"


@pytest.fixture(autouse=True)
def _metrics_hygiene():
    """Fail any test that leaks nonzero gauges, open spans, or leaves
    tracing enabled; zero the metrics registry either way.

    Counters and timers accumulate freely during a test (that is their
    job), but a gauge that doesn't return to zero means paired
    inc/dec calls went unbalanced, an open span means a context manager
    leaked, and enabled tracing buffers events forever.  Resetting the
    registry after every test keeps each test's deltas self-contained.
    """
    from repro import obs
    from repro.obs.tracing import _stack

    yield
    dirty_gauges = [
        (g.name, g.value) for g in obs.REGISTRY.gauges() if g.value
    ]
    open_spans = len(_stack())
    traced = obs.tracing_enabled()
    obs.set_tracing(False)
    obs.drain_events()
    obs.reset_metrics()
    assert not dirty_gauges, (
        f"test left nonzero gauges: {dirty_gauges}"
    )
    assert not open_spans, f"test left {open_spans} span(s) open"
    assert not traced, "test left phase tracing enabled"


@pytest.fixture(scope="session")
def source_config():
    """The bundled Cisco config of the translation use case."""
    return load_translation_source()


@pytest.fixture()
def reference_juniper(source_config):
    """The correct Juniper translation (fresh copy per test)."""
    reference, _ = translate_cisco_to_juniper(load_translation_source())
    return reference


@pytest.fixture(scope="session")
def star7():
    """Figure 4's 7-router star."""
    return generate_star_network(7)


@pytest.fixture()
def star7_configs(star7):
    """Reference no-transit configs for the 7-router star."""
    return build_reference_configs(star7.topology)

"""The toggle registry: snapshot/apply/scoped restoration semantics."""

import pytest

from repro.batfish.bgpsim import (
    incremental_simulation_enabled,
    set_incremental_simulation,
)
from repro.core import toggles
from repro.symbolic.memo import memoization_enabled


class TestSnapshot:
    def test_registry_is_exactly_the_two_oracles(self):
        assert list(toggles.snapshot()) == [
            "incremental_simulation",
            "memoization",
        ]

    def test_snapshot_covers_every_default(self):
        assert set(toggles.snapshot()) == set(toggles.DEFAULTS)

    def test_defaults_are_the_all_on_configuration(self):
        assert toggles.DEFAULTS == {
            "incremental_simulation": True,
            "memoization": True,
        }

    def test_snapshot_reflects_live_state(self):
        set_incremental_simulation(False)
        try:
            assert toggles.snapshot()["incremental_simulation"] is False
        finally:
            set_incremental_simulation(True)


class TestApply:
    def test_apply_roundtrip(self):
        before = toggles.snapshot()
        toggles.apply({"memoization": False})
        try:
            assert not memoization_enabled()
            assert incremental_simulation_enabled()
        finally:
            toggles.apply(before)
        assert memoization_enabled()

    def test_apply_rejects_unknown_names_before_touching_anything(self):
        before = toggles.snapshot()
        with pytest.raises(ValueError, match="unknown toggle"):
            toggles.apply({"memoization": False, "no_such_toggle": True})
        assert toggles.snapshot() == before

    def test_retired_toggles_are_unknown(self):
        with pytest.raises(ValueError, match="route_model"):
            toggles.apply({"route_model": "v1"})


class TestScopes:
    def test_scoped_applies_and_restores(self):
        with toggles.scoped(incremental_simulation=False, memoization=False):
            assert not incremental_simulation_enabled()
            assert not memoization_enabled()
        assert incremental_simulation_enabled()
        assert memoization_enabled()

    def test_scoped_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with toggles.scoped(memoization=False):
                assert not memoization_enabled()
                raise RuntimeError("boom")
        assert memoization_enabled()

    def test_preserved_restores_manual_flips(self):
        with toggles.preserved():
            set_incremental_simulation(False)
            assert not incremental_simulation_enabled()
        assert incremental_simulation_enabled()

    def test_deviations_names_the_leak(self):
        set_incremental_simulation(False)
        try:
            leaks = toggles.deviations()
        finally:
            set_incremental_simulation(True)
        assert leaks == [("incremental_simulation", False, True)]
        assert toggles.deviations() == []

"""Fault injection: spec grammar, schedules, activation scoping."""

import pytest

from repro.resilience import faults
from repro.resilience.errors import DurabilityError
from repro.resilience.faults import (
    FAULT_POINTS,
    FaultRegistry,
    FaultSpec,
    NOOP_FAULTS,
    fault_scope,
    install_from_env,
)


class TestSpecGrammar:
    def test_parse_full_spec(self):
        spec = FaultSpec.parse("wal.fsync:fail_nth=3,fail_rate=0.5,delay=0.01")
        assert spec == FaultSpec(
            "wal.fsync", fail_nth=3, fail_rate=0.5, delay=0.01
        )

    def test_parse_point_only_is_a_passive_counter(self):
        spec = FaultSpec.parse("wal.fsync")
        assert spec == FaultSpec("wal.fsync")

    def test_unknown_point_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec.parse("wal.fsyncc:fail_nth=1")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec field"):
            FaultSpec.parse("wal.fsync:explode=1")

    @pytest.mark.parametrize("bad", [
        "wal.fsync:fail_nth=-1",
        "wal.fsync:fail_rate=1.5",
        "wal.fsync:delay=-0.1",
    ])
    def test_out_of_range_fields_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_every_registered_point_parses(self):
        for point in FAULT_POINTS:
            assert FaultSpec.parse(f"{point}:fail_nth=1").point == point


class TestSchedules:
    def test_fail_nth_fires_exactly_once_then_recovers(self):
        registry = FaultRegistry(["wal.fsync:fail_nth=2"])
        registry.fire("wal.fsync", DurabilityError)  # hit 1: pass
        with pytest.raises(DurabilityError) as excinfo:
            registry.fire("wal.fsync", DurabilityError)  # hit 2: injected
        assert excinfo.value.reason == "injected"
        assert excinfo.value.details["point"] == "wal.fsync"
        for _ in range(10):  # the point has recovered
            registry.fire("wal.fsync", DurabilityError)
        assert registry.hits("wal.fsync") == 12
        assert registry.injected("wal.fsync") == 1

    def test_fail_rate_is_deterministic_for_a_seed(self):
        def pattern(seed):
            registry = FaultRegistry(
                ["wal.fsync:fail_rate=0.3"], seed=seed
            )
            outcomes = []
            for _ in range(50):
                try:
                    registry.fire("wal.fsync", DurabilityError)
                    outcomes.append(False)
                except DurabilityError:
                    outcomes.append(True)
            return outcomes

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)
        assert any(pattern(7))            # ~30% of 50 hits fire
        assert not all(pattern(7))

    def test_unconfigured_points_count_hits_but_never_fire(self):
        registry = FaultRegistry(["wal.append:fail_nth=1"])
        registry.fire("wal.fsync", DurabilityError)
        assert registry.hits("wal.fsync") == 1
        assert registry.injected() == 0

    def test_injected_error_is_the_sites_taxonomy_class(self):
        registry = FaultRegistry(["wal.fsync:fail_nth=1"])
        with pytest.raises(DurabilityError):
            registry.fire("wal.fsync", DurabilityError)

    def test_stat_rows_cover_configured_points(self):
        registry = FaultRegistry(
            ["wal.append:fail_nth=1", "wal.fsync:fail_nth=99"]
        )
        with pytest.raises(DurabilityError):
            registry.fire("wal.append", DurabilityError)
        registry.fire("wal.fsync", DurabilityError)
        assert registry.stat_rows() == [
            ("fault_hits", "wal.append", 1),
            ("fault_injected", "wal.append", 1),
            ("fault_hits", "wal.fsync", 1),
            ("fault_injected", "wal.fsync", 0),
        ]


class TestActivation:
    def test_disabled_by_default(self):
        assert faults.active() is NOOP_FAULTS
        faults.fire("wal.fsync", DurabilityError)  # free no-op

    def test_fault_scope_installs_and_always_restores(self):
        with fault_scope("wal.fsync:fail_nth=1") as registry:
            assert faults.active() is registry
            with pytest.raises(DurabilityError):
                faults.fire("wal.fsync", DurabilityError)
        assert faults.active() is NOOP_FAULTS

    def test_fault_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with fault_scope("wal.fsync:fail_nth=1"):
                raise RuntimeError("boom")
        assert faults.active() is NOOP_FAULTS

    def test_nested_scopes_restore_the_outer_registry(self):
        with fault_scope("wal.fsync:fail_nth=5") as outer:
            with fault_scope("wal.fsync:fail_nth=5") as inner:
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is NOOP_FAULTS

    def test_install_from_env_parses_specs_and_seed(self):
        environ = {"REPRO_FAULTS": "wal.append:fail_nth=1; seed=42; "
                                   "wal.fsync:fail_rate=0.25"}
        try:
            registry = install_from_env(environ)
            assert registry is faults.active()
            assert registry.seed == 42
            assert registry.specs() == (
                FaultSpec("wal.append", fail_nth=1),
                FaultSpec("wal.fsync", fail_rate=0.25),
            )
        finally:
            faults.clear()

    def test_install_from_env_without_the_variable_is_a_no_op(self):
        assert install_from_env({}) is None
        assert faults.active() is NOOP_FAULTS

    def test_noop_registry_is_stateless_and_silent(self):
        assert NOOP_FAULTS.hits("wal.fsync") == 0
        assert NOOP_FAULTS.injected() == 0
        assert NOOP_FAULTS.specs() == ()
        assert NOOP_FAULTS.stat_rows() == []

"""Unit tests for EngineConfig helpers and the ahead-of-time optimizer."""

import pytest

from repro.core.aot import apply_aot_optimization
from repro.core.config import (
    AOTSortMode,
    CompilationGranularity,
    EngineConfig,
    ExecutionMode,
)
from repro.core.join_order import JoinOrderOptimizer
from repro.core.profile import RuntimeProfile
from repro.datalog.parser import parse_program
from repro.ir.builder import build_program_ir
from repro.ir.ops import JoinProjectOp, find_nodes
from repro.relational.storage import StorageManager


class TestEngineConfig:
    def test_describe_names(self):
        assert EngineConfig.interpreted().describe() == "interpreted+idx"
        assert EngineConfig.interpreted(False).describe() == "interpreted"
        assert EngineConfig.naive().describe() == "naive"
        assert EngineConfig.jit("quotes", asynchronous=True).describe() == (
            "jit-quotes-async-rule+vec"
        )
        assert EngineConfig.aot(online=True).describe() == "macro-facts+online"

    def test_label_overrides_description(self):
        assert EngineConfig(label="custom").describe() == "custom"

    def test_with_creates_modified_copy(self):
        base = EngineConfig.jit("lambda")
        changed = base.with_(use_indexes=False)
        assert base.use_indexes and not changed.use_indexes
        assert changed.backend == "lambda"


class TestShardedConfigRoundTrip:
    """`with_` / `describe` round-trips for parallel configurations."""

    def test_with_preserves_sharding(self):
        config = EngineConfig.parallel(shards=4, base=EngineConfig.jit("lambda"))
        changed = config.with_(use_indexes=False)
        assert changed.sharding is not None and changed.sharding.shards == 4
        assert changed.describe().endswith("x4")

    def test_with_routes_sharding_keys_into_nested_config(self):
        config = EngineConfig.parallel(shards=4)
        resharded = config.with_(shards=2)
        assert resharded.sharding.shards == 2
        assert resharded.describe().endswith("x2")
        assert config.sharding.shards == 4  # original untouched
        pooled = config.with_(pool="serial", shard_backend="none")
        assert pooled.sharding.pool == "serial"
        assert pooled.sharding.shard_backend == "none"
        assert pooled.sharding.shards == 4

    def test_with_shards_on_unsharded_config_enables_sharding(self):
        config = EngineConfig.jit("lambda").with_(shards=3)
        assert config.sharding is not None and config.sharding.shards == 3
        assert config.describe().endswith("x3")

    def test_mixed_engine_and_sharding_changes(self):
        config = EngineConfig.parallel(shards=4).with_(
            mode=ExecutionMode.JIT, shards=2
        )
        assert config.mode == ExecutionMode.JIT
        assert config.sharding.shards == 2

    def test_labeled_parallel_config_prints_shard_count(self):
        config = EngineConfig.parallel(shards=4, label="myconfig")
        assert config.describe() == "myconfigx4"
        # Appended unconditionally — no substring guessing, so a label that
        # merely looks like it ends in a shard count stays unambiguous.
        assert EngineConfig.parallel(shards=2, label="index2").describe() == "index2x2"
        # Unsharded labels are untouched.
        assert EngineConfig(label="plain").describe() == "plain"

    def test_sharding_config_with_(self):
        sharding = EngineConfig.parallel(shards=2).sharding
        assert sharding.with_(shards=8).shards == 8
        assert sharding.with_(pool="thread").pool == "thread"
        assert sharding.shards == 2

    def test_factories_set_modes(self):
        assert EngineConfig.jit("irgen").mode == ExecutionMode.JIT
        assert EngineConfig.aot().mode == ExecutionMode.AOT
        assert EngineConfig.naive().mode == ExecutionMode.NAIVE
        assert EngineConfig.jit("lambda", granularity=CompilationGranularity.JOIN
                                ).granularity == CompilationGranularity.JOIN


SOURCE = """
big(1, 2). big(2, 3). big(3, 4). big(4, 5). big(5, 6). big(6, 7).
small(2, 3).
joined(X, Z) :- big(X, Y), small(Y, Z).
closure(X, Y) :- joined(X, Y).
closure(X, Z) :- closure(X, Y), joined(Y, Z).
"""


class TestAOTOptimization:
    def build(self):
        program = parse_program(SOURCE)
        storage = StorageManager(program)
        tree = build_program_ir(program)
        return program, storage, tree

    def test_none_mode_changes_nothing(self):
        _, storage, tree = self.build()
        changed = apply_aot_optimization(
            tree, JoinOrderOptimizer(), storage, AOTSortMode.NONE
        )
        assert changed == 0

    def test_facts_and_rules_uses_cardinalities(self):
        _, storage, tree = self.build()
        changed = apply_aot_optimization(
            tree, JoinOrderOptimizer(), storage, AOTSortMode.FACTS_AND_RULES
        )
        assert changed >= 1
        joined_plans = [
            node.plan for node in find_nodes(tree, JoinProjectOp)
            if node.plan.rule_name.startswith("joined")
        ]
        for plan in joined_plans:
            first = plan.sources[0].literal
            assert first.relation == "small"

    def test_rules_only_mode_requires_no_storage(self):
        _, _, tree = self.build()
        changed = apply_aot_optimization(
            tree, JoinOrderOptimizer(), None, AOTSortMode.RULES_ONLY
        )
        assert changed >= 0

    def test_facts_mode_without_storage_rejected(self):
        _, _, tree = self.build()
        with pytest.raises(ValueError):
            apply_aot_optimization(
                tree, JoinOrderOptimizer(), None, AOTSortMode.FACTS_AND_RULES
            )

    def test_profile_records_aot_stage(self):
        _, storage, tree = self.build()
        profile = RuntimeProfile()
        apply_aot_optimization(
            tree, JoinOrderOptimizer(), storage, AOTSortMode.FACTS_AND_RULES,
            profile=profile,
        )
        assert profile.reorders
        assert all(record.stage == "aot" for record in profile.reorders)

    def test_aot_preserves_results(self):
        from repro.engine.engine import ExecutionEngine

        program = parse_program(SOURCE)
        reference = ExecutionEngine(program.copy(), EngineConfig.interpreted()).evaluate()
        for sort in (AOTSortMode.RULES_ONLY, AOTSortMode.FACTS_AND_RULES):
            result = ExecutionEngine(
                program.copy(), EngineConfig.aot(sort=sort)
            ).evaluate()
            assert result == reference

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
        assert EngineConfig.interpreted().with_(executor="pushdown").describe() == (
            "interpreted+idx+pushdown"
        )
        assert EngineConfig.naive().describe() == "naive"
        assert EngineConfig.jit("quotes", asynchronous=True).describe() == (
            "jit-quotes-async-rule"
        )
        assert EngineConfig.aot(online=True).describe() == "macro-facts+online"

    def test_naive_names_carry_their_suffixes(self):
        names = {
            EngineConfig.naive().describe(),
            EngineConfig.naive().with_(executor="pushdown").describe(),
            EngineConfig.naive().with_(interning=False).describe(),
        }
        assert names == {"naive", "naive+pushdown", "naive+raw"}
        assert EngineConfig.naive().with_(
            executor="pushdown", interning=False
        ).describe() == "naive+pushdown+raw"

    def test_label_overrides_description(self):
        assert EngineConfig(label="custom").describe() == "custom"
        assert EngineConfig(label="custom", executor="pushdown").describe() == (
            "custom+pushdown"
        )

    def test_with_creates_modified_copy(self):
        base = EngineConfig.jit("lambda")
        changed = base.with_(use_indexes=False)
        assert base.use_indexes and not changed.use_indexes
        assert changed.backend == "lambda"

    def test_with_rejects_unknown_keys(self):
        # The shard keys (shards / pool / shard_backend / max_rounds) went
        # with the shard-parallel subsystem; with_ no longer routes them.
        with pytest.raises(TypeError):
            EngineConfig.jit("lambda").with_(shards=2)

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
        reference = ExecutionEngine(
            program.copy(), EngineConfig.interpreted().with_(executor="pushdown")
        ).evaluate()
        for sort in (AOTSortMode.RULES_ONLY, AOTSortMode.FACTS_AND_RULES):
            result = ExecutionEngine(
                program.copy(), EngineConfig.aot(sort=sort)
            ).evaluate()
            assert result == reference

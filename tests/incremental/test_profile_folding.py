"""Regression: session reuse must keep folding per-update profiles.

``Connection.explain()`` renders the session-lifetime profile.  Updates on
a reused session run through side paths (the DRed + delta-propagation
tree), and those executions
historically vanished from the profile: after the first mutation the
explain output still described only the initial fixpoint (no new
iterations, stale relation sizes, no vectorized batch counts).  These tests
pin the fix on the vectorized path, interpreted and under the JIT.
"""

import pytest

from repro.analyses.micro import build_transitive_closure_program
from repro.core.config import EngineConfig
from repro.incremental import IncrementalSession

EDGES = [(i, i + 1) for i in range(20)]


def fresh_session(config):
    return IncrementalSession(build_transitive_closure_program(EDGES), config)


#: Both run their sub-queries on the block kernels: the vectorized
#: interpreter directly, the JIT in its interpreted stages.
CONFIGS = pytest.mark.parametrize("config", [
    EngineConfig.interpreted(),
    EngineConfig.jit("lambda"),
], ids=lambda c: c.describe())


@pytest.mark.parametrize("config,source", [
    (EngineConfig.interpreted(), "vectorized"),
    # The JIT runs update sub-queries through its compiled artifacts.
    (EngineConfig.jit("lambda"), "compiled"),
], ids=["vectorized", "jit-lambda"])
def test_updates_keep_extending_the_lifetime_profile(config, source):
    session = fresh_session(config)
    session.refresh()
    after_fixpoint = len(session.profile.iterations)
    assert after_fixpoint > 0
    source_after_fixpoint = getattr(session.profile.sources, source)

    session.insert_facts("edge", [(100, 0)])
    session.insert_facts("edge", [(101, 100)])

    assert len(session.profile.iterations) > after_fixpoint, (
        "update propagation recorded no iterations in the session profile"
    )
    assert getattr(session.profile.sources, source) > source_after_fixpoint, (
        "update sub-queries missing from the lifetime source counters"
    )
    # Relation sizes must describe the *current* state, not the initial
    # fixpoint: both inserts extend the closure.
    assert session.profile.result_sizes["path"] == len(
        session.fetch("path")
    )


@CONFIGS
def test_explain_reflects_updates_after_session_reuse(config):
    from repro.api.database import Database

    with Database(build_transitive_closure_program(EDGES), config) as db:
        with db.connect() as conn:
            conn.query("path")
            before = conn.explain("path")
            conn.insert_facts("edge", [(100, 0)])
            after = conn.explain("path")

    def iteration_count(text):
        for line in text.splitlines():
            if line.startswith("execution: "):
                return int(line.split()[1])
        raise AssertionError(f"no execution line in explain output:\n{text}")

    assert iteration_count(after) > iteration_count(before), (
        "explain() dropped the update's iterations on session reuse"
    )
    assert "vectorized" in after


@CONFIGS
def test_retraction_profiles_fold_too(config):
    session = fresh_session(config)
    session.refresh()
    after_fixpoint = len(session.profile.iterations)
    session.retract_facts("edge", [(5, 6)])
    session.insert_facts("edge", [(5, 6)])
    assert len(session.profile.iterations) > after_fixpoint
    assert session.profile.result_sizes["path"] == len(session.fetch("path"))

"""Chaos property suite: a fault at every point leaves the system usable.

For every registered fault point, a representative durable workload runs
with that point scheduled to fail once (``fail_nth=1``).  The property:

* every surfaced failure is a *typed* taxonomy error (never a bare
  ``OSError``/``RuntimeError`` leaking out of the middle of a subsystem),
* one retry after the injected failure succeeds (the schedule recovers),
* the final state is bit-for-bit equal to a never-faulted oracle — across
  both executors, interpreted and JIT-compiled, including a durable
  restart.

The wire-side points (``server.send``, ``queue.enqueue``) run the same
property through a real TCP server and a retrying client.
"""

import pytest

from repro import Database, DurabilityConfig, EngineConfig
from repro.analyses.micro import build_transitive_closure_program
from repro.resilience.errors import ResilienceError, TAXONOMY
from repro.resilience.faults import fault_scope
from repro.server import BlockingClient, ServerThread
from repro.server.client import RetryPolicy, ServerError

#: String nodes: every mutation carries symbol deltas through the WAL, so
#: the durable replay path (and its ``symbols.extend`` fault point) is live.
SEED_EDGES = [("a", "b"), ("b", "c")]
BATCH_1 = [("c", "d"), ("d", "e")]
RETRACT = [("b", "c")]
BATCH_2 = [("b", "e"), ("e", "f")]

#: The engine-side fault points (the wire points get their own server test).
ENGINE_POINTS = (
    "wal.append",
    "wal.fsync",
    "checkpoint.rename",
    "symbols.extend",
)

CONFIG_GRID = [
    pytest.param(executor, mode, id=f"{executor}-{mode}")
    for executor in ("pushdown", "vectorized")
    for mode in ("interpreted", "jit")
]


def make_config(executor: str, mode: str) -> EngineConfig:
    base = EngineConfig.jit("lambda") if mode == "jit" else EngineConfig()
    return base.with_(executor=executor)


def run_workload(config, durability_dir, aborted=None):
    """Insert/query/retract/checkpoint/restart; return the final closure.

    Each step tolerates exactly one typed failure and retries: ``fail_nth``
    schedules recover after firing, so the retry exercises the system's
    post-fault health, and set semantics make every step idempotent.
    """

    def guard(op):
        try:
            return op()
        except ResilienceError as error:
            if aborted is None:
                raise
            aborted.append(error)
            return op()

    durability = DurabilityConfig(dir=str(durability_dir), fsync="always")
    program = build_transitive_closure_program(SEED_EDGES)
    database = guard(lambda: Database(program, config, durability=durability))
    try:
        with database.connect() as conn:
            guard(lambda: conn.insert_facts("edge", BATCH_1))
            guard(lambda: conn.query("path").rows())
            guard(lambda: conn.retract_facts("edge", RETRACT))
            guard(lambda: conn.insert_facts("edge", BATCH_2))
            guard(lambda: conn.checkpoint())
    finally:
        database.close()

    # A durable restart replays the WAL (symbol deltas included).  The
    # recovery itself runs when the durable-writer connection opens, so the
    # connect is inside the guard: an injected replay failure must surface
    # typed and succeed on retry.
    reopened = Database(program, config, durability=durability)
    try:
        with guard(reopened.connect) as conn:
            return set(guard(lambda: conn.query("path").rows()))
    finally:
        reopened.close()


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    return run_workload(
        EngineConfig.interpreted().with_(executor="pushdown"),
        tmp_path_factory.mktemp("oracle"),
    )


class TestEnginePoints:
    @pytest.mark.parametrize("executor,mode", CONFIG_GRID)
    def test_never_faulted_runs_agree_across_configurations(
        self, executor, mode, tmp_path, oracle
    ):
        assert run_workload(make_config(executor, mode), tmp_path) == oracle

    @pytest.mark.parametrize("point", ENGINE_POINTS)
    @pytest.mark.parametrize("executor,mode", CONFIG_GRID)
    def test_one_injected_fault_never_costs_the_answer(
        self, point, executor, mode, tmp_path, oracle
    ):
        aborted = []
        with fault_scope(f"{point}:fail_nth=1") as registry:
            final = run_workload(
                make_config(executor, mode), tmp_path, aborted
            )
            fired = registry.injected(point)
        assert final == oracle
        # Whatever surfaced was typed — and each fires at most once.
        assert len(aborted) == fired <= 1
        for error in aborted:
            assert isinstance(error, ResilienceError)
            assert error.code in TAXONOMY
            assert error.reason == "injected"

    @pytest.mark.parametrize("executor,mode", CONFIG_GRID)
    def test_durability_points_actually_fire(self, executor, mode, tmp_path):
        """Guard against silently-vacuous chaos: the workload must hit the
        WAL points on every configuration."""
        with fault_scope() as registry:  # passive: count hits, fail nothing
            run_workload(make_config(executor, mode), tmp_path)
            assert registry.hits("wal.append") > 0
            assert registry.hits("wal.fsync") > 0
            assert registry.hits("checkpoint.rename") > 0
            assert registry.hits("symbols.extend") > 0


class TestWirePoints:
    def _served(self):
        database = Database(build_transitive_closure_program([(1, 2), (2, 3)]))
        return database, ServerThread(database)

    def test_queue_enqueue_fault_is_typed_and_retryable(self):
        database, thread = self._served()
        with thread:
            with fault_scope("queue.enqueue:fail_nth=1"):
                with BlockingClient(thread.host, thread.port) as client:
                    with pytest.raises(ServerError) as excinfo:
                        client.insert("edge", [(3, 4)])
                    # The taxonomy code and the admission flag make the
                    # retry decision mechanical.
                    assert excinfo.value.error["code"] == "resource_exhausted"
                    assert excinfo.value.enqueued is False
                    client.insert("edge", [(3, 4)])  # point recovered
                    assert (1, 4) in set(client.query("path"))
        database.close()

    def test_queue_enqueue_fault_is_absorbed_by_a_retry_policy(self):
        database, thread = self._served()
        with thread:
            with fault_scope("queue.enqueue:fail_nth=1"):
                client = BlockingClient(
                    thread.host, thread.port,
                    retry=RetryPolicy(attempts=3, base_delay=0.01, seed=1),
                )
                with client:
                    client.insert("edge", [(3, 4)])  # retried internally
                    assert (1, 4) in set(client.query("path"))
        database.close()

    def test_server_send_fault_drops_the_connection_not_the_server(self):
        database, thread = self._served()
        with thread:
            with fault_scope("server.send:fail_nth=1"):
                client = BlockingClient(
                    thread.host, thread.port,
                    retry=RetryPolicy(attempts=3, base_delay=0.01, seed=1),
                )
                with client:
                    # The first response write dies; the retrying client
                    # reconnects and the query still comes back correct.
                    assert (1, 3) in set(client.query("path"))
            # And the server is fully healthy for fresh connections.
            with BlockingClient(thread.host, thread.port) as fresh:
                assert fresh.ping()
        database.close()

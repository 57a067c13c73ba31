"""Recovery refusal paths: every way a durability directory can disagree
with the session opening it must be a loud :class:`RecoveryError`, never a
silently wrong database."""

import os

import pytest

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.core.config import EngineConfig
from repro.durability import DurabilityConfig, RecoveryError
from repro.durability.checkpoint import load_checkpoint, write_checkpoint

EDGES = [("n1", "n2"), ("n2", "n3"), ("n3", "n4")]


def populate(directory, program=None, config=None, batches=2):
    """Run a durable database and close it cleanly (close checkpoints)."""
    database = Database(
        program if program is not None
        else build_transitive_closure_program(EDGES),
        config, durability=DurabilityConfig(dir=directory),
    )
    with database.connect() as conn:
        for index in range(batches):
            conn.apply(inserts={"edge": [(f"x{index}", f"y{index}")]})
    database.close()


def reopen(directory, program=None, config=None):
    database = Database(
        program if program is not None
        else build_transitive_closure_program(EDGES),
        config, durability=DurabilityConfig(dir=directory),
    )
    return database, database.connect()


class TestRefusals:
    def test_checkpoint_of_a_different_program_is_refused(self, tmp_path):
        directory = str(tmp_path / "dur")
        populate(directory)
        # Same relations, different rules => different fingerprint.
        other = "edge(1, 2).\npath(X, Y) :- edge(X, Y).\n"
        with pytest.raises(RecoveryError, match="different program"):
            reopen(directory, program=other)

    def test_same_rules_different_facts_hit_the_symbol_guard(self, tmp_path):
        """The fingerprint covers the rules; a fact change slips past it
        but diverges the deterministic symbol prefix — the second guard."""
        directory = str(tmp_path / "dur")
        populate(directory)
        other = build_transitive_closure_program([("a", "b"), ("b", "c")])
        with pytest.raises(RecoveryError, match="symbol table divergence"):
            reopen(directory, program=other)

    def test_interning_flip_is_refused(self, tmp_path):
        directory = str(tmp_path / "dur")
        populate(directory)  # default config interns
        with pytest.raises(RecoveryError, match="dictionary encoding"):
            reopen(
                directory,
                config=EngineConfig.interpreted().with_(interning=False),
            )

    def test_doctored_symbol_table_is_refused(self, tmp_path):
        """A checkpoint whose symbol list diverges from the session's
        deterministic prefix would remap every encoded row; recovery must
        reject it rather than decode garbage."""
        directory = str(tmp_path / "dur")
        populate(directory)
        names = [
            entry for entry in os.listdir(directory)
            if entry.endswith(".ckpt")
        ]
        path = os.path.join(directory, sorted(names)[-1])
        checkpoint = load_checkpoint(path)
        assert checkpoint.symbols  # interned workload
        checkpoint.symbols[0] = "not-what-the-program-allocates"
        write_checkpoint(path, checkpoint)
        with pytest.raises(RecoveryError, match="symbol table divergence"):
            reopen(directory)

    def test_missing_checkpoint_with_rotated_wal_is_refused(self, tmp_path):
        """A WAL whose base_seq exceeds the best checkpoint means committed
        records were destroyed (a checkpoint deleted out from under the
        rotated log): refuse rather than resurrect a partial history."""
        directory = str(tmp_path / "dur")
        populate(directory)  # clean close: checkpoint + rotated (empty) WAL
        for entry in os.listdir(directory):
            if entry.endswith(".ckpt"):
                os.remove(os.path.join(directory, entry))
        with pytest.raises(RecoveryError, match="missing"):
            reopen(directory)


class TestCleanPaths:
    def test_clean_close_then_reopen_is_warm_with_no_replay(self, tmp_path):
        directory = str(tmp_path / "dur")
        populate(directory, batches=3)
        database, conn = reopen(directory)
        report = conn.durability.last_recovery
        assert report.warm
        assert report.replayed_records == 0  # close collapsed the WAL
        assert ("x2", "y2") in conn.query("edge")
        database.close()

    def test_fresh_directory_recovers_nothing(self, tmp_path):
        directory = str(tmp_path / "dur")
        database, conn = reopen(directory)
        report = conn.durability.last_recovery
        assert not report.warm and report.replayed_records == 0
        database.close()

    def test_recovered_database_keeps_accepting_mutations(self, tmp_path):
        directory = str(tmp_path / "dur")
        populate(directory)
        database, conn = reopen(directory)
        conn.apply(inserts={"edge": [("n4", "n5")]})
        assert ("n1", "n5") in conn.query("path")
        database.close()
        # ... and those post-recovery mutations are themselves durable.
        database, conn = reopen(directory)
        assert ("n1", "n5") in conn.query("path")
        database.close()


class TestReplayAttribution:
    """Recovery says what each replayed record cost, and which cost most."""

    @staticmethod
    def crash_after(directory, batches):
        """Commit ``batches`` and drop the database without a closing checkpoint."""
        database = Database(
            build_transitive_closure_program(EDGES), None,
            durability=DurabilityConfig(dir=directory, checkpoint_on_close=False),
        )
        with database.connect() as conn:
            for inserts, retracts in batches:
                conn.apply(inserts=inserts, retracts=retracts)
        database.close()

    def test_one_timing_per_replayed_record(self, tmp_path, caplog):
        directory = str(tmp_path / "dur")
        self.crash_after(directory, [
            ({"edge": [("n4", "n5")]}, None),
            (None, {"edge": [("n2", "n3")]}),      # the only cone: 9 path rows
            ({"edge": [("n5", "n6")]}, None),
        ])
        with caplog.at_level("INFO", logger="repro.durability"):
            database, conn = reopen(directory)
        report = conn.durability.last_recovery
        assert report.replayed_records == 3
        assert len(report.record_seconds) == 3
        assert all(seconds > 0 for seconds in report.record_seconds)
        assert sum(report.record_seconds) <= report.seconds

        # No checkpoint, so seqs count from 0: the slowest record names itself.
        seq = report.record_seconds.index(max(report.record_seconds))
        assert report.slowest.startswith(f"slowest replayed record: seq {seq} (incremental, ")
        assert report.slowest in caplog.text
        histogram = database.metrics()["recovery_record_seconds"]
        assert histogram["count"] == 3
        assert ("n1", "n3") not in conn.query("path")
        database.close()

    def test_nothing_replayed_names_no_record(self, tmp_path):
        directory = str(tmp_path / "dur")
        populate(directory)
        database, conn = reopen(directory)
        report = conn.durability.last_recovery
        assert report.record_seconds == []
        assert report.slowest == "no WAL record replayed"
        database.close()

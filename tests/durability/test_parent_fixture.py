"""A durability directory written before this code must still open.

``fixtures/parent_pr19/`` was left by a crashed process of the commit that
still decoded checkpoint columns through numpy and parsed every fact through
the clause grammar (``fixtures/make_parent_fixture.py``).  Two things could
strand it: the one remaining decode path reading the packed columns
differently, and the parser allocating symbol ids in a different order —
the checkpoint's symbol-prefix guard would then refuse the directory.
"""

import json
import pathlib
import shutil

import pytest

from repro import Database, DurabilityConfig
from repro.durability.checkpoint import load_checkpoint

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "parent_pr19"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())


@pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "read"])
def test_parent_checkpoint_decodes_to_the_rows_numpy_decoded(use_mmap):
    (path,) = (FIXTURE / "state").glob("*.ckpt")
    loaded = load_checkpoint(str(path), use_mmap=use_mmap)
    expected = EXPECTED["checkpoint"]
    assert loaded.wal_records == expected["wal_records"]
    assert loaded.symbols == expected["symbols"]
    assert [type(v) for v in loaded.symbols] == [type(v) for v in expected["symbols"]]
    assert {
        name: {"derived": sorted(map(list, derived)), "base": sorted(map(list, base))}
        for name, (derived, base) in loaded.relations.items()
    } == expected["relations"]
    for derived, base in loaded.relations.values():
        assert all(type(v) is int for row in derived | base for v in row)


def test_parent_directory_recovers_warm_from_the_program_text(tmp_path):
    state = tmp_path / "state"
    shutil.copytree(FIXTURE / "state", state)
    source = (FIXTURE / "program.dl").read_text()
    with Database(source, name="fixture",
                  durability=DurabilityConfig(dir=str(state))) as database:
        conn = database.connect()
        report = conn.durability.last_recovery
        assert report.warm and report.replayed_records == 2
        for name in ("edge", "label", "path", "named"):
            rows = sorted((list(row) for row in conn.query(name).rows()), key=repr)
            assert rows == EXPECTED[name]
        symbols = list(conn.session.storage.symbols.values())
        assert symbols == EXPECTED["symbols"]
        assert [type(v) for v in symbols] == [type(v) for v in EXPECTED["symbols"]]
        conn.self_check()

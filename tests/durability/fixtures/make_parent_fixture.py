"""How ``parent_pr19/`` was written — run against a checkout of the commit
*before* the numpy decode branch was deleted, with numpy importable:

    python make_parent_fixture.py <parent-checkout>/src <output-dir>

The directory it leaves is a durable database as a crashed process left it
(checkpoint + WAL tail, no clean close), the program text that opened it,
and what that process last answered.  ``test_parent_fixture.py`` opens it
with the current code; it is never regenerated by the suite.
"""

import json
import os
import shutil
import sys

SOURCE = """\
% two interleaved fact relations, every literal kind the fast path reads
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
named(X, N) :- path(1, X), label(X, N).
edge(1, 2).
label(1, "one").
edge(2, 3).  label(2, two).
edge(3, -4). // negative id
label(3, 'three').
edge(-4, 5).
label(-4, 2.5).
edge(5, 1).
edge(1, 2).
"""


def main(src: str, out: str) -> None:
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (the parent picked its decode path on it)
    from repro import Database, DurabilityConfig
    from repro.durability import checkpoint as ckpt

    assert ckpt._np is not None, "not the parent commit"
    shutil.rmtree(out, ignore_errors=True)
    state = os.path.join(out, "state")
    os.makedirs(out)
    with open(os.path.join(out, "program.dl"), "w") as handle:
        handle.write(SOURCE)
    database = Database(SOURCE, name="fixture", durability=DurabilityConfig(dir=state))
    conn = database.connect()
    conn.insert_facts("edge", [(5, 6), (6, 7)])
    conn.insert_facts("label", [(6, "six")])
    conn.checkpoint()
    conn.retract_facts("edge", [(2, 3)])      # these two stay in the WAL tail
    conn.insert_facts("label", [(7, "seven")])
    expected = {
        name: sorted((list(row) for row in conn.query(name).rows()), key=repr)
        for name in ("edge", "label", "path", "named")
    }
    expected["symbols"] = list(conn.session.storage.symbols.values())
    # What the parent's numpy branch decoded from the checkpoint it wrote.
    (path,) = [os.path.join(state, n) for n in os.listdir(state) if n.endswith(".ckpt")]
    loaded = ckpt.load_checkpoint(path)
    expected["checkpoint"] = {
        "wal_records": loaded.wal_records,
        "symbols": loaded.symbols,
        "relations": {
            name: {"derived": sorted(map(list, derived)), "base": sorted(map(list, base))}
            for name, (derived, base) in loaded.relations.items()
        },
    }
    with open(os.path.join(out, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
    os._exit(0)  # no clean close: the WAL tail must replay


if __name__ == "__main__":
    main(*sys.argv[1:3])

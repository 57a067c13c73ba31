"""The correctness oracle: reference digests from an evaluator that is not
the configuration under test.

The reference evaluator is ``repro.baselines.souffle_like`` in interpreter
mode — static as-written join orders, the tuple-at-a-time pushdown
executor, raw (un-interned) values — so it shares the fixpoint driver with
the production path but none of the vectorized operators, none of the
dictionary encoding and none of the adaptive machinery.

A digest is the row count plus the SHA-256 of the sorted rows *after
mapping every constant back to its structural value* (inputs.relabel), so
one committed ``expected.json`` serves every ``--seed``.  For a structure
seed other than the committed one the reference is computed at set-up,
outside any timed region.

``python benchmarks/ledger/oracle.py`` rewrites ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterable, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

Digest = Tuple[int, str]


def digest_rows(rows: Iterable[Sequence[object]],
                inverse: Optional[Dict] = None) -> Digest:
    """(row count, SHA-256 over the sorted structural rows)."""
    if inverse is None:
        structural = [tuple(row) for row in rows]
    else:
        structural = [tuple(inverse[value] for value in row) for row in rows]
    structural.sort()
    sha = hashlib.sha256()
    for row in structural:
        sha.update(json.dumps(row, separators=(",", ":")).encode("utf-8"))
        sha.update(b"\n")
    return len(structural), sha.hexdigest()


def reference_digest(program, relation: str) -> Digest:
    """Evaluate ``program`` with the reference evaluator; digest ``relation``."""
    from repro.baselines.souffle_like import SouffleLikeEngine

    result = SouffleLikeEngine("interpreter").run(program)
    return digest_rows(result.relations[relation])


def tc_reference_digest(structural_edges) -> Digest:
    """Reference ``path`` digest of the served graph after a churn run."""
    from repro.analyses.micro import build_transitive_closure_program
    from repro.analyses.ordering import Ordering

    program = build_transitive_closure_program(
        list(structural_edges), Ordering.OPTIMIZED
    )
    return reference_digest(program, "path")


def load_expected(path, scale_name: str,
                  structure_seed: int) -> Optional[Dict[str, Digest]]:
    """Digests recorded in ``path`` for (scale, structure seed), or None."""
    try:
        document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    entry = document.get(f"{scale_name}:{structure_seed}")
    if entry is None:
        return None
    return {
        name: (value["rows"], value["sha256"]) for name, value in entry.items()
    }


def expected_digests(scale, scale_name: str, structure_seed: int,
                     path=EXPECTED_PATH) -> Dict[str, Digest]:
    """Digests of the four batch programs: recorded ones when ``path`` has
    them, computed by the reference evaluator otherwise.

    ``path`` defaults to the committed file; the smoke test passes a
    doctored copy to prove a mismatch fails the command.
    """
    committed = load_expected(path, scale_name, structure_seed)
    if committed is not None:
        return committed
    return compute_digests(scale, structure_seed)


def compute_digests(scale, structure_seed: int) -> Dict[str, Digest]:
    from inputs import structural_programs

    return {
        name: reference_digest(program, relation)
        for name, (relation, program) in structural_programs(
            scale, structure_seed
        ).items()
    }


def main() -> int:
    import paths  # noqa: F401  (puts src/ on sys.path)
    import configs

    document = {}
    for scale_name, scale in (("full", configs.FULL), ("smoke", configs.SMOKE)):
        digests = compute_digests(scale, configs.STRUCTURE_SEED)
        document[f"{scale_name}:{configs.STRUCTURE_SEED}"] = {
            name: {"rows": rows, "sha256": sha}
            for name, (rows, sha) in digests.items()
        }
        for name, (rows, sha) in digests.items():
            print(f"{scale_name:5s} {name:9s} {rows:7d} rows  {sha[:16]}")
    EXPECTED_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Seed -> inputs.  The program under test only ever sees what is built here.

Two seeds, two jobs:

* ``configs.STRUCTURE_SEED`` feeds the repository's generators
  (``random_edges``, ``edge_update_stream``, ``HttpdLikeGenerator``,
  ``SListLibGenerator``) and so fixes the *shape* of every input.
* ``--seed`` picks an isomorphic copy of that shape: a random permutation
  of the constants, a shuffle of the fact order, and (serve workloads) the
  page offsets that are read.

Why not feed ``--seed`` to the generators directly?  Because the work is
chaotic in the generator seed — the 10k-edge closure ranges over 49k-63k
rows across seeds, CSPA at 600 tuples over 16k-53k rows and 0.1-2.0 s — and
the benchmark's regression bounds (10 %) are compared across runs with
different seeds.  Relabelling keeps the work identical and still changes
every id, every hash bucket and every insertion order the engine sees.
Hold-out runs on a different *shape* use ``run.py --structure-seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.analyses.andersen import build_andersen_program
from repro.analyses.csda import build_csda_program
from repro.analyses.cspa import build_cspa_program
from repro.analyses.micro import build_transitive_closure_program
from repro.analyses.ordering import Ordering
from repro.datalog.program import DatalogProgram
from repro.workloads.graphs import random_edges
from repro.workloads.program_facts import (
    CSDADataset,
    CSPADataset,
    HttpdLikeGenerator,
    SListLibDataset,
    SListLibGenerator,
)
from repro.workloads.streaming import edge_update_stream

from configs import BATCH_EDGES, Scale

Row = Tuple[object, ...]
Facts = Dict[str, List[Row]]


def relabel(facts: Facts, rng: random.Random,
            universe: Iterable[object] = ()) -> Tuple[Facts, Dict]:
    """An isomorphic copy of ``facts``: constants permuted, rows shuffled.

    ``universe`` adds constants that occur in no fact yet (the node ids an
    update stream will insert later).  Returns the copy and the forward map.
    """
    constants = {value for rows in facts.values() for row in rows for value in row}
    constants.update(universe)
    domain = sorted(constants, key=repr)
    image = list(domain)
    rng.shuffle(image)
    forward = dict(zip(domain, image))
    copy: Facts = {}
    for relation, rows in facts.items():
        mapped = [tuple(forward[value] for value in row) for row in rows]
        rng.shuffle(mapped)
        copy[relation] = mapped
    return copy, forward


def map_rows(mapping: Dict, rows: Iterable[Sequence[object]]) -> List[Row]:
    return [tuple(mapping[value] for value in row) for row in rows]


@dataclass
class ProgramInput:
    """One program of the batch workloads: rules, relabelled facts, query."""

    name: str
    relation: str
    rules: Callable[[Ordering], DatalogProgram]
    facts: Facts
    #: relabelled constant -> structural constant; the oracle digests are
    #: taken over structural rows, so they do not depend on ``--seed``.
    inverse: Dict

    def build(self, ordering: Ordering) -> DatalogProgram:
        program = self.rules(ordering)
        for relation, rows in self.facts.items():
            program.add_facts(relation, rows)
        return program


def _structural_facts(scale: Scale, structure_seed: int):
    """name -> (query relation, rules-only builder, structural facts)."""
    httpd = HttpdLikeGenerator(structure_seed)
    slist = SListLibGenerator(structure_seed).generate(
        scale.andersen_list, scale.andersen_pipelines
    )
    return {
        "tc": (
            "path",
            lambda o: build_transitive_closure_program([], o),
            {"edge": random_edges(scale.tc_nodes, scale.tc_edges,
                                  seed=structure_seed)},
        ),
        "cspa": (
            "VAlias",
            lambda o: build_cspa_program(CSPADataset(), o),
            httpd.cspa(scale.cspa_tuples).as_dict(),
        ),
        "csda": (
            "nullFlow",
            lambda o: build_csda_program(CSDADataset(), o),
            httpd.csda(scale.csda_tuples).as_dict(),
        ),
        "andersen": (
            "pointsTo",
            lambda o: build_andersen_program(SListLibDataset(), o),
            slist.andersen_facts(),
        ),
    }


def batch_inputs(scale: Scale, structure_seed: int, seed: int) -> List[ProgramInput]:
    """The four batch programs, relabelled by ``seed``."""
    rng = random.Random(seed)
    inputs = []
    for name, (relation, rules, facts) in _structural_facts(
        scale, structure_seed
    ).items():
        copy, forward = relabel(facts, rng)
        inverse = {image: value for value, image in forward.items()}
        inputs.append(ProgramInput(name, relation, rules, copy, inverse))
    return inputs


def structural_programs(scale: Scale, structure_seed: int):
    """name -> (relation, hand-optimised program over *structural* facts):
    what the oracle evaluates when it writes or checks expected digests."""
    out = {}
    for name, (relation, rules, facts) in _structural_facts(
        scale, structure_seed
    ).items():
        program = rules(Ordering.OPTIMIZED)
        for fact_relation, rows in facts.items():
            program.add_facts(fact_relation, rows)
        out[name] = (relation, program)
    return out


# -- served workloads ------------------------------------------------------------


@dataclass
class Mutation:
    kind: str            # "insert" | "retract"
    rows: List[Row]      # relabelled edge rows


@dataclass
class ServeInput:
    """The served ``tc`` database: source text, update stream, read offsets."""

    source: str
    inverse: Dict
    mutations: List[Mutation]
    #: Structural edge set once every mutation has been applied.
    final_structural_edges: List[Row]
    rng: random.Random            # for page offsets


def tc_source(edges: Iterable[Row]) -> str:
    """The served program as Datalog text (the server child parses it, so
    parse time is part of its set-up, as it is for a real deployment)."""
    lines = [
        "path(X, Y) :- edge(X, Y).",
        "path(X, Z) :- path(X, Y), edge(Y, Z).",
    ]
    lines.extend(f"edge({a}, {b})." for a, b in edges)
    return "\n".join(lines) + "\n"


def serve_input(scale: Scale, structure_seed: int, seed: int,
                batches: int = 0) -> ServeInput:
    """``batches`` mutation batches alternate insert-only / retract-only, so
    the graph size is stationary and the two kinds are timed separately.

    Both halves come from ``edge_update_stream`` over the same start graph:
    the retract stream only ever removes start edges and the insert stream
    only ever adds edges outside start, so any interleaving is consistent.
    """
    rng = random.Random(seed)
    start = random_edges(scale.tc_nodes, scale.tc_edges, seed=structure_seed)
    copy, forward = relabel({"edge": start}, rng, universe=range(scale.tc_nodes))
    inverse = {image: value for value, image in forward.items()}

    mutations: List[Mutation] = []
    live = set(start)
    if batches:
        inserts = edge_update_stream(
            scale.tc_nodes, batches=(batches + 1) // 2, batch_size=BATCH_EDGES,
            retract_fraction=0.0, seed=structure_seed, start_edges=start,
        ).batches
        retracts = edge_update_stream(
            scale.tc_nodes, batches=batches // 2, batch_size=BATCH_EDGES,
            retract_fraction=1.0, seed=structure_seed + 1, start_edges=start,
        ).batches
        for index in range(batches):
            if index % 2 == 0:
                rows = inserts[index // 2].inserts["edge"]
                live.update(rows)
                mutations.append(Mutation("insert", map_rows(forward, rows)))
            else:
                rows = retracts[index // 2].retracts["edge"]
                live.difference_update(rows)
                mutations.append(Mutation("retract", map_rows(forward, rows)))
    return ServeInput(
        source=tc_source(copy["edge"]), inverse=inverse,
        mutations=mutations, final_structural_edges=sorted(live), rng=rng,
    )

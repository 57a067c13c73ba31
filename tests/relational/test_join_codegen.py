"""The generated join comprehensions: what ``lower_plan`` writes per positive
atom, that it probes the index that exists (and builds a table only when no
key column carries one), and — the differential matrix — that every shape
of atom computes what the pushdown oracle computes."""

import itertools
import random
import traceback

import pytest

from repro import Database, EngineConfig, ExecutionEngine, parse_program
from repro.analyses.andersen import build_andersen_program
from repro.analyses.csda import build_csda_program
from repro.analyses.cspa import build_cspa_program
from repro.analyses.micro import build_transitive_closure_program
from repro.analyses.ordering import Ordering
from repro.datalog.literals import Atom
from repro.datalog.terms import Constant, Variable
from repro.ir.builder import build_program_ir
from repro.ir.ops import JoinProjectOp, find_nodes
from repro.relational import operators
from repro.relational.operators import (
    AtomSource,
    JoinPlan,
    evaluate_subquery,
    join_layouts,
    lower_plan,
    new_block_stats,
)
from repro.relational.storage import DatabaseKind, StorageManager
from repro.workloads.datasets import CSDADataset, CSPADataset, SListLibDataset

x, y, z, w = (Variable(name) for name in "xyzw")


def plan_of(head_terms, *atoms) -> JoinPlan:
    return JoinPlan("out", tuple(head_terms), tuple(
        AtomSource(atom, None if atom.negated else DatabaseKind.DERIVED)
        for atom in atoms
    ), rule_name="r")


def storage_of(**relations) -> StorageManager:
    """A storage holding ``relations`` (name -> (arity, rows)) in Derived."""
    storage = StorageManager()
    for name, (arity, rows) in relations.items():
        storage.declare(name, arity)
        storage.derived(name).insert_many(rows)
    return storage


def run_counted(storage, plan):
    """Lower, run, compare with the pushdown oracle; rows and counters."""
    stats = new_block_stats()
    rows = lower_plan(plan, storage.symbols, stats=stats)(storage)
    assert rows == evaluate_subquery(storage, plan, executor="pushdown")
    return rows, stats


# -- what is generated ---------------------------------------------------------


class TestGeneratedSource:
    def test_transitive_closure_is_one_two_loop_set_comprehension(self):
        plan = plan_of((x, z), Atom("path", (x, y)), Atom("edge", (y, z)))
        scan, join = lower_plan(plan).sources
        assert scan == "lambda rows, src: list(src)"
        assert join == ("lambda rows, src: "
                        "{(r[0], q[1]) for r in rows for q in src(r[1], ())}")

    def test_builtins_and_negations_carry_no_source(self):
        plan = plan_of((x,), Atom("n", (x,)), Atom("no", (x,), negated=True))
        assert lower_plan(plan).sources[1] is None

    def test_checks_become_if_clauses_on_the_bucket_row(self):
        plan = plan_of((x, z), Atom("src", (x,)),
                       Atom("t", (x, Constant("k"), z, z)))
        assert lower_plan(plan).sources[1] == (
            "lambda rows, src, c0: {(r[0], q[2]) for r in rows "
            "for q in src(r[0], ()) if q[1] == c0 and q[3] == q[2]}"
        )

    def test_constants_are_arguments_so_shapes_share_one_code_object(self):
        """Never printed into the source: a raw-domain constant may be any
        hashable, and a re-lowered plan must not pay for a compile()."""
        def lowered(constant):
            return lower_plan(plan_of(
                (x, z), Atom("src", (x,)), Atom("t", (x, Constant(constant), z))
            ))

        first = lowered(("a", 1.5))
        before = operators._compile_kernel.cache_info()
        second = lowered(frozenset({"b"}))
        after = operators._compile_kernel.cache_info()
        assert first.sources == second.sources
        assert after.misses == before.misses and after.hits > before.hits
        storage = storage_of(src=(1, [(1,)]), t=(3, [(1, ("a", 1.5), 7), (1, "no", 8)]))
        assert first(storage) == {(1, 7)} and second(storage) == set()

    def test_a_multi_column_key_has_one_variant_per_key_column(self):
        plan = plan_of((x, z), Atom("src", (x, y)), Atom("t", (x, y, z)))
        on_first, on_second = lower_plan(plan).sources[1].splitlines()
        assert "src(r[0], ()) if q[1] == r[1]" in on_first
        assert "src(r[1], ()) if q[0] == r[0]" in on_second

    def test_a_kernel_traceback_shows_the_comprehension(self):
        storage = storage_of(edge=(2, [(1, 2)]))
        plan = plan_of((x, z), Atom("path", (x, y)), Atom("edge", (y, z)))
        join = lower_plan(plan).steps[1]
        with pytest.raises(IndexError) as caught:
            join(storage, [(1,)])           # a block row one column short
        text = "".join(traceback.format_exception(
            caught.type, caught.value, caught.tb
        ))
        assert "<repro-kernel:" in text
        assert "{(r[0], q[1]) for r in rows for q in src(r[1], ())}" in text


class TestBlocksStaySets:
    def test_a_step_that_drops_a_column_emits_distinct_rows(self):
        """x reaches 9 through y=2 and y=3; y is dropped, (1, 9) stays once."""
        storage = storage_of(path=(2, [(1, 2), (1, 3)]), edge=(2, [(2, 9), (3, 9)]),
                             tail=(1, [(9,)]))
        plan = plan_of((x, z), Atom("path", (x, y)), Atom("edge", (y, z)),
                       Atom("tail", (z,)))
        layout = join_layouts(plan)[1]
        assert layout.distinct and not layout.final
        middle = lower_plan(plan).steps[1](storage, [(1, 2), (1, 3)])
        assert len(middle) == 1 and set(middle) == {(1, 9)}
        assert run_counted(storage, plan)[0] == {(1, 9)}

    def test_a_scan_that_drops_a_column_emits_distinct_rows(self):
        storage = storage_of(edge=(2, [(1, 2), (1, 3), (4, 5)]), n=(1, [(1,), (4,)]))
        plan = plan_of((x,), Atom("edge", (x, y)), Atom("n", (x,)))
        first = lower_plan(plan).steps[0](storage, [()])
        assert sorted(first) == [(1,), (4,)]

    def test_a_step_that_keeps_everything_emits_a_list(self):
        storage = storage_of(path=(2, [(1, 2)]), edge=(2, [(2, 3)]), tail=(1, [(3,)]))
        plan = plan_of((x, y, z), Atom("path", (x, y)), Atom("edge", (y, z)),
                       Atom("tail", (z,)))
        assert not join_layouts(plan)[1].distinct
        assert lower_plan(plan).steps[1](storage, [(1, 2)]) == [(1, 2, 3)]

    def test_candidates_and_projected_count_the_head_projection(self):
        storage = storage_of(path=(2, [(1, 2), (1, 3)]), edge=(2, [(2, 9), (3, 9)]))
        shaped = plan_of((x, z), Atom("path", (x, y)), Atom("edge", (y, z)))
        _, stats = run_counted(storage, shaped)
        assert (stats["candidates"], stats["projected"]) == (1, 1)
        computed = plan_of((x + z,), Atom("path", (x, y)), Atom("edge", (y, z)))
        _, stats = run_counted(storage, computed)
        assert (stats["candidates"], stats["projected"]) == (1, 1)
        widened = plan_of((x, Constant(0)), Atom("path", (x, y)))
        _, stats = run_counted(storage, widened)
        assert (stats["candidates"], stats["projected"]) == (1, 1)
        empty = plan_of((x, z), Atom("path", (x, y)), Atom("edge", (x, z)))
        _, stats = run_counted(storage, empty)
        assert (stats["candidates"], stats["projected"]) == (0, 0)


# -- which mapping the comprehension probes ---------------------------------------


class TestProbeTheIndexThatExists:
    ROWS = [(1, "a"), (1, "b"), (2, "c")]

    def plan(self):
        return plan_of((x, y), Atom("src", (x,)), Atom("t", (x, y)))

    def storage(self):
        return storage_of(src=(1, [(1,), (2,), (3,)]), t=(2, self.ROWS))

    def test_scalar_key_builds_a_table_when_nothing_is_indexed(self):
        rows, stats = run_counted(self.storage(), self.plan())
        assert rows == {(1, "a"), (1, "b"), (2, "c")}
        assert (stats["index"], stats["build"]) == (0, 1)

    def test_scalar_key_probes_a_live_index(self):
        storage = self.storage()
        storage.derived("t").build_index(0)
        rows, stats = run_counted(storage, self.plan())
        assert rows == {(1, "a"), (1, "b"), (2, "c")}
        assert (stats["index"], stats["build"]) == (1, 0)

    def test_a_lazily_registered_index_is_materialised_by_its_first_probe(self):
        storage = self.storage()
        storage.register_index("t", 0)
        assert storage.derived("t").indexed_columns() == ()
        _, stats = run_counted(storage, self.plan())
        assert (stats["index"], stats["build"]) == (1, 0)
        assert storage.derived("t").indexed_columns() == (0,)

    def test_the_built_table_is_keyed_on_the_key_column(self):
        """An asymmetric relation joined on its *second* column, unindexed."""
        storage = storage_of(src=(1, [(5,), (6,)]), t=(2, [(5, 6), (6, 7), (8, 5)]))
        plan = plan_of((x, y), Atom("src", (x,)), Atom("t", (y, x)))
        assert run_counted(storage, plan)[0] == {(5, 8), (6, 5)}

    def test_no_kept_columns_probes_each_distinct_key_once(self):
        """The block is its own key set: nothing is kept, nothing repeats."""
        storage = storage_of(src=(2, [(1, 7), (1, 8), (2, 9)]), t=(2, self.ROWS))
        plan = plan_of((z,), Atom("src", (x, y)), Atom("t", (x, z)))
        assert sorted(lower_plan(plan).steps[0](storage, [()])) == [(1,), (2,)]
        rows, stats = run_counted(storage, plan)
        assert rows == {("a",), ("b",), ("c",)}
        assert stats["candidates"] == stats["projected"] == 3

    @pytest.mark.parametrize("indexed", [(), (0,), (1,), (0, 1)])
    def test_a_multi_column_key_probes_whichever_key_column_is_indexed(self, indexed):
        """(1, 2) and (3, 5) share a first column with the block, (3, 4)
        its second: the residual equality on the other column decides."""
        storage = storage_of(src=(2, [(1, 2), (3, 4)]),
                             t=(3, [(1, 2, 9), (3, 5, 8), (7, 4, 6), (1, 4, 5)]))
        for column in indexed:
            storage.register_index("t", column)
        plan = plan_of((x, z), Atom("src", (x, y)), Atom("t", (x, y, z)))
        stats = new_block_stats()
        assert lower_plan(plan, stats=stats)(storage) == {(1, 9)}
        assert (stats["index"], stats["build"]) == ((1, 0) if indexed else (0, 1))
        assert storage.derived("t").indexed_columns() == indexed[:1]
        assert evaluate_subquery(storage, plan, executor="pushdown") == {(1, 9)}

    def test_the_static_rule_the_planner_and_the_kernel_share(self):
        plan = plan_of((x, z), Atom("src", (x, y)), Atom("t", (x, y, z)),
                       Atom("src", (x, y)))
        scan, keyed, whole = join_layouts(plan)
        assert scan.strategy(lambda column: True) == "scan"
        assert keyed.strategy(lambda column: False) == "build"
        assert keyed.strategy(lambda column: column == 1) == "index"
        assert keyed.probe_column(lambda column: column == 1) == 1
        assert whole.strategy(lambda column: False) == "index"


class TestMultiColumnKeyUsesAnIndex:
    """reach binds two of step's three columns: the kernel used to scan all
    of step on every batch of every iteration, indexed or not."""

    SOURCE = """
        start("a", "p", 0). start("b", "q", 0).
        step("a", 0, 1). step("a", 1, 2). step("a", 2, 0). step("b", 0, 5).
        step("b", 1, 1). step("c", 0, 9).
        reach(U, Tag, N) :- start(U, Tag, N).
        reach(U, Tag, M) :- reach(U, Tag, N), step(U, N, M).
    """
    EXPECTED = {("a", "p", 0), ("a", "p", 1), ("a", "p", 2), ("b", "q", 0), ("b", "q", 5)}

    @pytest.mark.parametrize("use_indexes", [True, False])
    def test_recursive_program_matches_pushdown_and_never_builds_when_indexed(self, use_indexes):
        base = EngineConfig.interpreted(use_indexes=use_indexes)
        results = {}
        for executor in ("pushdown", "vectorized"):
            engine = ExecutionEngine(parse_program(self.SOURCE), base.with_(executor=executor))
            results[executor] = engine.evaluate()["reach"]
            joins = engine.profile.summary()["block_joins"]
        assert results["vectorized"] == results["pushdown"] == self.EXPECTED
        assert joins["batches"] > 0
        if use_indexes:
            assert joins["build"] == 0 and joins["index"] > 0
        else:
            assert joins["index"] == 0 and joins["build"] > 0

    @pytest.mark.parametrize("column", [0, 1])
    def test_either_key_column_serves(self, column):
        storage = storage_of(
            reach=(3, [("a", "p", 0), ("b", "q", 1)]),
            step=(3, [("a", 0, 1), ("a", 1, 2), ("b", 0, 5), ("b", 1, 6)]),
        )
        storage.register_index("step", column)
        u, tag, n, m = (Variable(name) for name in ("u", "tag", "n", "m"))
        plan = plan_of((u, tag, m), Atom("reach", (u, tag, n)), Atom("step", (u, n, m)))
        rows, stats = run_counted(storage, plan)
        assert rows == {("a", "p", 1), ("b", "q", 6)}
        assert stats["build"] == 0 and stats["index"] == 1


# -- the differential matrix ------------------------------------------------------

BLOCK = tuple(Variable(f"b{i}") for i in range(3))
FRESH = tuple(Variable(f"f{i}") for i in range(2))
DOMAINS = {
    # Interned storage holds dense ids; raw storage whatever the program did.
    "ids": (0, 1, 2),
    "raw": ("s", 1.5, "t"),
}


def matrix_case(key_width, kept, fresh, checks, final, domain):
    """One plan ``src(b0, b1, b2), t(...)[, tail(h)]`` and its relations."""
    values = DOMAINS[domain]
    terms = list(BLOCK[:key_width]) + list(FRESH[:fresh])
    if "constant" in checks:
        terms.insert(1, Constant(values[1]))
    if "repeated" in checks:
        terms.append(FRESH[0])
    # Interleave fresh and kept head columns: f0, b2, f1, b1.
    kept_variables = BLOCK[::-1][:kept]
    head = [v for pair in itertools.zip_longest(FRESH[:fresh], kept_variables)
            for v in pair if v is not None]
    atoms = [Atom("src", BLOCK), Atom("t", tuple(terms))]
    if not final:
        atoms.append(Atom("tail", (head[0],)))   # holds every value: filters nothing
    rng = random.Random(f"{key_width}{kept}{fresh}{checks}{domain}")
    block_rows = [row for row in itertools.product(values, repeat=3)
                  if rng.random() < 0.6]
    relation_rows = [row for row in itertools.product(values, repeat=len(terms))
                     if rng.random() < 0.4]
    relations = {"src": (3, block_rows), "t": (len(terms), relation_rows),
                 "tail": (1, [(value,) for value in values])}
    return plan_of(head, *atoms), relations


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("indexing", ["indexed", "lazy", "unindexed"])
@pytest.mark.parametrize("final", [True, False], ids=["final", "non-final"])
@pytest.mark.parametrize("key_width", [1, 2, 3])
def test_every_join_shape_matches_the_pushdown_oracle(key_width, final, indexing, domain):
    cases = itertools.product(
        (0, 1, 2), (1, 2), ((), ("constant",), ("repeated",), ("constant", "repeated"))
    )
    nonempty = 0
    for kept, fresh, checks in cases:
        plan, relations = matrix_case(key_width, kept, fresh, checks, final, domain)
        layout = join_layouts(plan)[1]
        for emptied in (False, True):
            if emptied:
                relations = dict(relations, t=(relations["t"][0], []))
            storage = storage_of(**relations)
            for column in layout.key_positions if indexing != "unindexed" else ():
                storage.register_index("t", column)
                if indexing == "indexed":
                    storage.derived("t").build_index(column)
            rows, stats = run_counted(storage, plan)
            label = (key_width, kept, fresh, checks, final, indexing, domain)
            if emptied:
                assert rows == set(), label
                continue
            nonempty += bool(rows)
            assert isinstance(rows, set), label
            assert stats["scan"] == 1 and stats["projected"] == len(rows), label
            if indexing == "unindexed":
                assert (stats["index"], stats["build"]) == (0 if final else bool(rows), 1), label
            else:
                assert stats["build"] == 0, label
    assert nonempty >= 12       # the matrix is not vacuously agreeing on nothing


@pytest.mark.parametrize("interning", [True, False], ids=["interned", "raw"])
def test_string_and_float_values_through_the_public_api(interning):
    source = """
        reading("north", 1.5, "ok"). reading("north", 2.5, "bad").
        reading("south", 1.5, "ok"). limit("north", 2.5). limit("south", 1.5).
        next("ok", "fine"). next("bad", "alarm").
        flagged(Site, Label) :- limit(Site, Level), reading(Site, Level, State),
                                next(State, Label).
        seen(Site, Site) :- reading(Site, 1.5, State).
    """
    results = {}
    for executor in ("pushdown", "vectorized"):
        config = EngineConfig.interpreted().with_(executor=executor, interning=interning)
        with Database(parse_program(source), config) as db:
            results[executor] = {name: set(db.query(name).rows())
                                 for name in ("flagged", "seen")}
    assert results["vectorized"] == results["pushdown"] == {
        "flagged": {("north", "alarm"), ("south", "fine")},
        "seen": {("north", "north"), ("south", "south")},
    }


# -- the ledger's programs --------------------------------------------------------

PROGRAMS = {
    "tc": lambda order: build_transitive_closure_program([(1, 2)], order),
    "cspa": lambda order: build_cspa_program(CSPADataset(), order),
    "csda": lambda order: build_csda_program(CSDADataset(), order),
    "andersen": lambda order: build_andersen_program(SListLibDataset(), order),
}


@pytest.mark.parametrize("ordering", [Ordering.OPTIMIZED, Ordering.WORST],
                         ids=lambda ordering: ordering.value)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_rule_of_the_ledger_programs_lowers_and_compiles(name, ordering):
    tree = build_program_ir(PROGRAMS[name](ordering))
    plans = [node.plan for node in find_nodes(tree, JoinProjectOp)]
    assert plans
    for plan in plans:
        kernel = lower_plan(plan)
        positive = [source for source in kernel.sources if source is not None]
        assert len(positive) == len(join_layouts(plan))
        for text in positive:
            for line in text.splitlines():
                assert line.startswith("lambda rows, src")
                compile(line, "<test>", "eval")

"""Fig. 9: microbenchmark speedup (or slowdown) over "hand-optimized".

The worst case for adaptive optimization: already-good plans on programs too
short to amortise any overhead.  Values below 1x (slowdowns) are expected for
the heavier backends, mirroring the paper's ~0.1x Ackermann result.

``test_adapting_costs_less_than_it_saves`` is a gate, not a timing: on
inverse_functions (5- and 6-atom rules, the optimizer's heaviest search)
the JIT handed the *worst* order must finish within 3x of interpreting the
hand-optimised order with the same block kernels, median of 5 alternating
runs, equal results.  It measures what adapting costs — planning, lowering,
compiling — against the time of a plan that needs none of it.
"""

import statistics

import pytest

from repro.analyses.ordering import Ordering
from repro.bench.configurations import jit_configurations
from repro.analyses.registry import get_benchmark
from repro.bench.measurement import measure_program
from repro.core.config import EngineConfig
from benchmarks.conftest import run_benchmark_once

MICRO = ["ackermann", "fibonacci", "primes"]
JIT_CONFIGS = {label: config for label, config in jit_configurations(use_indexes=True)}


@pytest.mark.parametrize("name", MICRO)
def test_fig9_baseline_hand_optimized_interpreted(benchmark, name):
    benchmark.pedantic(
        run_benchmark_once,
        args=(name, EngineConfig.interpreted(), Ordering.OPTIMIZED),
        rounds=1, iterations=1,
    )


@pytest.mark.parametrize("label", sorted(JIT_CONFIGS), ids=lambda l: l.replace(" ", "_"))
@pytest.mark.parametrize("name", MICRO)
def test_fig9_jit_on_hand_optimized(benchmark, name, label):
    benchmark.pedantic(
        run_benchmark_once,
        args=(name, JIT_CONFIGS[label], Ordering.OPTIMIZED),
        rounds=1, iterations=1,
    )


def test_adapting_costs_less_than_it_saves():
    spec = get_benchmark("inverse_functions")
    runs = {
        "jit": (spec.build(Ordering.WORST), EngineConfig.jit("lambda")),
        "interpreted": (
            spec.build(Ordering.OPTIMIZED),
            EngineConfig.interpreted().with_(executor="vectorized"),
        ),
    }
    seconds = {side: [] for side in runs}
    sizes = {}
    for _ in range(5):
        for side, (program, config) in runs.items():
            measured = measure_program(program, config, spec.query_relation)
            seconds[side].append(measured.seconds)
            sizes[side] = measured.result_size
    assert sizes["jit"] == sizes["interpreted"]
    jit, interpreted = (statistics.median(seconds[side]) for side in runs)
    assert jit <= 3.0 * interpreted, (
        f"worst-order JIT {jit * 1e3:.1f} ms is {jit / interpreted:.1f}x "
        f"hand-optimised vectorized interpretation ({interpreted * 1e3:.1f} ms)"
    )

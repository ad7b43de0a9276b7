"""Extension benchmark: the observability layer's no-op cost.

The tracer's contract (`docs/OBSERVABILITY.md`) is that an uninstalled
sink costs one pointer comparison per emission site.  This benchmark
prices exactly that comparison.  The reference engine is the same code
with every ``if sink is not None`` / ``if tracer.SINK is not None`` /
``if metrics.ENABLED`` block compiled out: an AST transform of the
engine modules builds guard-free copies of the guarded functions, and
the reference runs swap them in through ``fn.__code__`` (forked shard
workers inherit the swap).  Both sides run the `promise_heavy`
workload with no sink installed, as interleaved pairs in one process,
alternating which side goes first, so host drift hits both alike.  The
median of the no-sink / guard-free time ratio must stay inside the
noise band; a regression here means the guards themselves stopped being
free (a guard that calls a function, or one moved into a per-successor
loop).  Work leaked outside a guard runs on both sides, so a trace
that shows it is the tool for that, not this ratio.
"""

import __future__

import ast
import contextlib
import inspect
import multiprocessing
import statistics
import time
import types

import pytest

from repro.memory import exploration, semantics
from repro.memory.semantics import ModelConfig
from repro.obs import metrics, tracer
from repro.parallel import shard
from repro.parallel.bench import promise_heavy_program

#: Modules whose emission guards the reference side compiles out.
GUARDED_MODULES = (semantics, exploration, shard)

#: Allowed median slowdown of the no-sink engine over the guard-free
#: one.  The measured no-op overhead is ~0 (a 0.97 median on a 2-CPU
#: host); the band absorbs runner noise.
NOISE_BAND = 1.10

#: Interleaved (no-sink, guard-free) pairs per test.
PAIRS = 5


def _is_guard(test: ast.expr) -> bool:
    """``sink is not None``, ``tracer.SINK is not None`` or
    ``metrics.ENABLED``: the tests that keep emission off the no-sink
    path."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return ast.unparse(test.left) in ("sink", "tracer.SINK")
    return ast.unparse(test) == "metrics.ENABLED"


class _StripGuards(ast.NodeTransformer):
    """Replace each guarded ``if`` block by its ``else`` branch."""

    def __init__(self) -> None:
        self.stripped = 0

    def visit_If(self, node: ast.If):
        self.generic_visit(node)
        if not _is_guard(node.test):
            return node
        self.stripped += 1
        return node.orelse or [ast.copy_location(ast.Pass(), node)]


def guard_free_code():
    """``{function: guard-free __code__}`` for every module-level
    function in ``GUARDED_MODULES`` that holds an emission guard, plus
    the number of guarded blocks stripped."""
    swaps, stripped = {}, 0
    for module in GUARDED_MODULES:
        path = inspect.getsourcefile(module)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            transform = _StripGuards()
            node = transform.visit(node)
            if not transform.stripped:
                continue
            node.decorator_list = []
            code = compile(
                ast.Module(body=[node], type_ignores=[]), path, "exec",
                flags=__future__.annotations.compiler_flag,
                dont_inherit=True,
            )
            fn = inspect.unwrap(getattr(module, node.name))
            swaps[fn] = next(
                c for c in code.co_consts
                if isinstance(c, types.CodeType) and c.co_name == node.name
            )
            stripped += transform.stripped
    return swaps, stripped


@contextlib.contextmanager
def swapped(swaps):
    """Run the body with *swaps* installed, restoring the originals."""
    originals = {fn: fn.__code__ for fn in swaps}
    try:
        for fn, code in swaps.items():
            fn.__code__ = code
        yield
    finally:
        for fn, code in originals.items():
            fn.__code__ = code


def _timed_promise_heavy():
    assert tracer.sink() is None and not metrics.metrics_enabled()
    program = promise_heavy_program()
    cfg = ModelConfig(relaxed=True, max_promises_per_thread=3)
    start = time.perf_counter()
    result = exploration.explore(program, cfg, por=True)
    return time.perf_counter() - start, result


def paired_ratios(swaps):
    """Interleave ``PAIRS`` (no-sink, guard-free) runs, alternating which
    side goes first; return the per-pair time ratios and both sides'
    results."""
    ratios, no_sink, guard_free = [], [], []
    for i in range(PAIRS):
        sides = {}
        for side in (("no_sink", "guard_free") if i % 2 == 0
                     else ("guard_free", "no_sink")):
            with swapped(swaps if side == "guard_free" else {}):
                sides[side] = _timed_promise_heavy()
        ratios.append(sides["no_sink"][0] / sides["guard_free"][0])
        no_sink.append(sides["no_sink"][1])
        guard_free.append(sides["guard_free"][1])
    return ratios, no_sink, guard_free


def _check_pairs(label):
    swaps, stripped = guard_free_code()
    # The transform must actually reach the engine's emission sites
    # in all three modules, or the comparison is vacuous.
    assert stripped >= 9
    assert {fn.__module__ for fn in swaps} == {
        m.__name__ for m in GUARDED_MODULES
    }
    # ... and the swapped-in engine must emit nothing, even to a sink.
    with swapped(swaps), tracer.recording() as rec:
        exploration.explore(
            promise_heavy_program(),
            ModelConfig(relaxed=True, max_promises_per_thread=1), por=True,
        )
    assert rec.counts() == {}
    ratios, no_sink, guard_free = paired_ratios(swaps)
    for ref, got in zip(guard_free, no_sink):
        assert ref.complete and got.complete
        assert got.states_explored == ref.states_explored, (
            "instrumentation changed the explored state space"
        )
        assert got.behaviors == ref.behaviors
    median = statistics.median(ratios)
    print(
        f"\npromise_heavy no-op tracing ({label}): {stripped} guarded "
        f"blocks in {len(swaps)} functions stripped; "
        f"{no_sink[0].states_explored} states; no-sink / guard-free "
        f"median x{median:.3f} over {len(ratios)} pairs "
        f"({', '.join(f'{r:.2f}' for r in ratios)})"
    )
    assert median < NOISE_BAND, (
        f"no-op tracing path is {median:.2f}x the guard-free engine — an "
        "emission site is doing work while no sink is installed"
    )


def test_noop_tracing_overhead(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD", "0")
    _check_pairs("serial")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="frontier sharding requires the fork start method",
)
def test_noop_tracing_overhead_sharded(monkeypatch):
    """The sharded orchestrator's emission sites (`shard_steal`,
    `visited_filter_hit`, the `shard_explore` span) must cost nothing
    with no sink installed, in workers and orchestrator alike."""
    monkeypatch.setenv("REPRO_SHARD", "2")
    _check_pairs("sharded")

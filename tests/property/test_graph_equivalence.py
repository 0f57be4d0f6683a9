"""The one-pass task enumeration and edge builder against references.

``cholesky_tasks`` builds each task once from shared access objects and
memoised ranks, and ``build_graph`` walks the cached access tuples.  The
references below are the straightforward forms: one ``make_task`` per
task, its priority and flops attached afterwards from ``_flops_for``
(the per-class formulas the PTG enumeration still uses), and an edge
derivation over de-duplicated read/write sets.  Graphs must agree in
task order, uids, priorities, flops, operand order and edge set.
"""

from collections import defaultdict
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import analyze_ranks
from repro.core.trimming import _flops_for, cholesky_tasks
from repro.runtime.dag import build_graph
from repro.runtime.scheduler import cholesky_priority
from repro.runtime.task import make_task

B = 16


def reference_tasks(nt, analysis, tile_size, rank_of):
    def mk(klass, params, panels=(), **kw):
        t = make_task(klass, params, **kw)
        flops = (
            _flops_for(klass, params, tile_size, rank_of, panels)
            if tile_size is not None
            else 0.0
        )
        return replace(t, priority=cholesky_priority(klass, params, nt), flops=flops)

    tasks = []
    for n in range(nt):
        panels = range(n) if analysis is None else analysis.syrk_panels(n)
        if panels:
            tasks.append(mk("SYRK", (n,), panels, reads=[(n, k) for k in panels], rw=[(n, n)]))
        tasks.append(mk("POTRF", (n,), rw=[(n, n)]))
        rows = range(n + 1, nt) if analysis is None else analysis.trsm_rows(n)
        for m in rows:
            panels = range(n) if analysis is None else analysis.gemm_panels(m, n)
            if panels:
                reads = [key for k in panels for key in ((m, k), (n, k))]
                tasks.append(mk("GEMM", (m, n), panels, reads=reads, rw=[(m, n)]))
            tasks.append(mk("TRSM", (m, n), reads=[(n, n)], rw=[(m, n)]))
    return tasks


def reference_edges(tasks):
    last_writer, readers_since, edges = {}, defaultdict(list), set()
    for i, t in enumerate(tasks):
        reads, writes = set(t.reads), set(t.writes)
        for d in reads:
            w = last_writer.get(d)
            if w is not None and w != i:
                edges.add((w, i))
            if d not in writes:
                readers_since[d].append(i)
        for d in writes:
            w = last_writer.get(d)
            if w is not None and w != i:
                edges.add((w, i))
            edges.update((r, i) for r in readers_since[d] if r != i)
            readers_since[d] = []
            last_writer[d] = i
    return edges


def edge_set(graph):
    edges = {(i, j) for i, succs in graph.successors.items() for j in succs}
    preds = {(i, j) for j, ps in graph.predecessors.items() for i in ps}
    assert edges == preds
    for table in (graph.successors, graph.predecessors):
        assert all(list(v) == sorted(set(v)) for v in table.values())
    return edges


@st.composite
def rank_patterns(draw):
    """A lower rank pattern: random density, or every off-diagonal tile
    null, or every one present; ranks past ``B`` exercise the cap."""
    nt = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "null", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    density = {"random": rng.random(), "null": 0.0, "full": 1.0}[kind]
    ranks = rng.integers(1, 2 * B, size=(nt, nt)) * (rng.random((nt, nt)) < density)
    np.fill_diagonal(ranks, B)
    return nt, np.tril(ranks)


class TestCholeskyGraphEquivalence:
    @given(pattern=rank_patterns(), trim=st.booleans(), estimate=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_enumeration(self, pattern, trim, estimate):
        nt, ranks = pattern
        analysis = analyze_ranks(ranks, nt) if trim else None
        rank_of = lambda m, k: int(ranks[m, k])  # noqa: E731
        kw = dict(tile_size=B, rank_of=rank_of) if estimate else {}
        new = cholesky_tasks(nt, analysis, **kw)
        ref = reference_tasks(nt, analysis, B if estimate else None, rank_of)
        assert [t.uid for t in new] == [t.uid for t in ref]
        assert new == ref  # accesses, priorities and flops
        assert [t.priority for t in new] == [t.priority for t in ref]
        assert [t.flops for t in new] == [t.flops for t in ref]
        assert [t.inputs for t in new] == [t.inputs for t in ref]
        assert edge_set(build_graph(new)) == reference_edges(ref)


@st.composite
def generic_tasks(draw):
    """Arbitrary access lists: every mode, repeated keys, a key both
    read and written, tasks with no access at all."""
    keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
    n = draw(st.integers(0, 25))
    return [
        make_task(
            "T",
            (i,),
            reads=draw(st.lists(keys, max_size=4)),
            rw=draw(st.lists(keys, max_size=2)),
            writes=draw(st.lists(keys, max_size=2)),
        )
        for i in range(n)
    ]


class TestBuildGraphEquivalence:
    @given(tasks=generic_tasks())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference_builder(self, tasks):
        assert edge_set(build_graph(tasks)) == reference_edges(tasks)

"""Tests for the memory trace domain T♯ (paper §6, Example 9 / Figure 4)."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.observers import ProjectedLabel
from repro.core.tracedag import TraceDAG


def label(*keys, count=None):
    return ProjectedLabel(keys=frozenset(keys), count=count or len(keys))


A, B, C, D = label("A"), label("B"), label("C"), label("D")


class TestLinearTraces:
    def test_single_path_counts_one(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        for access in (A, B, C):
            cursor = dag.access(cursor, access)
        ends = dag.finalize(cursor)
        assert dag.count(ends) == 1
        assert dag.count(ends, stuttering=True) == 1

    def test_multi_unit_access_multiplies(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, label("A", "B"))
        cursor = dag.access(cursor, label("C", "D", "E"))
        ends = dag.finalize(cursor)
        assert dag.count(ends) == 6

    def test_refined_count_used(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, label("A", "B", "C", count=2))
        ends = dag.finalize(cursor)
        assert dag.count(ends) == 2

    def test_empty_trace_counts_one(self):
        dag = TraceDAG()
        ends = dag.finalize(dag.root_cursor())
        assert dag.count(ends) == 1


class TestStuttering:
    def test_repetition_recorded_not_duplicated(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        for access in (A, A, A, B):
            cursor = dag.access(cursor, access)
        ends = dag.finalize(cursor)
        assert dag.count(ends) == 1
        assert dag.count(ends, stuttering=True) == 1
        # The A-run is one vertex with run=3, not three vertices.
        assert dag.size == 3  # root + A + B

    def test_figure_4_block_vs_bblock(self):
        """Example 9: both arms stay in block A; 5 vs 3 accesses.

        The block observer distinguishes the run lengths (1 bit); the
        stuttering b-block observer does not (0 bits)."""
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)
        taken = cursor
        for _ in range(4):
            taken = dag.access(taken, A)
        fallthrough = dag.access(dag.access(cursor, A), A)
        merged = dag.merge(taken, fallthrough)
        ends = dag.finalize(merged)
        assert dag.count(ends) == 2
        assert dag.count(ends, stuttering=True) == 1

    def test_figure_4_address_observer(self):
        """Same branch under the address observer: distinct vertices, 2 traces."""
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, label("i1"))
        taken = cursor
        for name in ("i2", "i3", "i4", "i5"):
            taken = dag.access(taken, label(name))
        fallthrough = dag.access(cursor, label("i2"))
        merged = dag.merge(taken, fallthrough)
        merged = dag.access(merged, label("i6"))
        ends = dag.finalize(merged)
        assert dag.count(ends) == 2
        assert dag.count(ends, stuttering=True) == 2

    def test_figure_15a_aba_pattern(self):
        """Taken path: A,B,A; fall-through: A only.  Both observers see
        exactly two traces (this is the rep-splitting refinement: the naive
        shared-repetition-set reading would count four)."""
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)  # shared prefix in block A
        taken = dag.access(cursor, B)
        taken = dag.access(taken, A)
        fallthrough = dag.access(dag.access(cursor, A), A)  # stays in A
        merged = dag.merge(taken, fallthrough)
        ends = dag.finalize(merged)
        assert dag.count(ends) == 2
        assert dag.count(ends, stuttering=True) == 2

    def test_common_tail_after_different_runs(self):
        """Figure 7b shape: arms differ only in run length inside block A,
        then both continue into block B: block sees 2, b-block sees 1."""
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)
        long_arm = dag.access(dag.access(cursor, A), A)
        short_arm = dag.access(cursor, A)
        merged = dag.merge(long_arm, short_arm)
        merged = dag.access(merged, B)
        ends = dag.finalize(merged)
        assert dag.count(ends) == 2
        assert dag.count(ends, stuttering=True) == 1

    def test_secret_label_never_stutters(self):
        """Two consecutive accesses with the same two-element label count
        2×2 (independent secret choices), not 2."""
        dag = TraceDAG()
        cursor = dag.root_cursor()
        secret = label("X", "Y")
        cursor = dag.access(cursor, secret)
        cursor = dag.access(cursor, secret)
        ends = dag.finalize(cursor)
        assert dag.count(ends) == 4


class TestForkJoin:
    def test_diamond_sums_paths(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)
        left = dag.access(cursor, B)
        right = dag.access(cursor, C)
        merged = dag.merge(left, right)
        merged = dag.access(merged, D)
        ends = dag.finalize(merged)
        assert dag.count(ends) == 2

    def test_identical_arms_collapse(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)
        left = dag.access(cursor, B)
        right = dag.access(cursor, B)
        merged = dag.merge(left, right)
        merged = dag.access(merged, C)
        ends = dag.finalize(merged)
        assert dag.count(ends) == 1

    def test_nested_diamonds_multiply(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        for _round in range(3):
            left = dag.access(cursor, A)
            right = dag.access(cursor, B)
            cursor = dag.merge(left, right)
            cursor = dag.access(cursor, C)
        ends = dag.finalize(cursor)
        assert dag.count(ends) == 8  # 2^3: one bit per secret branch

    def test_merge_same_label_different_runs(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)
        longer = dag.access(cursor, A)
        merged = dag.merge(cursor, longer)
        merged = dag.access(merged, B)
        ends = dag.finalize(merged)
        assert dag.count(ends) == 2
        assert dag.count(ends, stuttering=True) == 1

    def test_span_covers_unequal_arms(self):
        dag = TraceDAG()
        cursor = dag.access(dag.root_cursor(), A)
        short_arm = dag.access(cursor, B)  # A B D: 3 accesses
        long_arm = dag.access(dag.access(dag.access(cursor, C), C), B)  # A C C B D
        merged = dag.access(dag.merge(short_arm, long_arm), D)
        ends = dag.finalize(merged)
        assert dag.path_length_span(ends) == (3, 5)
        assert dag.count(ends) == 2


class TestStructuralSharing:
    def test_identical_commits_share_vertices(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)
        first = dag.access(cursor, B)
        second = dag.access(cursor, B)
        assert first == second  # cursors coincide: same virtual entry
        dag.finalize(dag.merge(first, second))
        assert dag.size == 3  # root + A + B

    def test_access_counter(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)
        cursor = dag.access(cursor, B)
        assert dag.accesses_recorded == 2

    def test_to_dot_renders(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)
        cursor = dag.access(cursor, B)
        dag.finalize(cursor)
        dot = dag.to_dot()
        assert "digraph" in dot
        assert "->" in dot

    def test_vertices_introspection(self):
        dag = TraceDAG()
        cursor = dag.root_cursor()
        cursor = dag.access(cursor, A)
        cursor = dag.access(cursor, B)
        dag.finalize(cursor)
        labels = {v.label for v in dag.vertices()}
        assert labels == {A, B}
        assert len(dag.stutter_vertices()) == 2


class TestCountingScale:
    def test_huge_counts_supported(self):
        """Scatter/gather-style: 384 accesses with 8 observations each."""
        dag = TraceDAG()
        cursor = dag.root_cursor()
        for i in range(384):
            cursor = dag.access(cursor, label(*[f"{i}:{k}" for k in range(8)]))
        ends = dag.finalize(cursor)
        assert dag.count(ends) == 8 ** 384


class TestVertexLookup:
    def test_unknown_ids_raise_key_error(self):
        dag = TraceDAG()
        cursor = dag.access(dag.access(dag.root_cursor(), A), B)
        dag.finalize(cursor)
        assert dag.vertex(1).label == A
        assert dag.vertex(2).label == B
        for ident in (0, -1, -2, 3, 100):
            with pytest.raises(KeyError):
                dag.vertex(ident)


# Equal labels built separately: runs extend only on the same label object,
# so an equal but distinct label must start a new vertex on both paths.
_LABELS = [
    lambda: label("A"), lambda: label("B"), lambda: label("C"),
    lambda: label("X", "Y"), lambda: label("X", "Y", "Z", count=2),
]
_RUNS = st.lists(
    st.tuples(st.sampled_from(_LABELS), st.integers(min_value=1, max_value=4)),
    max_size=12,
).map(lambda pairs: [(make(), count) for make, count in pairs])


def _fields(vertex):
    return tuple(getattr(vertex, name) for name in vertex.__slots__)


def _render(dag, ends):
    """Everything a reader of the DAG sees."""
    return (
        dag.size, dag.accesses_recorded,
        [_fields(vertex) for vertex in dag.vertices()],
        [_fields(vertex) for vertex in dag.stutter_vertices()],
        dag.count(ends), dag.count(ends, stuttering=True),
        dag.path_length_span(ends),
        dag.to_dot(), dag.to_dot(stuttering=True),
    )


class TestBatchedAccesses:
    """``access_seq`` is exactly repeated ``access``."""

    @staticmethod
    def _start(start):
        dag = TraceDAG(dedupe=start != "chain")
        cursor = dag.root_cursor()
        if start == "merged":
            cursor = dag.access(cursor, A)
            cursor = dag.merge(dag.access(cursor, B),
                               dag.access(dag.access(cursor, C), C))
            assert len(cursor) == 2
        return dag, cursor

    @settings(max_examples=60, deadline=None)
    @given(start=st.sampled_from(["chain", "root", "merged"]),
           prefix=_RUNS, runs=_RUNS)
    def test_seq_and_access_agree(self, start, prefix, runs):
        outcomes = []
        for way in ("seq", "access"):
            dag, cursor = self._start(start)
            for batch in (prefix, runs):
                if way == "seq":
                    cursor = dag.access_seq(cursor, batch)
                else:
                    for access, count in batch:
                        for _ in range(count):
                            cursor = dag.access(cursor, access)
            outcomes.append((cursor, _render(dag, dag.finalize(cursor))))
        assert outcomes[0] == outcomes[1]


class TestColumnarStorage:
    def test_fork_free_chain_leaves_no_per_vertex_objects(self):
        """A fork-free commit appends to the DAG's lists: no vertex records
        or parent sets for the cyclic collector to track."""
        dag = TraceDAG(dedupe=False)
        cursor = dag.root_cursor()
        runs = [(A, 1), (B, 2)] * 5_000
        gc.collect()
        before = len(gc.get_objects())
        cursor = dag.access_seq(cursor, runs)
        grown = len(gc.get_objects()) - before
        assert dag.size == 10_000  # root + 9,999 commits; the tail is open
        assert grown < 100

    def test_fork_free_chain_stores_machine_words(self):
        """Parent ids, runs and spans are unboxed, and the unforked quotient
        and high-span columns are the exact ones: a fork-free commit costs
        about five 8-byte column slots, not nine, nor four boxed ``int``
        objects on top of them (~200 bytes per commit in a list-of-ints
        layout)."""
        dag = TraceDAG(dedupe=False)
        cursor = dag.root_cursor()
        runs = [(A, 1), (B, 2)] * 5_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cursor = dag.access_seq(cursor, runs)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        commits = dag.size - 1
        assert commits == 9_999
        assert grown / commits < 56


E, F = label("E"), label("F")


def _explore_three_arms(dag):
    """A fork-free A B, then a fork (deduplication turns on, as the engine
    does it), arms C x1, C x2 and D, a three-way merge, and a tail E F.
    E has three exact parents but two stuttering ones (C x1 and C x2 are
    one stuttering vertex), so the two DAGs number them differently."""
    cursor = dag.access_seq(dag.root_cursor(), [(A, 1), (B, 1)])
    dag.enable_dedupe()
    arms = [dag.access(cursor, C), dag.access(dag.access(cursor, C), C),
            dag.access(cursor, D)]
    cursor = dag.merge(dag.merge(arms[0], arms[1]), arms[2])
    return dag.finalize(dag.access(dag.access(cursor, E), F))


def _shape(vertices, with_run):
    """Each vertex by name (its label's key, plus ``x<run>`` for the exact
    DAG) mapped to its parents' names: independent of commit order."""
    names = {0: "root"}
    for vertex in vertices:
        (key,) = vertex.label.keys
        names[vertex.ident] = f"{key}x{vertex.run}" if with_run else key
    return {names[vertex.ident]: {names[parent] for parent in vertex.parents}
            for vertex in vertices}


class TestMultiParentVertices:
    """The root and merge vertices keep their parent sets out of the
    unboxed parent columns; every reader must find them."""

    def test_introspection_round_trips_parent_sets(self):
        dag = TraceDAG(dedupe=False)
        ends = _explore_three_arms(dag)
        assert _shape(dag.vertices(), with_run=True) == {
            "Ax1": {"root"}, "Bx1": {"Ax1"}, "Cx1": {"Bx1"}, "Cx2": {"Bx1"},
            "Dx1": {"Bx1"}, "Ex1": {"Cx1", "Cx2", "Dx1"}, "Fx1": {"Ex1"}}
        assert _shape(dag.stutter_vertices(), with_run=False) == {
            "A": {"root"}, "B": {"A"}, "C": {"B"}, "D": {"B"},
            "E": {"C", "D"}, "F": {"E"}}
        for vertex in dag.vertices():
            assert dag.vertex(vertex.ident) == vertex
        assert dag.count(ends) == 3
        assert dag.count(ends, stuttering=True) == 2
        assert dag.path_length_span(ends) == (5, 6)
        for vertices, stuttering in ((dag.vertices(), False),
                                     (dag.stutter_vertices(), True)):
            dot = dag.to_dot(stuttering=stuttering)
            edges = {line.strip() for line in dot.splitlines() if "->" in line}
            assert edges == {f"v{parent} -> v{vertex.ident};"
                             for vertex in vertices for parent in vertex.parents}

    def test_each_dag_keeps_its_own_parent_sets(self):
        """Traces B, C B, C D B and C C D B.  Exact vertex 3 (D, after C x1
        or C x2) and stuttering vertex 3 (B, after the root, C or D) both
        keep their parents in a side dict, each DAG in its own: the merge
        that splits the unforked columns copies the dict."""
        dag = TraceDAG(dedupe=False)
        root = dag.root_cursor()
        short = dag.merge(root, dag.access(root, C))    # "" or C
        long = dag.access(dag.access(short, C), D)      # C D or C C D
        ends = dag.finalize(dag.access(dag.merge(short, long), B))
        assert _shape(dag.vertices(), with_run=True) == {
            "Cx1": {"root"}, "Cx2": {"root"}, "Dx1": {"Cx1", "Cx2"},
            "Bx1": {"root", "Cx1", "Dx1"}}
        assert _shape(dag.stutter_vertices(), with_run=False) == {
            "C": {"root"}, "D": {"C"}, "B": {"root", "C", "D"}}
        assert dag.count(ends) == 4
        assert dag.count(ends, stuttering=True) == 3


class TestUnforkedColumns:
    """An unforked DAG keeps one column set for the exact DAG, its quotient
    and both span bounds; switching deduplication on splits them.  Either
    way a reader sees what a DAG deduplicating from the start shows."""

    @settings(max_examples=80, deadline=None)
    @given(prefix=_RUNS, switch=st.sampled_from(["enable_dedupe", "merge"]),
           finalize_first=st.booleans(), tail=_RUNS)
    def test_split_matches_deduplicating_dag(self, prefix, switch,
                                             finalize_first, tail):
        outcomes = []
        for dag in (TraceDAG(dedupe=False), TraceDAG()):
            cursor = dag.access_seq(dag.root_cursor(), prefix)
            if finalize_first:
                # The chain ends here (continuing from a finalized cursor
                # would commit its tail twice): its final vertices are read
                # through the shared columns, then through the split ones.
                ends = dag.finalize(cursor)
                before = _render(dag, ends)
                if switch == "enable_dedupe":
                    dag.enable_dedupe()
                else:
                    dag.merge(cursor, cursor)
                outcomes.append((before, _render(dag, ends)))
                continue
            # The switch precedes every commit after the prefix, as the
            # engine's fork does: the merge joins the chain with the empty
            # trace, so the next commit has the root and the tail as parents.
            if switch == "enable_dedupe":
                dag.enable_dedupe()
                arms = [dag.access(cursor, C), dag.access(cursor, D)]
            else:
                arms = [cursor, dag.root_cursor()]
            cursor = dag.access_seq(dag.merge(*arms), [(E, 1)] + tail)
            outcomes.append(_render(dag, dag.finalize(cursor)))
        assert outcomes[0] == outcomes[1]

"""The memory trace abstract domain T♯ (paper §6).

A directed acyclic graph compactly represents the set of memory-access traces
a program may produce, as seen by one observer.  Projections are applied at
update time (the paper's "Implementation Issues" paragraph), and maximal runs
of accesses to the same unit are collapsed into repetition counts.

Representation
--------------
A *cursor* is a set of virtual entries ``(parents, stutter_parents, label,
run)`` describing the in-progress tail of each trace bundle: the last
``run`` accesses all projected to ``label``.  When the next access projects
to a different label, the entry is *committed* as a real vertex and a new
virtual entry is opened.  Cursor parents are frozensets of vertex ids.

Labels are canonical: a run is extended only when the next access carries
the *same* label object (the engine interns its labels per run).  An equal
but distinct label starts a new vertex, which is sound, only less precise.

Each DAG is stored as parallel columns indexed by vertex id: label, parents,
run, count and the low/high path-length span for the exact DAG; label,
parents and count for the stuttering quotient.  Slot 0 holds the root as an
ordinary entry (count 1, span 0), so the folds read it like any other
parent.  The bounded int columns (parent ids, runs and the span) are
unboxed ``array('q')`` columns; labels and counts stay lists, because
labels are objects and counts are unbounded (Proposition 2 multiplies
label sizes along a path).  A vertex with one parent stores that parent's
id; the root and a multi-parent vertex store the marker id ``-1`` and
keep their parent frozenset in a side dict.  The :class:`Vertex` and
:class:`StutterVertex` records are built on demand for introspection.

While key deduplication is off (``TraceDAG(dedupe=False)``, an engine run
before its first fork or merge) the exact DAG is one path from the root.
Its stuttering quotient is then the same path, vertex for vertex, and
every high span equals the low one, so the quotient and high columns *are*
the exact label, parent, count and low columns.  A commit appends five
machine words (a label and a count reference, a parent id, a run and a
span): no vertex record, no parent set, no boxed id or span, and no copy.
The columns split, by one list/array copy each, when deduplication turns
on (:meth:`TraceDAG.enable_dedupe`, or the first :meth:`TraceDAG.merge`),
before the first deduplicated commit; ``TraceDAG()`` splits at once.

Three refinements over the paper's §6.4 presentation (all verified against
the paper's reported numbers and by exhaustive concrete validation):

- **Rep-splitting.**  Committed vertices are keyed by ``(parents, label,
  run)`` — the repetition count is part of the identity.  The paper stores a
  *set* ``R(v)`` of repetition counts per vertex, which conflates a path that
  ends inside a block with one that passes through it and re-enters it (the
  A-B-A layout of Figure 15a would count 4 instead of 2).  Per-run vertices
  count exactly the distinct projected traces.
- **Quotient stuttering.**  The bound for the stuttering observer (the
  ``b-block`` columns) is computed on a parallel DAG whose vertices ignore
  the repetition count — the quotient of the exact DAG modulo stuttering —
  instead of replacing the ``|R(v)|`` factor by 1.
- **No stuttering of secret-dependent labels.**  A run is only extended when
  the label is a single observation (``count == 1``).  Repeating a
  multi-element label would under-count independent secret choices, so such
  accesses always commit a fresh vertex.

Counting follows Proposition 2: ``cnt(v) = |π(L(v))| · Σ_{(u,v)∈E} cnt(u)``
with the repetition factor folded into vertex identities.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.core.observers import ProjectedLabel

__all__ = ["TraceDAG", "Cursor", "EndSet", "EMPTY_ENDS", "Vertex", "StutterVertex", "ROOT_VERTEX"]

ROOT_VERTEX = 0
# Parent-column marker: the vertex's parent set is in the side dict.
_MULTI_PARENT = -1

# A cursor entry: (exact parent ids, stutter parent ids, label, run).
Entry = tuple[frozenset, frozenset, ProjectedLabel | None, int]
Cursor = frozenset  # frozenset[Entry]


@dataclass(frozen=True, slots=True)
class Vertex:
    """One committed access bundle in the exact DAG.

    ``count_value`` and ``min_span``/``max_span`` were folded at commit
    time: the DAG grows topologically (every parent is committed before its
    children), so Proposition 2 and the path-length span are one
    constant-time fold per vertex instead of a whole-DAG walk per query.
    """

    ident: int
    label: ProjectedLabel
    parents: frozenset
    run: int
    count_value: int
    min_span: int
    max_span: int


@dataclass(frozen=True, slots=True)
class StutterVertex:
    """One committed access bundle in the stuttering-quotient DAG."""

    ident: int
    label: ProjectedLabel
    parents: frozenset
    count_value: int


@dataclass(frozen=True, slots=True)
class EndSet:
    """Final vertices of both DAGs (returned by :meth:`TraceDAG.finalize`)."""

    exact: frozenset[int]
    stutter: frozenset[int]

    def union(self, other: "EndSet") -> "EndSet":
        return EndSet(self.exact | other.exact, self.stutter | other.stutter)


EMPTY_ENDS = EndSet(frozenset(), frozenset())


def _parent_set(column: array, parent_sets: dict[int, frozenset],
                ident: int) -> frozenset:
    """The frozenset of parent ids of vertex ``ident``."""
    parent = column[ident]
    if parent == _MULTI_PARENT:
        return parent_sets[ident]
    return frozenset((parent,))


class TraceDAG:
    """A single-observer trace DAG with cursor-based updates."""

    def __init__(self, dedupe: bool = True) -> None:
        # Parallel columns indexed by vertex id, slot 0 the root (see the
        # module docstring); a parent column holds a parent id, or
        # _MULTI_PARENT for a vertex whose parent set is in the side dict.
        self._labels: list[ProjectedLabel | None] = [None]
        self._parents = array("q", (_MULTI_PARENT,))
        self._parent_sets: dict[int, frozenset] = {ROOT_VERTEX: frozenset()}
        self._runs = array("q", (0,))
        self._counts: list[int] = [1]
        self._lows = array("q", (0,))
        # One path from the root until deduplication turns on: the high
        # span and quotient columns are the exact ones (module docstring).
        self._highs = self._lows
        self._stutter_labels = self._labels
        self._stutter_parents = self._parents
        self._stutter_parent_sets = self._parent_sets
        self._stutter_counts = self._counts
        # Registries map commit keys to the *frozenset* {ident} handed to
        # cursors, so repeat commits reuse one allocation.  While the cursor
        # bundle is a single never-duplicated chain (an engine run before its
        # first fork), every commit key is provably fresh and the registry
        # probes are skipped entirely; the engine re-enables deduplication at
        # the first fork (``dedupe=False`` is only sound under that
        # discipline, so it is opt-out, not the default).
        self._registry: dict[tuple, frozenset] = {}
        self._stutter_registry: dict[tuple, frozenset] = {}
        self._dedupe = False
        self._access_count = 0
        if dedupe:
            self.enable_dedupe()

    def enable_dedupe(self) -> None:
        """Start deduplicating commit keys (engine calls this at any fork).

        Keys committed while deduplication was off cannot recur afterwards
        *within the same exploration*: the pre-fork cursor is a single chain
        whose every commit has the freshly created previous vertex as its
        parent set, and post-fork commits descend from the open tail, whose
        parent set never appeared in a committed key.  A second exploration
        from the root could repeat old keys, which is why an engine (and
        with it its DAGs) runs once.

        The first call splits the high span and stuttering-quotient columns
        off the exact ones they shared along the chain; later calls do
        nothing.
        """
        if self._dedupe:
            return
        self._dedupe = True
        self._highs = self._lows[:]
        self._stutter_labels = self._labels.copy()
        self._stutter_parents = self._parents[:]
        self._stutter_parent_sets = self._parent_sets.copy()
        self._stutter_counts = self._counts.copy()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def vertex(self, ident: int) -> Vertex:
        """The exact-DAG vertex record (``KeyError`` for the root or an
        id that names no committed vertex)."""
        if not 0 < ident < len(self._labels):
            raise KeyError(ident)
        return Vertex(ident, self._labels[ident],
                      _parent_set(self._parents, self._parent_sets, ident),
                      self._runs[ident], self._counts[ident],
                      self._lows[ident], self._highs[ident])

    def vertices(self) -> list[Vertex]:
        """All committed exact vertices."""
        return [self.vertex(ident) for ident in range(1, len(self._labels))]

    def stutter_vertices(self) -> list[StutterVertex]:
        """All committed stuttering-quotient vertices."""
        return [
            StutterVertex(ident, self._stutter_labels[ident],
                          _parent_set(self._stutter_parents,
                                      self._stutter_parent_sets, ident),
                          self._stutter_counts[ident])
            for ident in range(1, len(self._stutter_labels))
        ]

    @property
    def size(self) -> int:
        """Number of committed exact vertices plus the root."""
        return len(self._labels)

    @property
    def accesses_recorded(self) -> int:
        """Total number of update operations performed."""
        return self._access_count

    # ------------------------------------------------------------------
    # Cursor operations (§6.4)
    # ------------------------------------------------------------------
    def root_cursor(self) -> Cursor:
        """The cursor of the empty trace."""
        root = frozenset((ROOT_VERTEX,))
        return frozenset(((root, root, None, 0),))

    def access(self, cursor: Cursor, label: ProjectedLabel) -> Cursor:
        """Extend every trace bundle in ``cursor`` with one access.

        The single-entry cursor (any straight-line stretch of code) is the
        overwhelmingly common case and skips the pending-set bookkeeping
        entirely: one run extension or one commit, one frozenset built.
        A run extends only on the same label object (labels are canonical,
        see the module docstring).
        """
        self._access_count += 1
        single = label.is_single
        if len(cursor) == 1:
            (entry,) = cursor
            parents, stutter_parents, entry_label, run = entry
            if single and entry_label is label:
                return frozenset(((parents, stutter_parents, label, run + 1),))
            exact_ids, stutter_ids = self._commit(
                parents, stutter_parents, entry_label, run)
            return frozenset(((exact_ids, stutter_ids, label, 1),))
        survivors: set[Entry] = set()
        pending_exact: set[int] = set()
        pending_stutter: set[int] = set()
        for parents, stutter_parents, entry_label, run in cursor:
            if single and entry_label is label:
                survivors.add((parents, stutter_parents, label, run + 1))
                continue
            exact_ids, stutter_ids = self._commit(
                parents, stutter_parents, entry_label, run)
            pending_exact |= exact_ids
            pending_stutter |= stutter_ids
        if pending_exact:
            survivors.add((
                frozenset(pending_exact), frozenset(pending_stutter), label, 1,
            ))
        return frozenset(survivors)

    def access_seq(self, cursor: Cursor, runs: list) -> Cursor:
        """Extend ``cursor`` with a whole run-length-encoded access sequence.

        ``runs`` is a list of ``(label, count)`` pairs; the result is exactly
        :meth:`access` applied ``count`` times per pair, in order.  For the
        single-entry cursor the loop keeps the entry unpacked and rebuilds
        the frozenset once at the end — the engine pushes a block unit's
        whole fetch sequence through here in one call, so the per-access
        cursor churn of the stepwise path is what this removes.  A
        multi-entry cursor (only after a merge) takes the stepwise path.
        """
        if len(cursor) != 1:
            access = self.access
            for label, count in runs:
                for _ in range(count):
                    cursor = access(cursor, label)
            return cursor
        ((parents, stutter_parents, entry_label, run),) = cursor
        if not self._dedupe:
            return self._access_seq_chain(parents, entry_label, run, runs)
        commit = self._commit
        total = 0
        for label, count in runs:
            total += count
            if label.is_single:
                if entry_label is label:
                    run += count
                    continue
                parents, stutter_parents = commit(
                    parents, stutter_parents, entry_label, run)
                entry_label = label
                run = count
            else:
                for _ in range(count):
                    parents, stutter_parents = commit(
                        parents, stutter_parents, entry_label, run)
                    entry_label = label
                    run = 1
        self._access_count += total
        return frozenset(((parents, stutter_parents, entry_label, run),))

    def _access_seq_chain(self, parents, entry_label, run, runs):
        """:meth:`access_seq` for the pre-fork chain (dedupe off).

        Before the first fork the cursor is one never-duplicated chain: every
        commit's parent is the vertex committed just before it, so the
        count/span folds of :meth:`_commit` only ever consult the previous
        vertex.  This loop keeps those folds and the parent id in running
        locals and appends each commit to the five exact columns (the
        quotient and high columns are the same objects): no registry probes
        (dedupe is off), no indexing back into the columns, and no frozenset
        until the returned cursor, whose entry names one parent set for both
        DAGs.  It is bit-identical to the general path; the engine pushes
        every block unit's fetch sequence through here on fork-free
        prefixes (all of fig14b-d).
        """
        (parent,) = parents
        prev_total = self._counts[parent]
        prev_low = self._lows[parent]
        first = ident = len(self._labels) - 1
        add_label = self._labels.append
        add_parent = self._parents.append
        add_run = self._runs.append
        add_count = self._counts.append
        add_low = self._lows.append
        total = 0
        for label, count in runs:
            total += count
            single = label.is_single
            if single and entry_label is label:
                run += count
                continue
            commits = 1 if single else count
            while commits:
                commits -= 1
                if entry_label is not None:
                    prev_total = entry_label.count * prev_total
                    prev_low = run + prev_low
                    add_label(entry_label)
                    add_parent(parent)
                    add_run(run)
                    add_count(prev_total)
                    add_low(prev_low)
                    ident += 1
                    parent = ident
                entry_label = label
                run = count if single else 1
        self._access_count += total
        if ident != first:
            parents = frozenset((parent,))
        return frozenset(((parents, parents, entry_label, run),))

    def merge(self, first: Cursor, second: Cursor) -> Cursor:
        """Join two cursors at a control-flow merge (joins stay lazy).

        Merged bundles can commit the same entry twice, so merging always
        turns key deduplication on (for engine runs it already is: forks
        precede merges).
        """
        self.enable_dedupe()
        return first | second

    def finalize(self, cursor: Cursor) -> EndSet:
        """Commit all in-progress runs; returns the final vertices."""
        exact: set[int] = set()
        stutter: set[int] = set()
        for parents, stutter_parents, entry_label, run in cursor:
            exact_ids, stutter_ids = self._commit(
                parents, stutter_parents, entry_label, run)
            exact |= exact_ids
            stutter |= stutter_ids
        return EndSet(frozenset(exact), frozenset(stutter))

    def _commit(self, parents: frozenset, stutter_parents: frozenset,
                label: ProjectedLabel | None, run: int):
        """Turn a virtual entry into real vertices in both DAGs.

        Returns *frozensets* of vertex ids (cached in the registries, so
        repeat commits share them).  Before deduplication turns on, the
        commit extends the one path from the root: one parent, a fresh key,
        and the quotient is the same vertex, so it appends to the exact
        columns only and returns one id set for both DAGs.  After, the
        registry probe uses ``setdefault``, hashing each key exactly once on
        the dominant new-vertex path; the count/span folds happen here
        while the parents are at hand, and a single parent is stored and
        folded as a plain id; only a multi-parent vertex reaches the side
        dict.  This is the hottest function of the whole DAG layer once an
        exploration forks.
        """
        if label is None:  # root-virtual entry: nothing to commit
            return parents, stutter_parents
        labels = self._labels
        ident = len(labels)
        exact_ids = frozenset((ident,))
        if not self._dedupe:
            (parent,) = parents
            labels.append(label)
            self._parents.append(parent)
            self._runs.append(run)
            self._counts.append(label.count * self._counts[parent])
            self._lows.append(run + self._lows[parent])
            return exact_ids, exact_ids
        existing = self._registry.setdefault((parents, label, run), exact_ids)
        if existing is exact_ids:
            counts = self._counts
            lows = self._lows
            highs = self._highs
            if len(parents) == 1:
                (parent,) = parents
                total = counts[parent]
                low = lows[parent]
                high = highs[parent]
            else:
                parent = _MULTI_PARENT
                self._parent_sets[ident] = parents
                total = sum([counts[p] for p in parents])
                low = min([lows[p] for p in parents])
                high = max([highs[p] for p in parents])
            labels.append(label)
            self._parents.append(parent)
            self._runs.append(run)
            counts.append(label.count * total)
            lows.append(run + low)
            highs.append(run + high)
        else:
            exact_ids = existing
        stutter_labels = self._stutter_labels
        stutter_ident = len(stutter_labels)
        stutter_ids = frozenset((stutter_ident,))
        existing = self._stutter_registry.setdefault(
            (stutter_parents, label), stutter_ids)
        if existing is stutter_ids:
            stutter_counts = self._stutter_counts
            if len(stutter_parents) == 1:
                (parent,) = stutter_parents
                total = stutter_counts[parent]
            else:
                parent = _MULTI_PARENT
                self._stutter_parent_sets[stutter_ident] = stutter_parents
                total = sum([stutter_counts[p] for p in stutter_parents])
            stutter_labels.append(label)
            self._stutter_parents.append(parent)
            stutter_counts.append(label.count * total)
        else:
            stutter_ids = existing
        return exact_ids, stutter_ids

    # ------------------------------------------------------------------
    # Counting (§6.3, Proposition 2)
    # ------------------------------------------------------------------
    def count(self, ends: EndSet, stuttering: bool = False) -> int:
        """Upper bound on the number of observable traces.

        ``stuttering=True`` bounds the observer that cannot distinguish
        repeated accesses to the same unit (the ``b-block`` columns).
        Counts were folded at commit time (Proposition 2 over the
        topological build order), so this is a sum over the final vertices.
        """
        counts = self._stutter_counts if stuttering else self._counts
        final = ends.stutter if stuttering else ends.exact
        return sum([counts[ident] for ident in final]) or 1

    def path_length_span(self, ends: EndSet) -> tuple[int, int]:
        """Shortest and longest access count over all traces in the exact DAG.

        A vertex contributes its repetition count ``run``; the span is used
        by :mod:`repro.core.adversary` to bound the time-based adversary,
        whose observation ``(hits, misses)`` always sums to the trace length.
        """
        final = ends.exact
        if not final:
            return (0, 0)
        lows = self._lows
        highs = self._highs
        return (min([lows[ident] for ident in final]),
                max([highs[ident] for ident in final]))

    # ------------------------------------------------------------------
    # Rendering (used for Figure 4)
    # ------------------------------------------------------------------
    def to_dot(self, describe=None, stuttering: bool = False) -> str:
        """Render the DAG in Graphviz dot format."""
        describe = describe or (lambda label: ",".join(sorted(map(str, label.keys))))
        lines = ["digraph trace {", '  v0 [label="r"];']
        vertices = self.stutter_vertices() if stuttering else self.vertices()
        for vertex in vertices:
            run_text = "" if stuttering else f" x{vertex.run}"
            lines.append(
                f'  v{vertex.ident} [label="{describe(vertex.label)}{run_text}"];')
            for parent in vertex.parents:
                lines.append(f"  v{parent} -> v{vertex.ident};")
        lines.append("}")
        return "\n".join(lines)

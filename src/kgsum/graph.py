"""In-memory labeled directed multigraph plus the count indexes the encoders need.

File format: triples are UTF-8 lines ``subject<TAB>predicate<TAB>object``,
labels are ``node<TAB>label``. Lines starting with ``#`` are comments, blank
lines are skipped, and a leading byte-order mark is ignored.  A file that is
not valid UTF-8 is an error naming its first bad line.  Identifiers must not
contain tabs or newlines.

Layout.  Nodes, labels and predicates are interned to dense ids in first-seen
order, and so are the distinct edges: an edge id is the edge's index in
``distinct_edges``.  The distinct edges are three ``array("I")`` columns
(subject, predicate, object) in edge-id order, and the edge multiset is one
column holding each file line's edge id.  Each direction has a
compressed-sparse-row (CSR) index over the distinct edges: its rows are sorted
by (node, predicate, neighbour), where the node is the subject for ``OUT`` and
the object for ``IN``, an offsets column gives each node's first row, and three
parallel columns give each row's predicate, neighbour and edge id.  Every
column is 32 bits wide, so a graph holds fewer than 2**32 nodes, predicates and
edges.  ``neighbors`` returns a slice of the neighbour column, in ascending id
order; ``neighbor_edge_ids`` and ``edge_index`` bisect a node's rows and read
the edge-id column, so no edge key is built or hashed after loading.  ``csr``
hands out one direction's columns, for a caller that reads the rows of many
nodes in one pass (``rules.match`` on a star rule).  The
label assignments (node, label) are numbered densely by node, then label:
node ``v``'s labels, in ascending label id, hold the assignment ids
``label_offsets[v]`` to ``label_offsets[v + 1] - 1``.  A rule's coverage is
its edge ids and its assignment ids (``assignment_ids``).  Nodes with equal
label sets share one frozenset, and each label's nodes are one ascending
``array("I")`` of node ids (``label_index``), built at load from the nodes'
label sets; ``label_nodes`` hands out a frozenset copy.  ``edges`` and
``distinct_edges`` build (s, p, o) tuple lists on each call; mining, scoring
and completion never call them.
"""

from __future__ import annotations

import warnings
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import accumulate, compress, count, repeat
from operator import and_, eq, rshift
from typing import Iterable, Iterator, Sequence, TextIO

OUT = 0  # the node is the subject of the edge
IN = 1  # the node is the object of the edge

_MASK = (1 << 32) - 1


class GraphParseError(ValueError):
    """A malformed triple/label line (wrong field count)."""

    def __init__(self, source: str, line_no: int, line: str):
        self.source = source
        self.line_no = line_no
        self.line = line
        super().__init__(f"{source}, line {line_no}: expected tab-separated fields, got {line!r}")


class _Rows:
    """One direction's CSR index: the rows of node ``v`` are
    ``offsets[v]:offsets[v + 1]``, sorted by (predicate, neighbour)."""

    __slots__ = ("offsets", "preds", "ends", "edge_ids")

    def __init__(self, nodes: array, preds: array, ends: array, keys: list[int], num_nodes: int) -> None:
        """Rows from the edge columns; ``keys[e]`` orders edge ``e`` by (node,
        predicate, neighbour).  The columns are gathered straight into arrays,
        with no list of int objects (memory)."""
        edge_ids = self.edge_ids = array("I", sorted(range(len(keys)), key=keys.__getitem__))
        rows_before = [0] * (num_nodes + 1)  # shifted by one: prefix sums give each row's start
        for u in nodes:
            rows_before[u + 1] += 1
        self.offsets = array("I", accumulate(rows_before))
        self.preds = array("I", map(preds.__getitem__, edge_ids))
        self.ends = array("I", map(ends.__getitem__, edge_ids))

    def span(self, node: int, p: int) -> tuple[int, int]:
        """The rows of ``node``'s ``p`` edges; empty for an unknown node or predicate."""
        if not 0 <= node < len(self.offsets) - 1:
            return 0, 0
        lo, hi = self.offsets[node], self.offsets[node + 1]
        return bisect_left(self.preds, p, lo, hi), bisect_right(self.preds, p, lo, hi)


class KnowledgeGraph:
    """Interned nodes/labels/predicates with a CSR index per direction.

    The edge multiset keeps the file's lines (duplicates included); all
    set-based quantities (adjacency, coverage, matching) use the distinct
    triple view.  The constructor parses the two line streams, and
    ``parse_graph`` names it too.  A graph is immutable once built and safe to
    share across readers.
    """

    def __init__(
        self,
        triple_lines: Iterable[str],
        label_lines: Iterable[str],
        triple_source: str = "<triples>",
        label_source: str = "<labels>",
    ) -> None:
        """Parse a graph from line streams (see module docstring for the format)."""
        node_ids, pred_ids, label_ids = self._node_ids, self._pred_ids, self._label_ids = {}, {}, {}
        line_edges = self._line_edges = array("I")
        # (s, p, o) packed in one int -> edge id, kept only while the file is read
        ids_by_key: dict[int, int] = {}
        for _, (s, p, o) in _fields(triple_source, triple_lines, 3):
            sid = node_ids.setdefault(s, len(node_ids))
            oid = node_ids.setdefault(o, len(node_ids))
            pid = pred_ids.setdefault(p, len(pred_ids))
            line_edges.append(ids_by_key.setdefault((sid << 32 | pid) << 32 | oid, len(ids_by_key)))
        out_keys = list(ids_by_key)  # in edge-id order; they sort as (s, p, o)
        del ids_by_key
        subjects = self._subjects = array("I", map(rshift, out_keys, repeat(64)))
        preds = self._preds = array("I", map(and_, map(rshift, out_keys, repeat(32)), repeat(_MASK)))
        objects = self._objects = array("I", map(and_, out_keys, repeat(_MASK)))

        # each labelled node's first label, and the labels it adds after that, so
        # that a one-label node needs no set of its own while the file is read
        first_label: dict[int, int] = {}
        more_labels: defaultdict[int, set[int]] = defaultdict(set)
        for _, (v, l) in _fields(label_source, label_lines, 2):
            vid = node_ids.setdefault(v, len(node_ids))
            lid = label_ids.setdefault(l, len(label_ids))
            if first_label.setdefault(vid, lid) != lid:
                more_labels[vid].add(lid)

        # the label index is built, and the label pass's dicts freed, before the
        # rows sort (memory); nodes with equal label sets share one frozenset
        shared: dict[frozenset[int], frozenset[int]] = {}
        node_labels = self.node_labels = [frozenset()] * len(node_ids)
        for vid, lid in first_label.items():
            labels = frozenset((lid, *more_labels.get(vid, ())))
            node_labels[vid] = shared.setdefault(labels, labels)
        del first_label, more_labels
        self.label_offsets = array("I", accumulate(map(len, node_labels), initial=0))
        # each distinct label set -> its labels' ranks in ascending id order
        self._label_ranks = {ls: {l: i for i, l in enumerate(sorted(ls))} for ls in shared}
        del shared
        label_index = self.label_index = [array("I") for _ in label_ids]
        for vid, labels in enumerate(node_labels):
            for lid in labels:
                label_index[lid].append(vid)
        self.n_label = list(map(len, label_index))

        self.node_names = list(node_ids)
        self.pred_names = list(pred_ids)
        self.label_names = list(label_ids)
        num_nodes, num_preds = len(node_ids), len(pred_ids)
        out_rows = _Rows(subjects, preds, objects, out_keys, num_nodes)
        del out_keys
        # compact keys, which sort as (o, p, s)
        in_keys = [(o * num_preds + p) * num_nodes + s for s, p, o in zip(subjects, preds, objects)]
        self._rows = out_rows, _Rows(objects, preds, subjects, in_keys, num_nodes)
        del in_keys
        lines_per_pred = Counter(map(preds.__getitem__, line_edges))
        self.n_pred = [lines_per_pred[p] for p in range(num_preds)]
        self.has_self_loop = any(map(eq, subjects, objects))
        duplicates = self.duplicates_collapsed = len(line_edges) - len(subjects)
        if duplicates:
            warnings.warn(
                f"{duplicates} duplicate triples collapsed in the set view "
                "(kept in the edge multiset)",
                stacklevel=2,
            )

    def node_id(self, name: str) -> int | None:
        return self._node_ids.get(name)

    def label_id(self, name: str) -> int | None:
        return self._label_ids.get(name)

    def pred_id(self, name: str) -> int | None:
        return self._pred_ids.get(name)

    # -- edges -----------------------------------------------------------

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """The edge multiset as (s, p, o) tuples in file order."""
        return list(map(self.distinct_edges.__getitem__, self._line_edges))

    @property
    def distinct_edges(self) -> list[tuple[int, int, int]]:
        """The distinct edges as (s, p, o) tuples in edge-id order."""
        return list(zip(self._subjects, self._preds, self._objects))

    def iter_distinct_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """(edge id, s, p, o) of each distinct edge, in edge-id order."""
        return zip(count(), self._subjects, self._preds, self._objects)

    def edge_index(self, s: int, p: int, o: int) -> int | None:
        """The id of edge (s, p, o), or ``None`` when the graph lacks it."""
        rows = self._rows[OUT]
        lo, hi = rows.span(s, p)
        i = bisect_left(rows.ends, o, lo, hi)
        return rows.edge_ids[i] if i < hi and rows.ends[i] == o else None

    def neighbor_edge_ids(self, node: int, p: int, direction: int, ws: Sequence[int]) -> array:
        """The ids of the ``p`` edges joining ``node`` to each node of ``ws``, in
        order, as an ``array("I")``: ``node -> w`` for ``OUT``, ``w -> node``
        for ``IN``.  Every such edge must be in the graph (``KeyError``
        otherwise).  When ``ws`` is an array of all the ``p`` neighbours (what
        ``neighbors`` returns), the ids are one slice of the edge-id column."""
        rows = self._rows[direction]
        lo, hi = rows.span(node, p)
        ends, edge_ids = rows.ends, rows.edge_ids
        if len(ws) == hi - lo and ends[lo:hi] == ws:
            return edge_ids[lo:hi]  # the whole row, which nearly every walk asks for
        at = [bisect_left(ends, w, lo, hi) for w in ws]
        for i, w in zip(at, ws):
            if i == hi or ends[i] != w:
                raise KeyError(w)
        return array("I", map(edge_ids.__getitem__, at))

    def csr(self, direction: int) -> tuple[array, array, array, array]:
        """The ``direction`` CSR index as its columns (offsets, predicates,
        neighbours, edge ids): node ``v``'s rows are ``offsets[v]`` to
        ``offsets[v + 1] - 1``, sorted by (predicate, neighbour).  The columns
        are the graph's own, to read and never to write."""
        rows = self._rows[direction]
        return rows.offsets, rows.preds, rows.ends, rows.edge_ids

    def neighbors(self, node: int, p: int | None, direction: int) -> array:
        """Nodes joined to ``node`` by a ``p`` edge, in ascending id order: its
        objects for ``OUT``, its subjects for ``IN``.  Empty for a predicate
        the graph lacks (``pred_id`` gave ``None``)."""
        if p is None:
            return array("I")
        rows = self._rows[direction]
        lo, hi = rows.span(node, p)
        return rows.ends[lo:hi]

    # -- basic counts ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @property
    def num_edges(self) -> int:
        """Multiset edge count (file lines)."""
        return len(self._line_edges)

    @property
    def num_distinct_edges(self) -> int:
        """|A|: distinct (s, p, o) triples."""
        return len(self._subjects)

    @property
    def num_labels(self) -> int:
        return len(self.label_names)

    @property
    def num_preds(self) -> int:
        return len(self.pred_names)

    @property
    def num_label_assignments(self) -> int:
        """The number of (node, label) pairs, and so of label-assignment ids."""
        return self.label_offsets[-1]

    @property
    def universe_edges(self) -> int:
        """Slots in the binary adjacency tensor: |V|^2 * |L_E|."""
        return self.num_nodes * self.num_nodes * self.num_preds

    @property
    def neighbor_universe(self) -> int:
        """Ids a node's matching-neighbour set is drawn from: every other node,
        and the node itself too when the graph has a self-loop."""
        return self.num_nodes if self.has_self_loop else self.num_nodes - 1

    @property
    def universe_labels(self) -> int:
        """Slots in the binary label matrix: |L_V| * |V|."""
        return self.num_labels * self.num_nodes

    def label_nodes(self, label: int) -> frozenset[int]:
        """The nodes carrying ``label``, as a snapshot (empty for an unknown id)."""
        return frozenset(self._label_array(label))

    def _label_array(self, label: int) -> array:
        if 0 <= label < len(self.label_index):
            return self.label_index[label]
        return array("I")

    def assignment_ids(self, label: int, nodes: Iterable[int]) -> list[int]:
        """The assignment id of (v, ``label``) for each node v of ``nodes``,
        every one of which must carry ``label`` (``KeyError`` otherwise)."""
        offsets, node_labels, ranks = self.label_offsets, self.node_labels, self._label_ranks
        return [offsets[v] + ranks[node_labels[v]][label] for v in nodes]

    def nodes_with_labels(self, labels: Iterable[int]) -> set[int]:
        """Nodes carrying every label in ``labels`` (empty for unknown ids):
        the nodes of the rarest label whose label sets hold all of ``labels``."""
        want = frozenset(labels)
        if not want:
            return set()
        rarest = min(map(self._label_array, want), key=len)
        return set(compress(rarest, map(want.issubset, map(self.node_labels.__getitem__, rarest))))


def _fields(source: str, lines: Iterable[str], arity: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each data line; a wrong field count or an empty
    field raises ``GraphParseError``."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line or line.isspace() or line[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != arity or "" in parts:
            raise GraphParseError(source, line_no, line)
        yield line_no, parts


@contextmanager
def _open_text(path: str) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8 text; utf-8-sig drops a leading
    byte-order mark, which would otherwise start the first name.  A byte that
    does not decode raises ``ValueError`` naming the file and the line."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            line_no = _undecodable_line(path)
            if line_no is None:
                raise  # another file's bytes, when two are open
            raise ValueError(f"{path}, line {line_no}: not valid UTF-8") from None


def _undecodable_line(path: str) -> int | None:
    """The number of the first line of ``path`` that is not valid UTF-8, or
    ``None``.  It is read off the bytes, as the text reader decodes ahead in
    chunks; ``bytes.splitlines`` breaks lines where the text reader does."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for line_no, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no
    return None


# the constructor, under its name in ``kgsum.__all__``
parse_graph = KnowledgeGraph


def load_graph(triple_path: str, label_path: str) -> KnowledgeGraph:
    with _open_text(triple_path) as tf, _open_text(label_path) as lf:
        return KnowledgeGraph(tf, lf, triple_path, label_path)


def triple_lines(g: KnowledgeGraph) -> Iterator[str]:
    """Serialize the edge multiset back to file lines (load order preserved)."""
    for s, p, o in g.edges:
        yield f"{g.node_names[s]}\t{g.pred_names[p]}\t{g.node_names[o]}\n"


def label_lines(g: KnowledgeGraph) -> Iterator[str]:
    for v in range(g.num_nodes):
        for name in sorted(g.label_names[l] for l in g.node_labels[v]):
            yield f"{g.node_names[v]}\t{name}\n"


def write_graph(g: KnowledgeGraph, triple_path: str, label_path: str) -> None:
    with open(triple_path, "w", encoding="utf-8") as fh:
        fh.writelines(triple_lines(g))
    with open(label_path, "w", encoding="utf-8") as fh:
        fh.writelines(label_lines(g))

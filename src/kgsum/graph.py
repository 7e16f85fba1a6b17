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
column holding each file line's edge id.  Load appends each line's ids to
three columns and sorts the lines once, each packed in one int, by (s, p, o,
line): that finds the repeated triples, numbers the edges (with no repeat,
each edge id is its line number) and gives the (s, p, o) order of the
distinct edges, which the graph keeps as one column.  Each direction has a
compressed-sparse-row (CSR) index over the distinct edges, four columns that
``csr`` hands out: its rows are sorted by (node, predicate, neighbour), where
the node is the subject for ``OUT`` and the object for ``IN``, an offsets
column gives each node's first row, and three parallel columns give each
row's predicate, neighbour and edge id.  A direction's columns are built
once, on the first call that reads them, from the kept order: ``OUT`` by
gathers along it, ``IN`` by two stable passes over it (by predicate, then by
object) that allocate arrays alone, so a run whose rules read one direction
never builds the other.  Every column is 32 bits wide, so a graph holds fewer
than 2**32 nodes, predicates and edges.  ``rules`` reads the rows of a rule's
child for many nodes in one pass; ``edge_index`` bisects a node's rows and
reads the edge-id column, so no edge key is built or hashed after loading
(it reads the ``IN`` rows when only those are built).  The
label assignments (node, label) are numbered densely by node, then label:
node ``v``'s labels, in ascending label id, hold the assignment ids
``label_offsets[v]`` to ``label_offsets[v + 1] - 1``.  A rule's coverage is
its edge ids and its assignment ids (``assignment_ids``).  Load reads the
label lines into one array of each node's first label, indexed by node id,
and a set of further labels for each node that has more, so a one-label node
takes 4 bytes while the file is read; the label sets are then built in
node-id order.  Nodes with equal label sets share one frozenset, and each
label's nodes are one ascending ``array("I")`` of node ids (``label_index``),
built at load from the nodes' label sets.  ``edges`` and
``distinct_edges`` build (s, p, o) tuple lists on each call; mining, scoring
and completion never call them.
"""

from __future__ import annotations

import warnings
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import and_, eq, gt, xor
from typing import Iterable, Iterator, TextIO

OUT = 0  # the node is the subject of the edge
IN = 1  # the node is the object of the edge


class GraphParseError(ValueError):
    """A malformed triple/label line (wrong field count)."""

    def __init__(self, source: str, line_no: int, line: str):
        self.source = source
        self.line_no = line_no
        self.line = line
        super().__init__(f"{source}, line {line_no}: expected tab-separated fields, got {line!r}")


class KnowledgeGraph:
    """Interned nodes/labels/predicates with a CSR index per direction.

    The edge multiset keeps the file's lines (duplicates included); all
    set-based quantities (adjacency, coverage, matching) use the distinct
    triple view.  The constructor parses the two line streams, and
    ``parse_graph`` names it too.  A graph never changes what it answers and
    is safe to share across readers: each direction's index is built once,
    on its first read, and a reader never sees one half built (two threads
    that read a direction first may both build it, and one of the equal
    copies is kept).
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
        # each line's (s, p, o) ids, in file order
        subjects, preds, objects = array("I"), array("I"), array("I")
        for _, (s, p, o) in _fields(triple_source, triple_lines, 3):
            subjects.append(node_ids.setdefault(s, len(node_ids)))
            objects.append(node_ids.setdefault(o, len(node_ids)))
            preds.append(pred_ids.setdefault(p, len(pred_ids)))
        lines_per_pred = Counter(preds)
        self.n_pred = [lines_per_pred[p] for p in range(len(pred_ids))]
        self.has_self_loop = any(map(eq, subjects, objects))
        out_order, repeats = _sorted_lines(subjects, preds, objects, len(node_ids), len(pred_ids))
        if repeats:
            line_edges, first_lines, out_order = _number_edges(out_order, repeats)
            subjects, preds, objects = (array("I", compress(col, first_lines)) for col in (subjects, preds, objects))
            del first_lines
        else:
            line_edges = array("I", range(len(out_order)))
        self._line_edges, self._out_order = line_edges, out_order
        self._subjects, self._preds, self._objects = subjects, preds, objects
        # the OUT and IN columns (offsets, predicates, neighbours, edge ids), each built on its first read
        self._rows: list[tuple[array, array, array, array] | None] = [None, None]

        # each node's first label by node id (-1 while it has none), and the
        # labels a node adds after that, so that a one-label node needs no
        # object of its own while the file is read
        first_label = array("i", [-1]) * len(node_ids)
        more_labels: defaultdict[int, set[int]] = defaultdict(set)
        named = len(first_label)
        for _, (v, l) in _fields(label_source, label_lines, 2):
            vid = node_ids.setdefault(v, len(node_ids))
            lid = label_ids.setdefault(l, len(label_ids))
            if vid == named:  # a node no line named before
                first_label.append(lid)
                named += 1
                continue
            first = first_label[vid]
            if first < 0:
                first_label[vid] = lid
            elif first != lid:
                more_labels[vid].add(lid)

        # in node-id order; nodes with equal label sets share one frozenset
        shared: dict[frozenset[int], frozenset[int]] = {}
        node_labels = self.node_labels = [frozenset()] * len(node_ids)
        for vid, lid in enumerate(first_label):
            if lid >= 0:
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
        duplicates = self.duplicates_collapsed = len(repeats)
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
        """The id of edge (s, p, o), or ``None`` when the graph lacks it.  It
        bisects the ``OUT`` rows, or the ``IN`` rows when only those are
        built, so it builds no index a caller did not read first."""
        if self._rows[OUT] is None and self._rows[IN] is not None:
            direction, node, end = IN, o, s
        else:
            direction, node, end = OUT, s, o
        if not 0 <= node < self.num_nodes:
            return None
        offsets, preds, ends, edge_ids = self.csr(direction)
        lo, hi = offsets[node], offsets[node + 1]
        lo, hi = bisect_left(preds, p, lo, hi), bisect_right(preds, p, lo, hi)
        i = bisect_left(ends, end, lo, hi)
        return edge_ids[i] if i < hi and ends[i] == end else None

    def csr(self, direction: int) -> tuple[array, array, array, array]:
        """The ``direction`` CSR index as its columns (offsets, predicates,
        neighbours, edge ids): node ``v``'s rows are ``offsets[v]`` to
        ``offsets[v + 1] - 1``, sorted by (predicate, neighbour).  The columns
        are the graph's own, to read and never to write.  They are built on
        the first read: ``OUT`` gathers along the kept (s, p, o) order; ``IN``
        sorts that order stably by predicate, then by object, into (o, p, s)
        order.  Each row's predicate and neighbour are gathered from the edge
        columns straight into arrays (memory)."""
        rows = self._rows[direction]
        if rows is None:
            subjects, preds, objects = self._subjects, self._preds, self._objects
            num_nodes = len(self.node_names)
            if direction == OUT:
                offsets, order, ends = _starts(subjects, num_nodes), self._out_order, objects
            else:
                # (s, p, o) order to (p, s, o) with one array per predicate
                # (a third of a counting pass's time, predicates being few),
                # then stably by object to (o, p, s)
                by_pred = [array("I") for _ in self.pred_names]
                for e in self._out_order:
                    by_pred[preds[e]].append(e)
                order, offsets = _stable_sort(chain.from_iterable(by_pred), objects, num_nodes)
                del by_pred
                ends = subjects
            row_preds = array("I", map(preds.__getitem__, order))
            rows = self._rows[direction] = offsets, row_preds, array("I", map(ends.__getitem__, order)), order
        return rows

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


def _sorted_lines(
    subjects: array, preds: array, objects: array, num_nodes: int, num_preds: int
) -> tuple[array, list[int]]:
    """The line numbers in (s, p, o, line) order, and the positions in that
    order whose triple repeats the one before.  Each line is sorted as one
    int, its (s, p, o) ids in the high bits and its number in the low bits,
    and the ints are freed before this returns (memory)."""
    p_bits, o_bits, line_bits = num_preds.bit_length(), num_nodes.bit_length(), len(subjects).bit_length()

    def pack(s: int, p: int, o: int, line: int) -> int:
        return ((s << p_bits | p) << o_bits | o) << line_bits | line

    keys = sorted(map(pack, subjects, preds, objects, count()))
    order = array("I", map(and_, keys, repeat((1 << line_bits) - 1)))
    # two neighbouring keys hold one triple when they differ in the line bits alone
    repeats = list(compress(count(1), map(gt, repeat(1 << line_bits), map(xor, keys, islice(keys, 1, None)))))
    return order, repeats


def _number_edges(order: array, repeats: list[int]) -> tuple[array, bytearray, array]:
    """Each line's edge id, a mask of the lines that first hold their triple,
    and the edge ids in (s, p, o) order, from the lines in (s, p, o, line)
    ``order`` and the positions ``repeats`` in it that repeat the triple
    before.  A repeated line takes the id of the line before it in ``order``,
    an earlier line of its triple; the first lines are numbered in line
    order.  The work beyond array copies grows with the repeats, not with the
    lines."""
    pairs = sorted((order[i], order[i - 1]) for i in repeats)
    line_edges, first_lines = array("I"), bytearray(b"\x01") * len(order)
    for k, (line, earlier) in enumerate(pairs):
        line_edges.extend(range(len(line_edges) - k, line - k))
        line_edges.append(line_edges[earlier])
        first_lines[line] = 0
    line_edges.extend(range(len(line_edges) - len(pairs), len(order) - len(pairs)))
    first_rows = bytearray(b"\x01") * len(order)
    for i in repeats:
        first_rows[i] = 0
    return line_edges, first_lines, array("I", map(line_edges.__getitem__, compress(order, first_rows)))


def _starts(keys: array, width: int) -> array:
    """The ``width + 1`` offsets at which each key value's run starts in
    ``keys`` sorted: prefix sums of the counts, in arrays alone."""
    counts = array("I", [0]) * width
    for k in keys:
        counts[k] += 1
    return array("I", accumulate(counts, initial=0))


def _stable_sort(order: Iterable[int], keys: array, width: int) -> tuple[array, array]:
    """The edge ids ``order``, all of ``keys``'s, stably sorted by
    ``keys[e]``, each below ``width``, and the offset of each key value's run
    (``_starts``): one counting pass that allocates arrays alone (memory)."""
    starts = _starts(keys, width)
    free, out = array("I", starts), array("I", [0]) * len(keys)
    for e in order:
        k = keys[e]
        out[free[k]] = e
        free[k] += 1
    return out, starts


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

"""In-memory labeled directed multigraph plus the count indexes the encoders need.

File format: triples are UTF-8 lines ``subject<TAB>predicate<TAB>object``,
labels are ``node<TAB>label``. Lines starting with ``#`` are comments, blank
lines are skipped, and a leading byte-order mark is ignored. Identifiers must
not contain tabs or newlines.

Layout.  Nodes, labels and predicates are interned to dense ids in first-seen
order.  An edge is keyed by one packed int, ``(s << 32 | p) << 32 | o``, and
the adjacency sets are keyed by ``node << 32 | p``.  Every field is 32 bits
wide, so a graph holds fewer than 2**32 nodes and 2**32 predicates.  The
packing stays inside this module: readers look edges up with ``edge_index``
(or a neighbour list's with ``neighbor_edge_ids``), neighbours with
``neighbors`` and walk the distinct edges with ``iter_distinct_edges``.  The
edge multiset is a column of packed keys in file order.  The distinct edges
are the keys of a packed key -> edge id map, in first-seen order, so an edge
id is the edge's index in ``distinct_edges``.  A rule's coverage is its edge
ids and its label codes ``node * num_labels + label``.
Nodes with equal label sets share one frozenset.  ``edges`` and
``distinct_edges`` are (s, p, o) tuple lists built on first use and then
cached; mining, scoring and completion never build them.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from typing import Iterable, Iterator

OUT = 0  # the node is the subject of the edge
IN = 1  # the node is the object of the edge

_MASK = (1 << 32) - 1
_NO_NEIGHBORS: frozenset[int] = frozenset()


class GraphParseError(ValueError):
    """A malformed triple/label line (wrong field count)."""

    def __init__(self, source: str, line_no: int, line: str):
        self.source = source
        self.line_no = line_no
        self.line = line
        super().__init__(f"{source}, line {line_no}: expected tab-separated fields, got {line!r}")


def _edge_key(s: int, p: int, o: int) -> int:
    return (s << 32 | p) << 32 | o


def _split_edge_key(key: int) -> tuple[int, int, int]:
    return key >> 64, key >> 32 & _MASK, key & _MASK


class KnowledgeGraph:
    """Interned nodes/labels/predicates with set-based adjacency indexes.

    The edge multiset keeps the file's lines (duplicates included); all
    set-based quantities (adjacency, coverage, matching) use the distinct
    triple view.  Instances are built by ``parse_graph``, are immutable after
    loading and safe to share across readers.
    """

    def __init__(self) -> None:
        self.node_names: list[str] = []
        self.label_names: list[str] = []
        self.pred_names: list[str] = []
        self._node_ids: dict[str, int] = {}
        self._label_ids: dict[str, int] = {}
        self._pred_ids: dict[str, int] = {}
        # packed keys of the edge multiset, in file order
        self._edge_keys: list[int] = []
        # packed key -> edge id, in first-seen order
        self._ids_by_key: dict[int, int] = {}
        self._edges: list[tuple[int, int, int]] | None = None
        self._distinct_edges: list[tuple[int, int, int]] | None = None
        # adjacency key -> neighbour ids, per direction (OUT, IN)
        self._adjacency: tuple[dict[int, set[int]], dict[int, set[int]]] = (
            defaultdict(set),
            defaultdict(set),
        )
        self.node_labels: list[frozenset[int]] = []
        self.label_index: list[set[int]] = []
        self.n_label: list[int] = []
        self.n_pred: list[int] = []
        self.num_label_assignments = 0
        self.has_self_loop = False
        self.duplicates_collapsed = 0

    def node_id(self, name: str) -> int | None:
        return self._node_ids.get(name)

    def label_id(self, name: str) -> int | None:
        return self._label_ids.get(name)

    def pred_id(self, name: str) -> int | None:
        return self._pred_ids.get(name)

    # -- edges -----------------------------------------------------------

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """The edge multiset as (s, p, o) tuples in file order (built on first use)."""
        if self._edges is None:
            self._edges = [_split_edge_key(k) for k in self._edge_keys]
        return self._edges

    @property
    def distinct_edges(self) -> list[tuple[int, int, int]]:
        """The distinct edges as (s, p, o) tuples in edge-id order (built on first use)."""
        if self._distinct_edges is None:
            self._distinct_edges = [_split_edge_key(k) for k in self._ids_by_key]
        return self._distinct_edges

    def iter_distinct_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """(edge id, s, p, o) of each distinct edge, in edge-id order."""
        for eid, key in enumerate(self._ids_by_key):
            yield eid, key >> 64, key >> 32 & _MASK, key & _MASK

    def edge_index(self, s: int, p: int, o: int) -> int | None:
        """The id of edge (s, p, o), or ``None`` when the graph lacks it."""
        return self._ids_by_key.get(_edge_key(s, p, o))

    def neighbor_edge_ids(self, node: int, p: int, direction: int, ws: Iterable[int]) -> list[int]:
        """The ids of the ``p`` edges joining ``node`` to each node of ``ws``, in
        order: ``node -> w`` for ``OUT``, ``w -> node`` for ``IN``.  Every such
        edge must be in the graph (``KeyError`` otherwise)."""
        if direction == OUT:
            head = (node << 32 | p) << 32
            keys = [head | w for w in ws]
        else:
            tail = p << 32 | node
            keys = [w << 64 | tail for w in ws]
        return list(map(self._ids_by_key.__getitem__, keys))

    def neighbors(self, node: int, p: int | None, direction: int) -> set[int] | frozenset[int]:
        """Nodes joined to ``node`` by a ``p`` edge: its objects for ``OUT``,
        its subjects for ``IN``.  Empty for a predicate the graph lacks
        (``pred_id`` gave ``None``).  The caller must not modify the set."""
        if p is None:
            return _NO_NEIGHBORS
        return self._adjacency[direction].get(node << 32 | p, _NO_NEIGHBORS)

    # -- basic counts ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @property
    def num_edges(self) -> int:
        """Multiset edge count (file lines)."""
        return len(self._edge_keys)

    @property
    def num_distinct_edges(self) -> int:
        """|A|: distinct (s, p, o) triples."""
        return len(self._ids_by_key)

    @property
    def num_labels(self) -> int:
        return len(self.label_names)

    @property
    def num_preds(self) -> int:
        return len(self.pred_names)

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

    def label_nodes(self, label: int) -> set[int]:
        if 0 <= label < len(self.label_index):
            return self.label_index[label]
        return set()

    def nodes_with_labels(self, labels: Iterable[int]) -> set[int]:
        """Nodes carrying every label in ``labels`` (empty for unknown ids)."""
        sets = sorted((self.label_nodes(l) for l in labels), key=len)
        if not sets:
            return set()
        acc = set(sets[0])
        for s in sets[1:]:
            acc &= s
            if not acc:
                break
        return acc


def _fields(source: str, lines: Iterable[str], arity: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each data line; a wrong field count or an empty
    field raises ``GraphParseError``."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != arity or "" in parts:
            raise GraphParseError(source, line_no, line)
        yield line_no, parts


def parse_graph(
    triple_lines: Iterable[str],
    label_lines: Iterable[str],
    triple_source: str = "<triples>",
    label_source: str = "<labels>",
) -> KnowledgeGraph:
    """Build a graph from line streams (see module docstring for the format)."""
    g = KnowledgeGraph()
    node_ids, pred_ids, label_ids = g._node_ids, g._pred_ids, g._label_ids
    edge_keys, ids_by_key, n_pred = g._edge_keys, g._ids_by_key, g.n_pred
    out_index, in_index = g._adjacency
    duplicates = 0

    for _, (s, p, o) in _fields(triple_source, triple_lines, 3):
        sid = node_ids.setdefault(s, len(node_ids))
        oid = node_ids.setdefault(o, len(node_ids))
        pid = pred_ids.setdefault(p, len(pred_ids))
        if pid == len(n_pred):
            n_pred.append(1)
        else:
            n_pred[pid] += 1
        adj = sid << 32 | pid  # shifted once more, it keys the edge
        key = adj << 32 | oid
        edge_keys.append(key)
        eid = len(ids_by_key)
        if ids_by_key.setdefault(key, eid) != eid:
            duplicates += 1
            continue
        out_index[adj].add(oid)
        in_index[oid << 32 | pid].add(sid)
        if sid == oid:
            g.has_self_loop = True

    # each labelled node's first label, and the labels it adds after that, so
    # that a one-label node needs no set of its own while the file is read
    first_label: dict[int, int] = {}
    more_labels: defaultdict[int, set[int]] = defaultdict(set)
    nodes_of: defaultdict[int, set[int]] = defaultdict(set)
    for _, (v, l) in _fields(label_source, label_lines, 2):
        vid = node_ids.setdefault(v, len(node_ids))
        lid = label_ids.setdefault(l, len(label_ids))
        if first_label.setdefault(vid, lid) != lid:
            more_labels[vid].add(lid)
        nodes_of[lid].add(vid)

    g.node_names = list(node_ids)
    g.pred_names = list(pred_ids)
    g.label_names = list(label_ids)
    g.label_index = [nodes_of[l] for l in range(len(label_ids))]
    g.n_label = [len(nodes) for nodes in g.label_index]
    g.num_label_assignments = sum(g.n_label)
    # nodes with equal label sets share one frozenset
    shared: dict[frozenset[int], frozenset[int]] = {}
    node_labels = g.node_labels = [frozenset()] * len(node_ids)
    for vid, lid in first_label.items():
        labels = frozenset((lid, *more_labels.get(vid, ())))
        node_labels[vid] = shared.setdefault(labels, labels)
    g.duplicates_collapsed = duplicates
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate triples collapsed in the set view "
            "(kept in the edge multiset)",
            stacklevel=2,
        )
    return g


def load_graph(triple_path: str, label_path: str) -> KnowledgeGraph:
    # utf-8-sig drops a leading byte-order mark, which would otherwise start the first name
    with open(triple_path, encoding="utf-8-sig") as tf, open(label_path, encoding="utf-8-sig") as lf:
        return parse_graph(tf, lf, triple_source=triple_path, label_source=label_path)


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

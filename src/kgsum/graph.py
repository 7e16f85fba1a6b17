"""In-memory labeled directed multigraph plus the count indexes the encoders need.

File format: triples are UTF-8 lines ``subject<TAB>predicate<TAB>object``,
labels are ``node<TAB>label``. Lines starting with ``#`` are comments, blank
lines are skipped, and a leading byte-order mark is ignored. Identifiers must
not contain tabs or newlines.
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphParseError(ValueError):
    """A malformed triple/label line (wrong field count)."""

    def __init__(self, source: str, line_no: int, line: str):
        self.source = source
        self.line_no = line_no
        self.line = line
        super().__init__(f"{source}, line {line_no}: expected tab-separated fields, got {line!r}")


class KnowledgeGraph:
    """Interned nodes/labels/predicates with set-based adjacency indexes.

    The edge list keeps the file's multiset (duplicates included); all
    set-based quantities (adjacency, coverage, matching) use the distinct
    triple view.  Instances are immutable after loading and safe to share
    across readers.
    """

    def __init__(self) -> None:
        self.node_names: list[str] = []
        self.label_names: list[str] = []
        self.pred_names: list[str] = []
        self._node_ids: dict[str, int] = {}
        self._label_ids: dict[str, int] = {}
        self._pred_ids: dict[str, int] = {}
        # multiset of triples, in file order
        self.edges: list[tuple[int, int, int]] = []
        # distinct triples, first-seen order; edge_id maps triple -> index
        self.distinct_edges: list[tuple[int, int, int]] = []
        self.edge_id: dict[tuple[int, int, int], int] = {}
        self.node_labels: list[frozenset[int]] = []
        self.out_index: dict[tuple[int, int], set[int]] = {}
        self.in_index: dict[tuple[int, int], set[int]] = {}
        self.label_index: list[set[int]] = []
        self.n_label: list[int] = []
        self.n_pred: list[int] = []
        self.num_label_assignments = 0
        self.has_self_loop = False
        self.phi_max = 0
        self.duplicates_collapsed = 0

    # -- interning -----------------------------------------------------

    def _intern_node(self, name: str) -> int:
        nid = self._node_ids.get(name)
        if nid is None:
            nid = len(self.node_names)
            self._node_ids[name] = nid
            self.node_names.append(name)
            self.node_labels.append(set())  # type: ignore[arg-type]  # frozen later
        return nid

    def _intern_label(self, name: str) -> int:
        lid = self._label_ids.get(name)
        if lid is None:
            lid = len(self.label_names)
            self._label_ids[name] = lid
            self.label_names.append(name)
            self.label_index.append(set())
            self.n_label.append(0)
        return lid

    def _intern_pred(self, name: str) -> int:
        pid = self._pred_ids.get(name)
        if pid is None:
            pid = len(self.pred_names)
            self._pred_ids[name] = pid
            self.pred_names.append(name)
            self.n_pred.append(0)
        return pid

    def node_id(self, name: str) -> int | None:
        return self._node_ids.get(name)

    def label_id(self, name: str) -> int | None:
        return self._label_ids.get(name)

    def pred_id(self, name: str) -> int | None:
        return self._pred_ids.get(name)

    # -- basic counts ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @property
    def num_edges(self) -> int:
        """Multiset edge count (file lines)."""
        return len(self.edges)

    @property
    def num_distinct_edges(self) -> int:
        """|A|: distinct (s, p, o) triples."""
        return len(self.distinct_edges)

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

    def has_edge(self, s: int, p: int, o: int) -> bool:
        return (s, p, o) in self.edge_id

    # -- construction ----------------------------------------------------

    def _add_triple(self, s: int, p: int, o: int) -> None:
        triple = (s, p, o)
        self.edges.append(triple)
        self.n_pred[p] += 1
        if triple in self.edge_id:
            self.duplicates_collapsed += 1
            return
        self.edge_id[triple] = len(self.distinct_edges)
        self.distinct_edges.append(triple)
        if s == o:
            self.has_self_loop = True
        self.out_index.setdefault((s, p), set()).add(o)
        self.in_index.setdefault((o, p), set()).add(s)

    def _add_label(self, v: int, l: int) -> None:
        labels = self.node_labels[v]
        if l in labels:
            return
        labels.add(l)  # type: ignore[attr-defined]  # still a mutable set here
        self.label_index[l].add(v)
        self.n_label[l] += 1
        self.num_label_assignments += 1

    def _finalize(self) -> None:
        self.node_labels = [frozenset(s) for s in self.node_labels]
        self.phi_max = max((len(s) for s in self.node_labels), default=0)
        if self.duplicates_collapsed:
            warnings.warn(
                f"{self.duplicates_collapsed} duplicate triples collapsed in the set view "
                "(kept in the edge multiset)",
                stacklevel=3,
            )


def _fields(source: str, lines: Iterable[str], arity: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each data line; a wrong field count or an empty
    field raises ``GraphParseError``."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != arity or any(not f for f in parts):
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
    for _, (s, p, o) in _fields(triple_source, triple_lines, 3):
        g._add_triple(g._intern_node(s), g._intern_pred(p), g._intern_node(o))
    for _, (v, l) in _fields(label_source, label_lines, 2):
        g._add_label(g._intern_node(v), g._intern_label(l))
    g._finalize()
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


@dataclass(frozen=True)
class StatsReport:
    num_nodes: int
    num_edges: int
    num_distinct_edges: int
    num_node_labels: int
    num_predicates: int
    num_label_assignments: int
    avg_labels_per_node: float
    median_labels_per_node: float
    phi_max: int


def stats(g: KnowledgeGraph) -> StatsReport:
    sizes = [len(s) for s in g.node_labels]
    return StatsReport(
        num_nodes=g.num_nodes,
        num_edges=g.num_edges,
        num_distinct_edges=g.num_distinct_edges,
        num_node_labels=g.num_labels,
        num_predicates=g.num_preds,
        num_label_assignments=g.num_label_assignments,
        avg_labels_per_node=(g.num_label_assignments / g.num_nodes) if g.num_nodes else 0.0,
        median_labels_per_node=float(statistics.median(sizes)) if sizes else 0.0,
        phi_max=g.phi_max,
    )

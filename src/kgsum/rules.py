"""Rooted recursive graph patterns and their assertion partitions.

A rule applies to every node carrying all of its root labels.  Starting from
such a node, the traversal follows each child ``(predicate, direction,
subrule)``: it requires at least one direction-respecting neighbor carrying
the subrule's root labels, and every such matching neighbor must itself
satisfy the subrule's children.  A failure at any depth makes the start node
an exception; otherwise the start is a correct assertion and the traversal's
edges and non-root labels count as covered.

``evaluate`` evaluates a rule of any depth in one flat pass over its starts,
child by child, that reads the starts' CSR rows for a child once
(``child_rows``, the one reader of rows for a rule's child) and takes from
them the matching neighbours, their edge ids, each start's bits and whether
it is correct.  A child with children of its own is evaluated by the same
pass, once, over the union of the neighbours that reach it.  ``match``
descends those per-child results from the correct starts to collect the
coverage; ``miner.refine_nest`` reads its nesting reach off them, and
``anomaly.missing_reports`` reads the exception starts' rows with
``child_rows``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Sequence

from .encoding import log_binomial
from .graph import IN, OUT, KnowledgeGraph, short_repr

DIRECTION_NAMES = ("out", "in")
DIRECTION_IDS = {"out": OUT, "in": IN}


class RuleFormatError(ValueError):
    """A structurally invalid serialized rule."""


class Rule(NamedTuple):
    """A rule node: its root labels and its children.  Rules and children are
    named tuples, which compare and hash as the tuple of their fields."""

    root_labels: frozenset[int]
    children: tuple["Child", ...] = ()

    def depth(self) -> int:
        return 1 + max((c.child.depth() for c in self.children), default=0)


class Child(NamedTuple):
    predicate: int
    direction: int
    child: Rule


class AssertionSet(NamedTuple):
    """Partition of a rule's starts plus what its correct traversals cover,
    in the ids and bits that ``miner.RuleEntry`` stores.  The starts are
    frozensets (``RuleEntry.from_rule`` keeps the correct ones as an
    ascending array); the coverage is strictly increasing id arrays
    (compact: 4 bytes per id)."""

    correct_starts: frozenset[int]
    exception_starts: frozenset[int]
    covered_edge_ids: array  # "I": edge ids
    covered_label_ids: array  # "I": label-assignment ids (KnowledgeGraph.assignment_ids)
    traversal_bits: float  # the correct starts' traversal bits, correctly rounded (math.fsum)

    @property
    def num_assertions(self) -> int:
        return len(self.correct_starts) + len(self.exception_starts)


def _sort_key(rule: Rule):
    return (
        tuple(sorted(rule.root_labels)),
        tuple((c.predicate, c.direction, _sort_key(c.child)) for c in rule.children),
    )


def canonicalize(rule: Rule) -> Rule:
    """Children sorted by (predicate, direction, recursive child key); idempotent."""
    children = tuple(
        sorted(
            (Child(c.predicate, c.direction, canonicalize(c.child)) for c in rule.children),
            key=lambda c: (c.predicate, c.direction, _sort_key(c.child)),
        )
    )
    return Rule(rule.root_labels, children)


def iter_positions(rule: Rule, _path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Rule]]:
    """All (child-index path, rule node) pairs, root included at the empty path."""
    yield _path, rule
    for i, c in enumerate(rule.children):
        yield from iter_positions(c.child, _path + (i,))


def child_rows(g: KnowledgeGraph, child: Child, nodes: Sequence[int]) -> tuple[list[array], list[array]]:
    """Each node's rows for ``child``, read off ``KnowledgeGraph.csr`` by
    bisection: its direction-respecting neighbours carrying the child's root
    labels, in ascending id order, and those neighbours' edge ids, one
    ``array("I")`` each per node of ``nodes``, in the order of ``nodes``.  A
    row is a slice of the graph's columns when every neighbour in it carries
    the labels, which one pass in C tests for all the rows, else a filtered
    copy.  A predicate the graph lacks (``pred_id`` gave ``None``) gives
    empty rows."""
    offsets, preds, ends, edge_ids = g.csr(child.direction)
    # a predicate the graph lacks as an id no row holds
    p = g.num_preds if child.predicate is None else child.predicate
    spans = [(bisect_left(preds, p, offsets[v], offsets[v + 1]), offsets[v + 1]) for v in nodes]
    spans = [(lo, bisect_right(preds, p, lo, end)) for lo, end in spans]
    wss = [ends[lo:hi] for lo, hi in spans]
    eidss = [edge_ids[lo:hi] for lo, hi in spans]
    want, node_labels = child.child.root_labels, g.node_labels
    if not all(map(want.issubset, map(node_labels.__getitem__, _joined(wss)))):
        for k, ws in enumerate(wss):  # filter the rows holding a neighbour without the labels
            if not all(map(want.issubset, map(node_labels.__getitem__, ws))):
                keep = [want <= node_labels[w] for w in ws]
                wss[k] = array("I", compress(ws, keep))
                eidss[k] = array("I", compress(eidss[k], keep))
    return wss, eidss


def evaluate(
    rule: Rule, g: KnowledgeGraph, nodes: Sequence[int]
) -> tuple[Sequence[int], list[float], list[tuple[Sequence[int], list[array], list[array], list | None]]]:
    """Evaluate ``rule`` from each of ``nodes`` (distinct), child by child,
    reading the nodes' rows for a child once (``child_rows``).  A child with
    children has its own rule evaluated once, by this pass, over the sorted
    union of the matching neighbours of the nodes that reached it.  A node's
    bits are ``0.0`` plus, per child in child order, the child's count term
    and then each neighbour's bits in neighbour order, the order of the
    recursive definition, so they equal it to the bit.  A node fails at a
    child with no matching neighbour or with a neighbour that fails the
    child's rule.  What a node gets does not depend on the other nodes.

    Returns the nodes that pass every child, in the order of ``nodes``, with
    their bits; and per child, the nodes that reached it (passed every child
    before it) with each one's ``child_rows`` (its matching neighbours and
    their edge ids), in the same order, empty where the node fails the
    child, and for a child with children the per-child results of its pass
    (``None`` for a leaf).  The list stops at a child no node reached."""
    log_v = math.log2(g.num_nodes) if g.num_nodes else 0.0
    universe = g.neighbor_universe
    terms: dict[int, float] = {}  # matching-neighbour count -> its bits
    alive = nodes
    bits = [0.0] * len(alive)
    per_child = []
    for c in rule.children:
        if not alive:
            break  # read no rows, and build no index, that no node needs
        wss, eidss = child_rows(g, c, alive)
        counts = list(map(len, wss))
        for n in set(counts).difference(terms):
            terms[n] = log_v + log_binomial(universe, n)
        if not c.child.children:
            per_child.append((alive, wss, eidss, None))
            bits = [b + terms[n] for b, n in zip(bits, counts) if n]
            alive = list(compress(alive, counts))
            continue
        passed, passed_bits, sub = evaluate(c.child, g, sorted(set(_joined(wss))))
        per_child.append((alive, wss, eidss, sub))
        sub_bits = dict(zip(passed, passed_bits))
        bits = [_plus_each(b + terms[n], ws, sub_bits) if n else None for b, n, ws in zip(bits, counts, wss)]
        keep = [b is not None for b in bits]
        bits, alive = list(compress(bits, keep)), list(compress(alive, keep))
    return alive, bits, per_child


def _plus_each(bits: float, ws: array, sub_bits: dict[int, float]) -> float | None:
    """``bits`` plus each neighbour's bits in order; ``None`` at the first
    neighbour missing from ``sub_bits``."""
    for w in ws:
        sub = sub_bits.get(w)
        if sub is None:
            return None
        bits += sub
    return bits


def _joined(rows: Iterable[array]) -> array:
    """The ``array("I")`` rows end to end, copied in one C call."""
    joined = array("I")
    joined.frombytes(b"".join(rows))
    return joined


def _cover(
    rule: Rule, per_child: list, passed: set[int], edge_rows: list[array], labelled: defaultdict[int, set[int]]
) -> None:
    """Add to ``edge_rows`` and ``labelled`` what the traversals of ``rule``
    from the nodes of ``passed``, each one correct, cover, read off the
    per-child results of its ``evaluate``: per child, the rows of those nodes,
    and below a child with children, the coverage of its pass from the
    neighbours in those rows, one level per call."""
    for c, (reached, wss, eidss, sub) in zip(rule.children, per_child):
        # a node that passed this child but failed a later one covers nothing
        keep = list(map(passed.__contains__, reached))
        edge_rows += compress(eidss, keep)
        nodes = set(_joined(compress(wss, keep)))
        for l in c.child.root_labels:
            labelled[l] |= nodes
        if sub is not None:
            _cover(c.child, sub, nodes, edge_rows, labelled)


def match(rule: Rule, g: KnowledgeGraph, starts: set[int] | None = None) -> AssertionSet:
    """Partition the rule's starts and collect the coverage of correct
    traversals, from one ``evaluate``.  ``starts``, when the caller has them,
    are the rule's starts, ``g.nodes_with_labels(rule.root_labels)``.
    Unknown label/predicate ids simply never match.  The covered edge ids
    are distinct, and the covered nodes are gathered per label, each
    (node, label) pair turned into its assignment id once."""
    if not rule.root_labels:
        raise RuleFormatError("rule root_labels must be nonempty")
    if starts is None:
        starts = g.nodes_with_labels(rule.root_labels)
    correct, bits, per_child = evaluate(rule, g, list(starts))
    covered = frozenset(correct)
    edge_rows: list[array] = []
    labelled: defaultdict[int, set[int]] = defaultdict(set)  # label -> nodes covered with it
    _cover(rule, per_child, covered, edge_rows, labelled)
    edge_ids = _joined(edge_rows)
    # a star's child covers each edge at most once (the start is one end of
    # it); two children can cover one edge only when they share its
    # predicate, and a deeper traversal can come back along an edge
    if rule.depth() > 2 or len({c.predicate for c in rule.children}) < len(rule.children):
        edge_ids = set(edge_ids)
    label_ids = [i for l, nodes in labelled.items() for i in g.assignment_ids(l, nodes)]
    edge_array, label_array = array("I", sorted(edge_ids)), array("I", sorted(label_ids))
    exceptions = frozenset(starts).difference(covered)
    return AssertionSet(covered, exceptions, edge_array, label_array, math.fsum(bits))


# -- serialization -----------------------------------------------------


def rule_to_dict(rule: Rule, g: KnowledgeGraph) -> dict:
    return {
        "root_labels": sorted(g.label_names[l] for l in rule.root_labels),
        "children": [
            {
                "predicate": g.pred_names[c.predicate],
                "direction": DIRECTION_NAMES[c.direction],
                "child": rule_to_dict(c.child, g),
            }
            for c in rule.children
        ],
    }


MAX_RULE_DEPTH = 100
"""Deepest rule ``rule_from_dict`` accepts, the root counting as depth 1.  The
recursive rule functions (``canonicalize``, ``evaluate`` and the coverage
descent ``_cover``, which recurse once per rule level, ``iter_positions``,
``rule_to_dict``, ``rule_text``, ``Rule.depth``, ``encoding.rule_cost``,
``miner._canon_key``, ``miner._nest_rule`` and ``miner._reach_by_start``)
take at most a few interpreter frames per level, so a rule read from a file
stays far under ``sys.getrecursionlimit()``."""


def rule_from_dict(data: dict, g: KnowledgeGraph) -> Rule:
    """Parse and check a serialized rule, its children in file order
    (``miner.build_model`` canonicalizes the rules it loads); unknown names,
    and nesting deeper than ``MAX_RULE_DEPTH``, are errors."""
    return _rule_from_dict(data, g, 1)


def _rule_from_dict(data: dict, g: KnowledgeGraph, depth: int) -> Rule:
    if depth > MAX_RULE_DEPTH:
        raise RuleFormatError(f"rule nests deeper than {MAX_RULE_DEPTH} levels")
    if not isinstance(data, dict):
        raise RuleFormatError(f"rule must be an object, got {type(data).__name__}")
    names = data.get("root_labels")
    if not names or not isinstance(names, list):
        raise RuleFormatError("root_labels must be a nonempty list")
    labels = set()
    for name in names:
        lid = g.label_id(name) if isinstance(name, str) else None
        if lid is None:
            raise RuleFormatError(f"unknown label {short_repr(name)}")
        labels.add(lid)
    entries = data.get("children", [])
    if not isinstance(entries, list):
        raise RuleFormatError(f"children must be a list, got {type(entries).__name__}")
    children = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise RuleFormatError(f"child must be an object, got {type(entry).__name__}")
        name = entry.get("predicate")
        pred = g.pred_id(name) if isinstance(name, str) else None
        if pred is None:
            raise RuleFormatError(f"unknown predicate {short_repr(name)}")
        name = entry.get("direction")
        direction = DIRECTION_IDS.get(name) if isinstance(name, str) else None
        if direction is None:
            raise RuleFormatError(f"direction must be 'out' or 'in', got {short_repr(name)}")
        children.append(Child(pred, direction, _rule_from_dict(entry.get("child", {}), g, depth + 1)))
    return Rule(frozenset(labels), tuple(children))


def rule_text(rule: Rule, g: KnowledgeGraph) -> str:
    """Compact one-line rendering for logs and reports."""
    root = ",".join(sorted(g.label_names[l] for l in rule.root_labels))
    if not rule.children:
        return f"[{root}]"
    parts = []
    for c in rule.children:
        arrow = "->" if c.direction == OUT else "<-"
        parts.append(f"{arrow}{g.pred_names[c.predicate]}{rule_text(c.child, g)}")
    return f"[{root}](" + " ".join(parts) + ")"

"""Rooted recursive graph patterns and their assertion partitions.

A rule applies to every node carrying all of its root labels.  Starting from
such a node, the traversal follows each child ``(predicate, direction,
subrule)``: it requires at least one direction-respecting neighbor carrying
the subrule's root labels, and every such matching neighbor must itself
satisfy the subrule's children.  A failure at any depth makes the start node
an exception; otherwise the start is a correct assertion and the traversal's
edges and non-root labels count as covered.

Most rules are stars: every child is a leaf (a rule with no children is a
star too).  ``match`` and ``walk`` evaluate a star in one flat pass over its
starts, child by child, that reads each start's CSR rows for a child once and
takes from them the matching neighbours, their edge ids, the start's bits and
whether it is correct.  A rule with a non-leaf child takes the recursive
``walk``, and ``match`` collects its coverage with ``collect``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from .encoding import log_binomial
from .graph import IN, OUT, KnowledgeGraph

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
    in the ids and bits that ``miner.RuleEntry`` stores.  The coverage is
    strictly increasing id arrays (compact: 4 bytes per id)."""

    correct_starts: frozenset[int]
    exception_starts: frozenset[int]
    covered_edge_ids: array  # "I": edge ids
    covered_label_ids: array  # "I": label-assignment ids (KnowledgeGraph.assignment_ids)
    traversal_bits: float  # the correct starts' walk bits, correctly rounded (math.fsum)

    @property
    def num_assertions(self) -> int:
        return len(self.correct_starts) + len(self.exception_starts)


def atomic(root_label: int, predicate: int, direction: int, child_label: int) -> Rule:
    return Rule(
        frozenset((root_label,)),
        (Child(predicate, direction, Rule(frozenset((child_label,)))),),
    )


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


def matching_neighbors(g: KnowledgeGraph, node: int, child: Child) -> array:
    """Direction-respecting neighbors of ``node`` carrying the child's root
    labels, in ascending id order: the graph's neighbour slice itself
    (``KnowledgeGraph.neighbors``) when every neighbour carries them, which one
    pass in C tests, else a filtered copy."""
    ws = g.neighbors(node, child.predicate, child.direction)
    want, node_labels = child.child.root_labels, g.node_labels
    if all(map(want.issubset, map(node_labels.__getitem__, ws))):
        return ws
    return array("I", [w for w in ws if want <= node_labels[w]])


def is_star(rule: Rule) -> bool:
    """Every child of ``rule`` is a leaf; so is a rule with no children."""
    return not any(c.child.children for c in rule.children)


def _star_pass(
    rule: Rule, g: KnowledgeGraph, starts: Iterable[int]
) -> tuple[list[int], list[float], list[tuple[list[int], list[array], list[array]]]]:
    """Evaluate the star ``rule`` over ``starts``, child by child, reading
    each start's rows for a child once (``KnowledgeGraph.csr``, read once per
    child).  Returns the starts that pass every child, in the order of
    ``starts``, with their bits, each ``0.0`` plus one term per child in child
    order, exactly as ``walk`` adds them; and per child, the starts that
    reached it (passed every child before it) with each one's
    ``matching_neighbors`` array and those neighbours' edge ids, in the same
    order, empty where the start fails the child."""
    log_v = math.log2(g.num_nodes) if g.num_nodes else 0.0
    universe = g.neighbor_universe
    node_labels = g.node_labels
    terms: dict[int, float] = {}  # matching-neighbour count -> its bits
    alive = list(starts)
    bits = [0.0] * len(alive)
    per_child = []
    for c in rule.children:
        offsets, preds, ends, edge_ids = g.csr(c.direction)
        # a predicate the graph lacks (pred_id gave None) as an id no row holds
        p = g.num_preds if c.predicate is None else c.predicate
        spans = [(bisect_left(preds, p, offsets[s], offsets[s + 1]), offsets[s + 1]) for s in alive]
        spans = [(lo, bisect_right(preds, p, lo, end)) for lo, end in spans]
        wss = [ends[lo:hi] for lo, hi in spans]
        eidss = [edge_ids[lo:hi] for lo, hi in spans]
        want = c.child.root_labels
        if not all(map(want.issubset, map(node_labels.__getitem__, _joined(wss)))):
            for k, ws in enumerate(wss):  # filter the rows holding a neighbour without the labels
                if not all(map(want.issubset, map(node_labels.__getitem__, ws))):
                    keep = [want <= node_labels[w] for w in ws]
                    wss[k] = array("I", compress(ws, keep))
                    eidss[k] = array("I", compress(eidss[k], keep))
        counts = list(map(len, wss))
        for n in set(counts).difference(terms):
            terms[n] = log_v + log_binomial(universe, n)
        per_child.append((alive, wss, eidss))
        bits = [b + terms[n] for b, n in zip(bits, counts) if n]
        alive = list(compress(alive, counts))
    return alive, bits, per_child


def _joined(rows: Iterable[array]) -> array:
    """The ``array("I")`` rows end to end, copied in one C call."""
    joined = array("I")
    joined.frombytes(b"".join(rows))
    return joined


def walk(
    rule: Rule, g: KnowledgeGraph, starts: Iterable[int]
) -> tuple[dict[int, float | None], dict[tuple[int, int], array]]:
    """Walk ``rule`` from each start: ``None`` for an exception, else the bits
    that guide its traversal (per child at each visited node, the
    matching-neighbor count, bounded by |V|, and the neighbor ids).  Also
    returns every ``matching_neighbors`` array looked up, keyed by (node, id
    of the child), which covers each node a correct traversal visits.

    A star rule takes the flat pass, which looks up the same arrays.  Any
    other rule is walked recursively, and repeated (node, rule-node)
    expansions are memoized, so the walk terminates on any graph."""
    if is_star(rule):
        starred: dict[int, float | None] = dict.fromkeys(starts)
        correct, bits, per_child = _star_pass(rule, g, starred)
        starred.update(zip(correct, bits))
        looked_up = {
            (s, id(c)): ws
            for c, (reached, wss, _) in zip(rule.children, per_child)
            for s, ws in zip(reached, wss)
        }
        return starred, looked_up

    log_v = math.log2(g.num_nodes) if g.num_nodes else 0.0
    universe = g.neighbor_universe
    memo: dict[tuple[int, int], float | None] = {}
    lists: dict[tuple[int, int], array] = {}

    def expand(u: int, r: Rule) -> float | None:
        key = (u, id(r))
        if key in memo:
            return memo[key]
        bits: float | None = 0.0
        for c in r.children:
            ws = lists[(u, id(c))] = matching_neighbors(g, u, c)
            if not ws:
                bits = None
                break
            bits += log_v + log_binomial(universe, len(ws))
            if c.child.children:  # a leaf child adds exactly 0.0 per neighbor
                for w in ws:
                    sub = expand(w, c.child)
                    if sub is None:
                        bits = None
                        break
                    bits += sub
                if bits is None:
                    break
        memo[key] = bits
        return bits

    walked = {s: expand(s, rule) for s in starts}
    del expand  # a recursive closure is a reference cycle: free the memo now, not at the next gc
    return walked, lists


def collect(
    rule: Rule, g: KnowledgeGraph, walked: dict[int, float | None], lists: dict[tuple[int, int], array]
) -> AssertionSet:
    """Partition the starts of ``walk(rule, g, starts)`` and collect the
    edges and labels that the correct traversals cover.  The covered nodes
    are gathered per label."""
    correct = [s for s, b in walked.items() if b is not None]
    edge_ids: set[int] = set()
    labelled: defaultdict[int, set[int]] = defaultdict(set)  # label -> nodes covered with it
    expanded: set[tuple[int, int]] = set()
    edge_ids_to = g.neighbor_edge_ids

    def visit(u: int, r: Rule) -> None:
        key = (u, id(r))
        if key in expanded:
            return
        expanded.add(key)
        for c in r.children:
            ws = lists[(u, id(c))]
            edge_ids.update(edge_ids_to(u, c.predicate, c.direction, ws))
            for l in c.child.root_labels:
                labelled[l].update(ws)
            if c.child.children:
                for w in ws:
                    visit(w, c.child)

    for v in correct:
        visit(v, rule)
    del visit  # break the closure's reference cycle

    exceptions = frozenset(walked).difference(correct)
    bits = math.fsum(walked[s] for s in correct)
    return _assertion_set(g, frozenset(correct), exceptions, edge_ids, labelled, bits)


def _assertion_set(
    g: KnowledgeGraph,
    correct: frozenset[int],
    exceptions: frozenset[int],
    edge_ids: Iterable[int],
    labelled: dict[int, set[int]],
    bits: float,
) -> AssertionSet:
    """The ``AssertionSet`` of the partition, the covered edge ids (distinct)
    and the nodes covered with each label, each (node, label) pair turned into
    its assignment id once."""
    label_ids = [i for l, nodes in labelled.items() for i in g.assignment_ids(l, nodes)]
    edge_array, label_array = array("I", sorted(edge_ids)), array("I", sorted(label_ids))
    return AssertionSet(correct, exceptions, edge_array, label_array, bits)


def match(rule: Rule, g: KnowledgeGraph, starts: set[int] | None = None) -> AssertionSet:
    """Partition the rule's starts and collect the coverage of correct
    traversals: a star rule from one flat pass, any other rule from one
    ``walk`` and ``collect``.  ``starts``, when the caller has them, are the
    rule's starts, ``g.nodes_with_labels(rule.root_labels)``.  Unknown
    label/predicate ids simply never match."""
    if not rule.root_labels:
        raise RuleFormatError("rule root_labels must be nonempty")
    if starts is None:
        starts = g.nodes_with_labels(rule.root_labels)
    if not is_star(rule):
        return collect(rule, g, *walk(rule, g, starts))
    correct, bits, per_child = _star_pass(rule, g, starts)
    covered = frozenset(correct)
    edge_rows: list[array] = []
    labelled: defaultdict[int, set[int]] = defaultdict(set)
    for c, (reached, wss, eidss) in zip(rule.children, per_child):
        # a start that passed this child but failed a later one covers nothing
        keep = list(map(covered.__contains__, reached))
        edge_rows += compress(eidss, keep)
        nodes = set(_joined(compress(wss, keep)))
        for l in c.child.root_labels:
            labelled[l] |= nodes
    edge_ids = _joined(edge_rows)
    # one child covers each edge at most once (the start is one end of it);
    # two children can cover one edge only when they share its predicate
    if len({c.predicate for c in rule.children}) < len(rule.children):
        edge_ids = set(edge_ids)
    exceptions = frozenset(starts).difference(correct)
    return _assertion_set(g, covered, exceptions, edge_ids, labelled, math.fsum(bits))


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
recursive rule functions (``canonicalize``, ``walk``, ``collect``,
``iter_positions``, ``rule_to_dict``, ``rule_text``, ``Rule.depth``,
``encoding.rule_cost``, ``miner._canon_key``, ``miner._nest_rule`` and
``miner._reach_by_start``) take at most a few interpreter frames per level, so
a rule read from a file stays far under ``sys.getrecursionlimit()``."""


def rule_from_dict(data: dict, g: KnowledgeGraph) -> Rule:
    """Parse and canonicalize a serialized rule; unknown names, and nesting
    deeper than ``MAX_RULE_DEPTH``, are errors."""
    return canonicalize(_rule_from_dict(data, g, 1))


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
            raise RuleFormatError(f"unknown label {name!r}")
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
            raise RuleFormatError(f"unknown predicate {name!r}")
        name = entry.get("direction")
        direction = DIRECTION_IDS.get(name) if isinstance(name, str) else None
        if direction is None:
            raise RuleFormatError(f"direction must be 'out' or 'in', got {name!r}")
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

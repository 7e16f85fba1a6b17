"""End-to-end rule mining: generate, qualify, rank, greedily select under MDL,
then refine the selected model by merging shared-root rules and nesting rules
into inner positions of other rules.
"""

from __future__ import annotations

import math
import time
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate
from operator import attrgetter, countOf, itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import encoding
from .graph import KnowledgeGraph
from .rules import (
    IN,
    MAX_RULE_DEPTH,
    OUT,
    Child,
    Rule,
    RuleFormatError,
    canonicalize,
    evaluate,
    iter_positions,
    match,
    rule_from_dict,
    rule_text,
    rule_to_dict,
)


class ConfigError(ValueError):
    """Invalid mining configuration."""


def _canon_key(rule: Rule, g: KnowledgeGraph):
    """Total order over canonical rules, by external names (interning-independent)."""
    return (
        tuple(sorted(g.label_names[l] for l in rule.root_labels)),
        tuple(
            (g.pred_names[c.predicate], c.direction, _canon_key(c.child, g))
            for c in rule.children
        ),
    )


_FIELDS = (
    "rule", "canon_key", "correct_starts", "num_assertions", "covered_edge_ids",
    "covered_label_ids", "rule_bits", "traversal_bits", "assertion_bits", "exception_starts",
)
_compared = attrgetter(*_FIELDS)


class RuleEntry:
    """A rule with its cached starts, coverage, and costs.

    A mined candidate and a model rule are the same record.  The correct
    starts are one strictly increasing ``array("I")`` of node ids (memory: 4
    bytes a start); ``refine_nest`` reads the array itself as its starts'
    order.  ``exception_starts``, a frozenset, stays ``None`` until the
    record joins a model (see ``Model.add``), so candidates that are never
    selected do not pay for it.
    The coverage is strictly increasing ``array("I")`` columns of edge ids and
    label-assignment ids.  They may be shared between records (a mined
    candidate and its reverse partner hold one edge-id array) and are never
    mutated.
    ``reverse_partner`` is ``None`` until ``generate_candidates`` links the
    two orientations of a pattern, and is read only by ``select``.  Two
    records are equal when every field but ``reverse_partner`` is.
    ``root_key`` is read off ``canon_key``.
    """

    __slots__ = _FIELDS + ("reverse_partner", "__weakref__")

    def __init__(
        self,
        rule: Rule,
        canon_key: tuple,
        correct_starts: array,
        num_assertions: int,
        covered_edge_ids: array,
        covered_label_ids: array,
        rule_bits: float,
        traversal_bits: float,
        exception_starts: frozenset[int] | None = None,
    ) -> None:
        self.rule = rule
        self.canon_key = canon_key
        self.correct_starts = correct_starts
        self.num_assertions = num_assertions
        self.covered_edge_ids = covered_edge_ids
        self.covered_label_ids = covered_label_ids
        self.rule_bits = rule_bits
        self.traversal_bits = traversal_bits
        self.exception_starts = exception_starts
        self.reverse_partner: RuleEntry | None = None
        # stored, not derived on access, because model sums read it for
        # every entry; qualify keeps it current when it widens the root
        self.assertion_bits = (
            encoding.assertion_overhead(num_assertions, self.num_exceptions) + traversal_bits
        )

    @classmethod
    def from_rule(cls, rule: Rule, g: KnowledgeGraph, starts: set[int] | None = None) -> "RuleEntry":
        """The record of ``rule``, matched on ``g`` (``starts`` as ``match`` takes them)."""
        aset = match(rule, g, starts)
        return cls(
            rule=rule,
            canon_key=_canon_key(rule, g),
            correct_starts=array("I", sorted(aset.correct_starts)),
            num_assertions=aset.num_assertions,
            covered_edge_ids=aset.covered_edge_ids,
            covered_label_ids=aset.covered_label_ids,
            rule_bits=encoding.rule_cost(rule, g),
            traversal_bits=aset.traversal_bits,
            exception_starts=aset.exception_starts,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _compared(self) == _compared(other)

    @property
    def root_key(self) -> str:
        """The root's label names, sorted and comma-joined."""
        return ",".join(self.canon_key[0])

    @property
    def num_correct(self) -> int:
        return len(self.correct_starts)

    @property
    def num_exceptions(self) -> int:
        return self.num_assertions - len(self.correct_starts)

    @property
    def model_bits(self) -> float:
        return self.rule_bits + self.assertion_bits


class Model:
    """Selected rules plus reference-counted coverage and the cost trace.

    ``edge_refs[i]`` is the number of entries that cover edge ``i`` (an
    ``array("I")`` over every edge id, 0 when unmodelled), and
    ``num_modeled_edges`` its count of non-zero slots; ``label_refs`` and
    ``num_modeled_labels`` are the same over the label-assignment ids.
    ``rule_and_assertion_bits`` is stored, a left ``+=`` fold of
    the entries' bits in entry order.  Every change goes through ``add``, and
    every total in ``history`` is the ``price`` of the change it records."""

    __slots__ = (
        "graph", "entries", "edge_refs", "label_refs", "total", "history",
        "rule_and_assertion_bits", "num_modeled_edges", "num_modeled_labels",
    )

    def __init__(self, graph: KnowledgeGraph) -> None:
        """The empty model of ``graph``: no entries, nothing modelled, and an
        ``init`` history step that records its total."""
        self.graph = graph
        self.entries = []
        self.edge_refs = array("I", [0]) * graph.num_distinct_edges
        self.label_refs = array("I", [0]) * graph.num_label_assignments
        self.num_modeled_edges = self.num_modeled_labels = 0
        self.rule_and_assertion_bits = 0.0
        self.total = self.total_bits
        self.history = [("init", "", 0.0, self.total)]

    def _refold(self) -> None:
        bits = 0.0
        for e in self.entries:
            bits += e.model_bits
        self.rule_and_assertion_bits = bits

    @property
    def error_bits(self) -> float:
        g = self.graph
        return encoding.error_cost_counts(g, self.num_modeled_labels, self.num_modeled_edges)

    @property
    def total_bits(self) -> float:
        """The total description length recomputed from the entries and the
        coverage: the rule-count constant, every rule's structure and
        assertions, and the error bits.  ``total`` is the value the last
        history step recorded."""
        return encoding.model_constant(self.graph) + self.rule_and_assertion_bits + self.error_bits

    def price(self, entry: RuleEntry, drop: Sequence[RuleEntry] = ()) -> float:
        """The total with ``entry`` in place of the entries ``drop`` (appended
        when ``drop`` is empty), without changing the model."""
        bits = self.rule_and_assertion_bits
        for e in drop:
            bits -= e.model_bits
        label_refs, edge_refs = self.label_refs, self.edge_refs
        lids, eids = entry.covered_label_ids, entry.covered_edge_ids
        labels = self.num_modeled_labels + countOf(_gather(label_refs, lids), 0)
        edges = self.num_modeled_edges + countOf(_gather(edge_refs, eids), 0)
        if drop:
            labels -= _lost(label_refs, lids, [e.covered_label_ids for e in drop])
            edges -= _lost(edge_refs, eids, [e.covered_edge_ids for e in drop])
        err = encoding.error_cost_counts(self.graph, labels, edges)
        return encoding.model_constant(self.graph) + bits + entry.model_bits + err

    def add(
        self, entry: RuleEntry, phase: str, total: float, drop: Sequence[RuleEntry] = ()
    ) -> None:
        """Put ``entry`` at the first position of the entries ``drop``, which
        leave, or append it when ``drop`` is empty; move the coverage
        refcounts and record the step ``(phase, rule_text of the entry's rule,
        delta, total)``.  ``total`` must be the change's ``price`` (the caller
        has priced it to decide on the change)."""
        if entry.exception_starts is None:
            starts = self.graph.nodes_with_labels(entry.rule.root_labels)
            entry.exception_starts = frozenset(starts).difference(entry.correct_starts)
        for e in drop:
            self._count(e, -1)
        self._count(entry, 1)
        if drop:
            at = [i for i, e in enumerate(self.entries) if any(e is d for d in drop)]
            self.entries[at[0]] = entry
            for i in reversed(at[1:]):
                del self.entries[i]
            self._refold()
        else:
            self.entries.append(entry)
            self.rule_and_assertion_bits += entry.model_bits
        self.history.append((phase, rule_text(entry.rule, self.graph), total - self.total, total))
        self.total = total

    def _count(self, entry: RuleEntry, step: int) -> None:
        """Move the refcounts of the entry's ids by ``step``;
        ``num_modeled_labels`` and ``num_modeled_edges`` follow the counts
        that leave or reach 0."""
        self.num_modeled_labels += _move(self.label_refs, entry.covered_label_ids, step)
        self.num_modeled_edges += _move(self.edge_refs, entry.covered_edge_ids, step)


def _move(refs: array, ids: array, step: int) -> int:
    """Add ``step`` to ``refs[i]`` for each id of ``ids``; returns how many
    more slots are non-zero."""
    old = _gather(refs, ids)
    for i, n in zip(ids, old):
        refs[i] = n + step
    return countOf(old, 0) - countOf(old, -step)


def _gather(refs: array, ids: array) -> tuple[int, ...]:
    """``refs[i]`` for each id of ``ids``, read in one C loop (``itemgetter``),
    which keeps ``select`` as fast as with dict refcounts.  ``itemgetter``
    needs an id and gives a bare value for one id, so short lists map."""
    if len(ids) < 2:
        return tuple(map(refs.__getitem__, ids))
    return itemgetter(*ids)(refs)


def _lost(refs: array, ids: array, dropped: list[array]) -> int:
    """How many ids ``refs`` stops counting when entries covering ``dropped``
    give way to one covering ``ids``: an id is lost exactly when ``ids`` lacks
    it and ``dropped`` holds all of its references."""
    held: Counter[int] = Counter()
    for d in dropped:
        held.update(set(d).difference(ids))
    return sum(refs[i] == n for i, n in held.items())


# -- candidate generation ----------------------------------------------


def generate_candidates(g: KnowledgeGraph, label_cap: int | None = None) -> list[RuleEntry]:
    """One atomic candidate per (root label, predicate, direction, child label)
    pattern witnessed by at least one edge, in both orientations, with the two
    orientations linked as reverse partners.  ``label_cap``, when given, keeps
    only that many of the most frequent labels.

    The distinct edges are grouped by (subject's label set, predicate,
    object's label set) in first-seen order, as ``array("I")`` columns of
    edge ids, subjects and objects.  Each (subject label, predicate, object
    label) pattern is indexed to the groups that witness it, in the order of
    the edge that first witnesses it, as one edge at a time would find them.
    The patterns are then built one at a time (memory): the union of a
    pattern's groups gives its edge ids, which the OUT candidate and its IN
    reverse share, and each orientation's starts, which with the root label
    are the other orientation's label coverage.  Each pattern yields its OUT
    candidate, then its IN reverse.
    """
    if label_cap is not None and label_cap < 1:
        raise ConfigError(f"label_cap must be >= 1, got {label_cap}")
    allowed: set[int] | None = None
    if label_cap is not None:
        by_freq = sorted(range(g.num_labels), key=lambda l: (-g.n_label[l], g.label_names[l]))
        allowed = set(by_freq[:label_cap])

    # one signature id per distinct (capped) label set; sig_labels[id] is the set, sorted
    sig_ids: dict[tuple[int, ...], int] = {}
    sig_of = {
        ls: sig_ids.setdefault(
            tuple(l for l in sorted(ls) if allowed is None or l in allowed), len(sig_ids)
        )
        for ls in set(g.node_labels)
    }
    sig_labels = list(sig_ids)
    node_sig = [sig_of[ls] for ls in g.node_labels]

    # (subject sig, predicate, object sig) -> (edge ids, subjects, objects)
    groups: dict[tuple[int, int, int], tuple[array, array, array]] = {}
    for eid, s, p, o in g.iter_distinct_edges():
        key = (node_sig[s], p, node_sig[o])
        if key in groups:
            eids, subjects, objects = groups[key]
        else:
            eids, subjects, objects = groups[key] = (array("I"), array("I"), array("I"))
        eids.append(eid)
        subjects.append(s)
        objects.append(o)

    # (subject label, predicate, object label) -> the groups that witness it
    patterns: dict[tuple[int, int, int], list[tuple[array, array, array]]] = {}
    for (s_sig, p, o_sig), group in groups.items():
        for ls in sig_labels[s_sig]:
            for lo in sig_labels[o_sig]:
                patterns.setdefault((ls, p, lo), []).append(group)
    del groups

    log_v = math.log2(g.num_nodes) if g.num_nodes else 0.0
    universe = g.neighbor_universe
    single = [frozenset((l,)) for l in range(g.num_labels)]  # one shared set per label (memory)

    cands: list[RuleEntry] = []
    for key in list(patterns):
        ls, p, lo = key
        edge_ids: set[int] = set()
        out_starts: Counter[int] = Counter()
        in_starts: Counter[int] = Counter()
        for eids, subjects, objects in patterns.pop(key):
            edge_ids.update(eids)
            out_starts.update(subjects)
            in_starts.update(objects)
        eids = array("I", sorted(edge_ids))
        del edge_ids
        sides = (ls, OUT, lo, out_starts, in_starts), (lo, IN, ls, in_starts, out_starts)
        for root, direction, child, starts, neighbours in sides:
            rule = Rule(single[root], (Child(p, direction, Rule(single[child])),))
            entry = RuleEntry(
                rule=rule,
                canon_key=_canon_key(rule, g),
                correct_starts=array("I", sorted(starts)),
                num_assertions=g.n_label[root],
                covered_edge_ids=eids,
                # one label's assignment ids ascend with the node
                covered_label_ids=array("I", g.assignment_ids(child, sorted(neighbours))),
                rule_bits=encoding.rule_cost(rule, g),
                # summed with math.fsum, exactly as rules.match sums them
                traversal_bits=math.fsum(
                    log_v + encoding.log_binomial(universe, n) for n in starts.values()
                ),
            )
            cands.append(entry)
        out, rev = cands[-2:]
        out.reverse_partner, rev.reverse_partner = rev, out
    return cands


# -- qualification -------------------------------------------------------


def qualify(c: RuleEntry, g: KnowledgeGraph) -> RuleEntry:
    """Strengthen the root to the label intersection of the correct starts when
    that does not increase the single-rule cost.  The correct starts and their
    coverage are unchanged, so only the rule and exception-partition bits compete."""
    if not c.correct_starts:
        return c
    # nodes with equal label sets share one frozenset, so this intersects
    # each distinct label set of the starts once
    shared = frozenset.intersection(*set(map(g.node_labels.__getitem__, c.correct_starts)))
    if not (c.rule.root_labels < shared):
        return c
    new_assertions = len(g.nodes_with_labels(shared))
    new_rule = canonicalize(Rule(shared, c.rule.children))
    new_rule_bits = encoding.rule_cost(new_rule, g)
    old_bits = c.rule_bits + encoding.assertion_overhead(c.num_assertions, c.num_exceptions)
    new_overhead = encoding.assertion_overhead(
        new_assertions, new_assertions - len(c.correct_starts)
    )
    if new_rule_bits + new_overhead <= old_bits:
        c.rule = new_rule
        c.rule_bits = new_rule_bits
        c.num_assertions = new_assertions
        c.assertion_bits = new_overhead + c.traversal_bits
        c.canon_key = _canon_key(new_rule, g)
    return c


def qualify_all(cands: list[RuleEntry], g: KnowledgeGraph) -> list[RuleEntry]:
    """Qualify every candidate, then drop structural duplicates (first kept)."""
    for c in cands:
        qualify(c, g)
    kept: dict[tuple, RuleEntry] = {}
    for c in cands:
        kept.setdefault(c.canon_key, c)
    result = list(kept.values())
    for c in result:
        if c.reverse_partner is not None:
            c.reverse_partner = kept[c.reverse_partner.canon_key]
    return result


# -- ranking and selection ------------------------------------------------


def rank(cands: list[RuleEntry], g: KnowledgeGraph) -> list[RuleEntry]:
    """Descending error reduction against the empty model; ties by correct
    assertion count, then root label strings, then full structure."""
    err0 = encoding.error_cost_counts(g, 0, 0)

    def key(c: RuleEntry) -> tuple:
        err = encoding.error_cost_counts(g, len(c.covered_label_ids), len(c.covered_edge_ids))
        return -(err0 - err), -c.num_correct, c.root_key, c.canon_key

    return sorted((c for c in cands if c.correct_starts), key=key)


def select(g: KnowledgeGraph, ranked: list[RuleEntry], max_passes: int = 3) -> Model:
    """Multi-pass greedy scan: add a rule whenever it strictly lowers the total
    cost, considering reverse orientations together and keeping the cheaper."""
    if max_passes < 1:
        raise ConfigError(f"max_passes must be >= 1, got {max_passes}")
    model = Model(g)
    chosen: set[int] = set()  # id()s of the added candidates; the list stays reusable

    for _ in range(max_passes):
        added_any = False
        for cand in ranked:
            if id(cand) in chosen:
                continue
            choice, choice_total = cand, model.price(cand)
            partner = cand.reverse_partner
            if partner is not None and id(partner) not in chosen:
                partner_total = model.price(partner)
                if partner_total < choice_total:
                    choice, choice_total = partner, partner_total
            if choice_total < model.total:
                chosen.add(id(choice))
                model.add(choice, "select", choice_total)
                added_any = True
        if not added_any:
            break
    return model


def build_model(g: KnowledgeGraph, rules: Iterable[Rule]) -> Model:
    """The model of an explicit rule list, costed: each rule canonicalized,
    matched and added as a ``load`` step, in list order.

    A rule whose root labels no node of ``g`` carries together has no
    assertions and cannot be encoded; such rules (a model applied to a graph
    that has drifted since mining) are skipped with one warning."""
    model = Model(g)
    skipped: list[str] = []
    for rule in map(canonicalize, rules):
        starts = g.nodes_with_labels(rule.root_labels)
        if starts:
            entry = RuleEntry.from_rule(rule, g, starts)
            model.add(entry, "load", model.price(entry))
        else:
            skipped.append(rule_text(rule, g))
    if skipped:
        warnings.warn(
            f"{len(skipped)} model rule(s) skipped: no node carries all their root labels: "
            + "; ".join(skipped),
            stacklevel=2,
        )
    return model


# -- refinements ----------------------------------------------------------


def _dedup_children(children: Iterable[Child]) -> tuple[Child, ...]:
    return tuple(dict.fromkeys(children))


def refine_merge(model: Model, g: KnowledgeGraph) -> Model:
    """Rm: fuse rules with identical roots and identical correct-start sets
    into one multi-child rule, kept when ``Model.price`` of the merged rule in
    place of its parts does not exceed the current total.  Rules are grouped
    by root labels and the bytes of the correct-start array, which ascends,
    so equal sets give equal bytes.  The merged rule
    covers exactly the union of its parts' edges and labels, so the error bits
    do not move and only model bits compete.  A kept merge takes its first
    part's position through ``Model.add``."""
    groups: dict[tuple[frozenset[int], bytes], list[RuleEntry]] = {}
    for e in model.entries:
        groups.setdefault((e.rule.root_labels, e.correct_starts.tobytes()), []).append(e)

    for key, parts in groups.items():  # insertion order: first member's position
        if len(parts) < 2:
            continue
        merged_rule = canonicalize(
            Rule(key[0], _dedup_children(c for e in parts for c in e.rule.children))
        )
        merged = RuleEntry.from_rule(merged_rule, g)
        total = model.price(merged, parts)
        if total <= model.total:
            model.add(merged, "merge", total, drop=parts)
    return model


def _nest_rule(rule: Rule, path: tuple[int, ...], inner: Rule) -> Rule:
    if not path:
        return Rule(rule.root_labels, _dedup_children(rule.children + inner.children))
    i = path[0]
    c = rule.children[i]
    children = list(rule.children)
    children[i] = Child(c.predicate, c.direction, _nest_rule(c.child, path[1:], inner))
    return Rule(rule.root_labels, tuple(children))


NEST_PRUNE_MARGIN = 1e-9  # times the model total: float slack a nest bound must clear


class NestCounts:
    """What ``refine_nest`` did with the pairs it tried: each considered pair is
    either pruned by its bound or fully evaluated, and some evaluated pairs are
    accepted."""

    __slots__ = ("considered", "pruned", "evaluated", "accepted")

    def __init__(self) -> None:
        self.considered = self.pruned = self.evaluated = self.accepted = 0


class Reach(NamedTuple):
    """What each correct start of a rule reaches at one inner path, as flat
    arrays: the ``k``-th start, in the order the reach was built in, reaches
    the nodes ``nodes[offsets[k]:offsets[k + 1]]``, each by as many traversal
    branches as the same slice of ``ways`` says.  At depth 1 a start's slice
    holds its neighbour array from ``evaluate``, whose nodes are distinct and
    each reached one way, and ``ways`` is ``None``.  Branch counts are stored as
    floats, the type ``nest_bound`` multiplies them in; each is exact below
    2**53."""

    offsets: array  # "I", one entry per start and one more
    nodes: array  # "I"
    ways: array | None  # "d"


def _reach_by_start(
    rule: Rule, per_child: list, path: tuple[int, ...] = (), reach: dict | None = None
) -> dict[tuple[int, ...], Reach]:
    """The ``Reach`` of every inner path of ``rule`` from the per-child
    results of ``evaluate(rule, g, starts)``, every one of ``starts``
    correct, its starts in the order of ``starts``.  At depth 1 the rows are
    the pass's own arrays; each deeper path, one level per call, reads each
    start's nodes and branch counts at the path above and looks their rows
    up in one node -> row dict, summing the counts one start at a time.
    ``path`` and ``reach``, the path of ``rule`` and the dict being filled,
    carry the recursion."""
    if reach is None:
        reach = {
            p: Reach(array("I", [0]), array("I"), array("d") if len(p) > 1 else None)
            for p, _ in iter_positions(rule)
            if p
        }
    for i, (c, (reached, wss, _, sub)) in enumerate(zip(rule.children, per_child)):
        at = reach[path + (i,)]
        if path:
            row_of, (offsets, nodes, ways) = dict(zip(reached, wss)), reach[path]
            for lo, hi in zip(offsets, offsets[1:]):
                nxt: dict[int, float] = {}
                for u, n in zip(nodes[lo:hi], ways[lo:hi] if ways is not None else [1] * (hi - lo)):
                    for w in row_of[u]:
                        nxt[w] = nxt.get(w, 0) + n
                at.nodes.extend(nxt)
                at.ways.extend(nxt.values())
                at.offsets.append(len(at.nodes))
        else:
            at.offsets.extend(accumulate(map(len, wss)))
            at.nodes.frombytes(b"".join(wss))
        if sub is not None:
            _reach_by_start(c.child, sub, path + (i,), reach)
    return reach


def nest_bound(
    e_in: RuleEntry,
    path: tuple[int, ...],
    e_rt: RuleEntry,
    composed_rule: Rule,
    reach: Reach,
    bits_in: array,
    bits_rt: array,
    g: KnowledgeGraph,
    slack: float = math.inf,
) -> float | None:
    """The model bits of ``composed_rule`` (``e_rt`` nested at ``path`` of
    ``e_in``) from cached per-start data, without matching it: ``reach`` is
    e_in's reach at ``path`` and ``bits_in`` and ``bits_rt`` the two rules'
    per-start traversal bits (``"d"`` arrays), each over its record's
    correct starts in their array's order.  ``None`` when the inner node and
    e_rt's root share a child, which ``_dedup_children`` drops and the sum
    below would overcount.

    The path is non-empty, so the composed rule keeps e_in's root and its
    assertions.  A start stays correct exactly when it is correct in e_in and
    every node it reaches at ``path`` is a correct start of e_rt, a key of
    one ``{start: bits}`` dict of e_rt.  Its traversal bits are then its e_in
    bits plus the e_rt bits of each reached node, counted once per branch
    that reaches it.  Nesting covers no edge or label its two parts did not,
    so the error bits cannot fall, and this value plus the current error
    bits bounds the total with the pair accepted.

    The sum stops early, once the rule bits plus the traversal bits summed so
    far exceed the model bits of the two parts by more than ``slack``
    (``value - e_in.model_bits - e_rt.model_bits > slack``), and returns that
    partial value, which passes the same test.  Every term is at least 0 and
    float addition is monotone, so the full value passes it too: the prune
    decision is the full bound's.  With ``slack`` infinite the sum never stops.
    """
    node = e_in.rule
    for i in path:
        node = node.children[i].child
    joined = node.children + e_rt.rule.children
    if len(set(joined)) < len(joined):
        return None
    rule_bits = encoding.rule_cost(composed_rule, g)
    model_in, model_rt = e_in.model_bits, e_rt.model_bits
    rt_bits_of = dict(zip(e_rt.correct_starts, bits_rt))
    offsets, nodes, ways = reach
    num_correct = 0
    traversal = 0.0
    for k, in_bits in enumerate(bits_in):
        lo, hi = offsets[k], offsets[k + 1]
        reached = nodes[lo:hi]
        if all(map(rt_bits_of.__contains__, reached)):
            num_correct += 1
            rt_bits = map(rt_bits_of.__getitem__, reached)
            if ways is not None:
                rt_bits = map(mul, ways[lo:hi], rt_bits)
            traversal += in_bits + math.fsum(rt_bits)
            if rule_bits + traversal - model_in - model_rt > slack:
                return rule_bits + traversal
    n = e_in.num_assertions
    return rule_bits + encoding.assertion_overhead(n, n - num_correct) + traversal


def refine_nest(model: Model, g: KnowledgeGraph, counts: NestCounts | None = None) -> Model:
    """Rn: nest one rule beneath a label-matching inner node of another,
    trying pairs in descending Jaccard fit of the occupying node sets, keeping
    a composition only when it strictly lowers the total cost.  A composition
    deeper than ``MAX_RULE_DEPTH`` is never tried, so that ``rule_from_dict``
    reads every summary back.

    A pair whose ``nest_bound`` exceeds the model bits of its two parts cannot
    lower the total and is skipped without matching the composed rule; the
    accepted sequence is the same as with every pair evaluated.  A composition
    covers a subset of its parts' union; ``Model.price`` prices it in place of
    its two parts from the ids they lose, and ``Model.add`` puts it at the
    earlier part's position, so the coverage refcounts move only when a pair
    is accepted.  Each scan sorts the pairs of the live entries afresh; a
    pair's Jaccard fit, which depends on its two rules alone, is carried over
    from the last scan while both rules stay live; a fit it must compute
    counts the nested rule's starts in one set of the nodes occupying the
    inner position, built once per position per scan.  A rule's start bits
    and reach are cached by its canonical key from the first pair that reads
    them until no live entry has that key, so an unchanged entry keeps its
    reach across acceptances.
    ``counts``, when given, is incremented with what happened to the pairs.
    """
    if counts is None:
        counts = NestCounts()
    walked: dict[tuple, tuple[array, dict[tuple, Reach]]] = {}

    def walk_once(entry: RuleEntry) -> tuple[array, dict[tuple, Reach]]:
        """The entry's per-start bits, over its correct-start array in order,
        and per inner path the ``Reach``, from one ``evaluate`` over those
        starts, whose per-child results go once the reach is flattened."""
        hit = walked.get(entry.canon_key)
        if hit is None:
            _, bits, per_child = evaluate(entry.rule, g, entry.correct_starts)
            hit = walked[entry.canon_key] = (array("d", bits), _reach_by_start(entry.rule, per_child))
        return hit

    pairs: list[tuple] = []
    while True:
        entries = model.entries
        for key in walked.keys() - {e.canon_key for e in entries}:
            del walked[key]  # the start bits and reach of a replaced entry
        by_root: dict[frozenset[int], list[int]] = {}
        for j, e in enumerate(entries):
            by_root.setdefault(e.rule.root_labels, []).append(j)
        # a pair's fit depends on its two rules alone: the last scan's fits
        # serve the pairs whose rules are both still live
        fits = {pair[1:4]: pair[0] for pair in pairs}
        pairs = []
        for i, e_in in enumerate(entries):
            for path, node in iter_positions(e_in.rule):
                if not path:
                    continue
                occ = None  # the nodes occupying this position, for the fits not carried over
                for j in by_root.get(node.root_labels, ()):
                    e_rt = entries[j]
                    if i == j or len(path) + e_rt.rule.depth() > MAX_RULE_DEPTH:
                        continue  # the composition would nest too deep to read back
                    key = (e_in.canon_key, path, e_rt.canon_key)
                    fit = fits.get(key)
                    if fit is None:
                        if occ is None:
                            occ = set(walk_once(e_in)[1][path].nodes)
                        rt_starts = e_rt.correct_starts
                        inter = countOf(map(occ.__contains__, rt_starts), True)
                        union = len(occ) + len(rt_starts) - inter
                        fit = -(inter / union if union else 0.0)
                    pairs.append((fit, *key, i, j))
        del fits
        pairs.sort()
        for _, _, path, _, i, j in pairs:
            e_in, e_rt = entries[i], entries[j]
            counts.considered += 1
            composed_rule = canonicalize(_nest_rule(e_in.rule, path, e_rt.rule))
            (bits_in, reach), (bits_rt, _) = walk_once(e_in), walk_once(e_rt)
            slack = NEST_PRUNE_MARGIN * model.total
            bound = nest_bound(e_in, path, e_rt, composed_rule, reach[path], bits_in, bits_rt, g, slack)
            if bound is not None and bound - e_in.model_bits - e_rt.model_bits > slack:
                counts.pruned += 1
                continue
            counts.evaluated += 1
            composed = RuleEntry.from_rule(composed_rule, g)
            total = model.price(composed, (e_in, e_rt))
            if total < model.total:
                break
        else:
            return model
        model.add(composed, "nest", total, drop=(e_in, e_rt))
        counts.accepted += 1


# -- pipeline -------------------------------------------------------------

REFINE_MODES = ("none", "merge", "nest")


@contextmanager
def timed(name: str, log: Callable[[str], None] | None) -> Iterator[None]:
    """Pass ``"<name>: <wall seconds>s"`` to ``log`` when the block completes."""
    start = time.perf_counter()
    yield
    if log:
        log(f"{name}: {time.perf_counter() - start:.2f}s")


def summarize(
    g: KnowledgeGraph,
    refine: str = "nest",
    max_passes: int = 3,
    label_cap: int | None = None,
    log: Callable[[str], None] | None = None,
) -> Model:
    """Run the full pipeline; ``refine='nest'`` implies merging first."""
    if refine not in REFINE_MODES:
        raise ConfigError(f"refine must be one of {REFINE_MODES}, got {refine!r}")
    with timed("generate", log):
        cands = generate_candidates(g, label_cap=label_cap)
    with timed("qualify", log):
        cands = qualify_all(cands, g)
    with timed("rank", log):
        ranked = rank(cands, g)
    with timed("select", log):
        model = select(g, ranked, max_passes=max_passes)
    # the refinements read only the model; unlinked from their partners,
    # which pair them in reference cycles, the unselected candidates go now
    while cands:
        cands.pop().reverse_partner = None
    del cands, ranked
    if refine in ("merge", "nest"):
        with timed("refine_merge", log):
            model = refine_merge(model, g)
    if refine == "nest":
        counts = NestCounts()
        with timed("refine_nest", log):
            model = refine_nest(model, g, counts)
        if log:
            log(
                f"refine_nest pairs: {counts.considered} considered, {counts.pruned} pruned, "
                f"{counts.evaluated} evaluated, {counts.accepted} accepted"
            )
    return model


# -- model files ----------------------------------------------------------


def model_to_dict(model: Model) -> dict:
    g = model.graph
    constant = encoding.model_constant(g)
    model_bits = constant + model.rule_and_assertion_bits
    err_bits = model.error_bits
    total = model.total_bits
    empty_total = constant + encoding.error_cost_counts(g, 0, 0)
    pct_bits = (100.0 * total / empty_total) if empty_total > 0 else 100.0
    pct_edges = (
        100.0 * model.num_modeled_edges / g.num_distinct_edges if g.num_distinct_edges else 0.0
    )
    return {
        "rules": [
            {
                "rule": rule_to_dict(e.rule, g),
                "L_rule_bits": e.rule_bits,
                "L_assertions_bits": e.assertion_bits,
                "num_correct": e.num_correct,
                "num_exceptions": e.num_exceptions,
            }
            for e in model.entries
        ],
        "L_model_bits": model_bits,
        "L_error_bits": err_bits,
        "L_total_bits": total,
        "pct_bits_vs_empty": pct_bits,
        "pct_edges_explained": pct_edges,
    }


def model_from_dict(data: dict, g: KnowledgeGraph) -> Model:
    """Rebuild a model on ``g`` from a serialized rule list (costs recomputed)
    with ``build_model``, which skips the rules that no longer apply.  A
    document of any other shape raises ``RuleFormatError``, before any rule
    is matched.
    """
    entries = data.get("rules") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise RuleFormatError("a model must be an object whose 'rules' is a list")
    rules: list[Rule] = []
    for entry in entries:
        if not isinstance(entry, dict) or "rule" not in entry:
            raise RuleFormatError("each model rule must be an object with a 'rule'")
        rules.append(rule_from_dict(entry["rule"], g))
    return build_model(g, rules)

"""Independent straight-line re-implementations used as test oracles.

Everything here is written against the definitions directly: plain recursion,
exact big-integer combinatorics, linear scans instead of indexes.  The point
is a second code path, so nothing imports the package's encoding/matching
internals beyond the shared value types (Rule, Child, KnowledgeGraph).  The
exceptions are ``oracle_select``, which checks the order in which the greedy
scan accumulates costs, to the bit, so it prices the error and the rule-count
constant with the package's own functions, and ``oracle_qualify``, whose
widening decision compares rule and assertion bits to the bit, so it prices
them with the package's own ``rule_cost`` and ``assertion_overhead``, and
``oracle_missing_reports``, which checks which rows are reported and in what
order, so it takes each node's score from the package's ``AnomalyScorer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from kgsum.anomaly import AnomalyScorer
from kgsum.encoding import assertion_overhead, error_cost_counts, model_constant, rule_cost
from kgsum.graph import KnowledgeGraph
from kgsum.rules import IN, OUT, Child, Rule, rule_text


class OracleParseError(Exception):
    """The first malformed line: ``args == (source, line number)``."""


@dataclass
class ParsedGraph:
    node_names: list[str]
    pred_names: list[str]
    label_names: list[str]
    edges: list[tuple[int, int, int]]  # file order, duplicates kept
    distinct_edges: list[tuple[int, int, int]]  # first-seen order
    node_labels: list[set[int]]


def _data_fields(lines, arity: int, source: str) -> list[list[str]]:
    rows = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line.strip() == "" or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != arity or "" in fields:
            raise OracleParseError(source, line_no)
        rows.append(fields)
    return rows


def oracle_parse(triple_lines, label_lines, triple_source="<triples>", label_source="<labels>"):
    """Straight-line parse into name lists, tuple lists and per-node label
    sets: every triple line first, then every label line, ids in first-seen
    order.  Raises ``OracleParseError`` at the first malformed line."""
    nodes: list[str] = []
    preds: list[str] = []
    labels: list[str] = []

    def intern(names: list[str], name: str) -> int:
        if name not in names:
            names.append(name)
        return names.index(name)

    edges = []
    for s, p, o in _data_fields(triple_lines, 3, triple_source):
        edges.append((intern(nodes, s), intern(preds, p), intern(nodes, o)))
    assigned = []
    for v, l in _data_fields(label_lines, 2, label_source):
        assigned.append((intern(nodes, v), intern(labels, l)))
    distinct = []
    for e in edges:
        if e not in distinct:
            distinct.append(e)
    node_labels = [{l for u, l in assigned if u == v} for v in range(len(nodes))]
    return ParsedGraph(nodes, preds, labels, edges, distinct, node_labels)


def oracle_universal_int(n: int) -> float:
    assert n >= 1
    total = math.log2(2.865064)
    term = math.log2(n)
    while term > 0:
        total += term
        term = math.log2(term)
    return total


def oracle_log_binomial(n: int, k: int) -> float:
    return math.log2(math.comb(n, k))


def oracle_matching_neighbors(g: KnowledgeGraph, u: int, child: Child) -> list[int]:
    """The child's direction-respecting neighbours of ``u`` that carry its
    root labels, in ascending id order, from a scan of every edge."""
    want = child.child.root_labels
    if child.direction == OUT:
        found = {o for s, p, o in g.distinct_edges if s == u and p == child.predicate}
    else:
        found = {s for s, p, o in g.distinct_edges if o == u and p == child.predicate}
    return sorted(w for w in found if want <= g.node_labels[w])


def oracle_missing_reports(model) -> list[dict]:
    """``anomaly.missing_reports`` start by start: for each entry, each of its
    exception starts and each child of its rule, a row when the start has no
    matching neighbour for the child, the first row of each (node,
    predicate, direction, labels) kept, sorted stably by descending score,
    then node, predicate and direction."""
    g = model.graph
    scorer = AnomalyScorer(model)
    rows: dict[tuple, dict] = {}
    for entry in model.entries:
        for v in sorted(entry.exception_starts):
            for c in entry.rule.children:
                if oracle_matching_neighbors(g, v, c):
                    continue
                labels = sorted(g.label_names[l] for l in c.child.root_labels)
                row = {
                    "node": g.node_names[v],
                    "predicate": g.pred_names[c.predicate],
                    "direction": "out" if c.direction == OUT else "in",
                    "expected_labels": labels,
                    "score_bits": scorer.node_score(v),
                }
                rows.setdefault((row["node"], row["predicate"], row["direction"], tuple(labels)), row)
    return sorted(rows.values(), key=lambda r: (-r["score_bits"], r["node"], r["predicate"], r["direction"]))


def _succeeds(g: KnowledgeGraph, u: int, rule: Rule) -> bool:
    for c in rule.children:
        ws = oracle_matching_neighbors(g, u, c)
        if not ws:
            return False
        for w in ws:
            if not _succeeds(g, w, c.child):
                return False
    return True


def oracle_match(g: KnowledgeGraph, rule: Rule):
    """(correct starts, exception starts, covered edges, covered labels)."""
    starts = {v for v in range(g.num_nodes) if rule.root_labels <= g.node_labels[v]}
    correct = {v for v in starts if _succeeds(g, v, rule)}
    exceptions = starts - correct

    edges: set[tuple[int, int, int]] = set()
    labels: set[tuple[int, int]] = set()

    def collect(u: int, r: Rule) -> None:
        for c in r.children:
            for w in oracle_matching_neighbors(g, u, c):
                edges.add((u, c.predicate, w) if c.direction == OUT else (w, c.predicate, u))
                for l in c.child.root_labels:
                    labels.add((w, l))
                collect(w, c.child)

    for v in sorted(correct):
        collect(v, rule)
    return correct, exceptions, edges, labels


def assignment_pairs(g: KnowledgeGraph) -> list[tuple[int, int]]:
    """Every (node, label) pair of ``g`` in label-assignment-id order, numbered
    here from the definition, not from ``g.label_offsets``: nodes in id order,
    each node's labels ascending."""
    return [(v, l) for v in range(g.num_nodes) for l in sorted(g.node_labels[v])]


def as_ids(g: KnowledgeGraph, edges, labels) -> tuple[set[int], set[int]]:
    """``oracle_match``'s coverage in the package's ids: each (s, p, o) edge as
    its index in ``g.distinct_edges``, each (node, label) pair as its
    position in ``assignment_pairs(g)``."""
    index = {t: i for i, t in enumerate(g.distinct_edges)}
    label_index = {t: i for i, t in enumerate(assignment_pairs(g))}
    return {index[t] for t in edges}, {label_index[t] for t in labels}


def is_coverage_array(ids, typecode: str) -> bool:
    """``ids`` is an ``array`` of ``typecode`` whose ids strictly increase."""
    return ids.typecode == typecode and all(a < b for a, b in zip(ids, ids[1:]))


def modeled_edge_ids(model) -> set[int]:
    """The edge ids that ``model.edge_refs`` counts at least once."""
    return {i for i, n in enumerate(model.edge_refs) if n}


def modeled_label_ids(model) -> set[int]:
    """The label-assignment ids that ``model.label_refs`` counts at least once."""
    return {i for i, n in enumerate(model.label_refs) if n}


def oracle_rule_cost(g: KnowledgeGraph, rule: Rule) -> float:
    bits = math.log2(g.num_labels)
    for l in rule.root_labels:
        bits += -math.log2(g.n_label[l] / g.num_nodes)
    bits += oracle_universal_int(len(rule.children) + 1)
    for c in rule.children:
        bits += -math.log2(g.n_pred[c.predicate] / g.num_edges)
        bits += 1
        bits += oracle_rule_cost(g, c.child)
    return bits


def _neighbor_universe(g: KnowledgeGraph) -> int:
    """A neighbour set is drawn from the other nodes, or from all nodes when
    some edge is a self-loop."""
    v = g.num_nodes
    return v if any(s == o for s, _, o in g.distinct_edges) else v - 1


def oracle_traversal_bits(g: KnowledgeGraph, u: int, rule: Rule) -> float:
    """Traversal bits of ``rule`` from the single start ``u``."""
    bits = 0.0
    for c in rule.children:
        ws = oracle_matching_neighbors(g, u, c)
        bits += math.log2(g.num_nodes) + oracle_log_binomial(_neighbor_universe(g), len(ws))
        for w in ws:
            bits += oracle_traversal_bits(g, w, c.child)
    return bits


def oracle_star_bits(g: KnowledgeGraph, u: int, rule: Rule) -> float:
    """Traversal bits of the star ``rule`` (every child a leaf) from the
    single correct start ``u``: 0.0 plus one term per child, log2 |V| plus
    log2 C(universe, matching-neighbour count), added in child order, which
    is the order the package adds them in, so the two compare by ``==``."""
    assert all(not c.child.children for c in rule.children)
    bits = 0.0
    for c in rule.children:
        n = len(oracle_matching_neighbors(g, u, c))
        bits += math.log2(g.num_nodes) + oracle_log_binomial(_neighbor_universe(g), n)
    return bits


def oracle_assertions_cost(g: KnowledgeGraph, rule: Rule) -> float:
    correct, exceptions, _, _ = oracle_match(g, rule)
    num = len(correct) + len(exceptions)
    assert num >= 1
    bits = math.log2(num) + oracle_log_binomial(num, len(exceptions))
    for s in sorted(correct):
        bits += oracle_traversal_bits(g, s, rule)
    return bits


def oracle_error_cost(g: KnowledgeGraph, covered_labels: set, covered_edges: set) -> float:
    total_labels = g.num_label_assignments
    total_edges = g.num_distinct_edges
    universe_labels = g.num_labels * g.num_nodes
    universe_edges = g.num_nodes * g.num_nodes * g.num_preds
    return oracle_log_binomial(
        universe_labels - len(covered_labels), total_labels - len(covered_labels)
    ) + oracle_log_binomial(universe_edges - len(covered_edges), total_edges - len(covered_edges))


def oracle_total_cost(g: KnowledgeGraph, rules: list[Rule]) -> float:
    bits = math.log2(2 * g.num_labels * g.num_labels * g.num_preds + 1)
    covered_edges: set = set()
    covered_labels: set = set()
    for rule in rules:
        _, _, edges, labels = oracle_match(g, rule)
        covered_edges |= edges
        covered_labels |= labels
        bits += oracle_rule_cost(g, rule) + oracle_assertions_cost(g, rule)
    return bits + oracle_error_cost(g, covered_labels, covered_edges)


@dataclass
class GeneratedCandidate:
    """One atomic pattern ``root --predicate/direction--> child`` and what the
    edges witnessing it add up to."""

    root: int
    predicate: int
    direction: int
    child: int
    start_matches: dict[int, int]  # start -> its matching neighbours
    edge_ids: set[int]
    labels: set[tuple[int, int]]  # (neighbour, label)
    traversal_bits: float = 0.0

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.root, self.predicate, self.direction, self.child)


def oracle_generate_candidates(
    g: KnowledgeGraph, label_cap: int | None = None
) -> list[GeneratedCandidate]:
    """Atomic candidates built one distinct edge at a time, in edge-id order:
    an edge (s, p, o) witnesses, for every label pair of s and o, the pattern
    rooted at s's label (out) and the one rooted at o's label (in).  Each
    witness counts one matching neighbour for its start and covers the edge
    and the neighbour's label.  Candidates come in the order their first
    witness was seen.  With ``label_cap``, only that many of the most frequent
    labels (ties by name) take part."""
    labels = [set(ls) for ls in g.node_labels]
    if label_cap is not None:
        freq = {l: sum(l in ls for ls in labels) for l in range(len(g.label_names))}
        kept = set(sorted(freq, key=lambda l: (-freq[l], g.label_names[l]))[:label_cap])
        labels = [ls & kept for ls in labels]
    found: dict[tuple[int, int, int, int], GeneratedCandidate] = {}

    def witness(key, start: int, eid: int, label: tuple[int, int]) -> None:
        if key not in found:
            found[key] = GeneratedCandidate(*key, {}, set(), set())
        c = found[key]
        c.start_matches[start] = c.start_matches.get(start, 0) + 1
        c.edge_ids.add(eid)
        c.labels.add(label)

    for eid, (s, p, o) in enumerate(g.distinct_edges):
        for ls in sorted(labels[s]):
            for lo in sorted(labels[o]):
                witness((ls, p, OUT, lo), s, eid, (o, lo))
                witness((lo, p, IN, ls), o, eid, (s, ls))

    log_v = math.log2(g.num_nodes) if g.num_nodes else 0.0
    universe = _neighbor_universe(g)
    for c in found.values():
        # correctly rounded, so the order of the starts does not matter
        c.traversal_bits = math.fsum(
            log_v + oracle_log_binomial(universe, n) for n in c.start_matches.values()
        )
    return list(found.values())


def oracle_select(g: KnowledgeGraph, ranked: list, max_passes: int = 3) -> list[tuple]:
    """The greedy scan of ``miner.select`` with every evaluation re-summing
    the chosen rules' bits: up to ``max_passes`` passes over ``ranked``, each
    candidate weighed against its reverse partner and the cheaper one kept
    when it strictly lowers the total.  Returns the history the scan records,
    ``(phase, rule text, delta, total)`` per step.  The candidates are not
    modified."""
    constant = model_constant(g)
    total = constant + error_cost_counts(g, 0, 0)
    history = [("init", "", 0.0, total)]
    chosen: list = []
    edges: set[int] = set()
    labels: set[int] = set()

    def evaluate(c) -> float:
        err = error_cost_counts(
            g, len(labels | set(c.covered_label_ids)), len(edges | set(c.covered_edge_ids))
        )
        bits = 0.0  # a left fold, as the model sums: sum() compensates from 3.12
        for e in chosen:
            bits += e.model_bits
        return constant + bits + c.model_bits + err

    for _ in range(max_passes):
        added = False
        for cand in ranked:
            if any(cand is e for e in chosen):
                continue
            choice, choice_total = cand, evaluate(cand)
            partner = cand.reverse_partner
            if partner is not None and not any(partner is e for e in chosen + [cand]):
                partner_total = evaluate(partner)
                if partner_total < choice_total:
                    choice, choice_total = partner, partner_total
            if choice_total < total:
                chosen.append(choice)
                edges |= set(choice.covered_edge_ids)
                labels |= set(choice.covered_label_ids)
                history.append(("select", rule_text(choice.rule, g), choice_total - total, choice_total))
                total = choice_total
                added = True
        if not added:
            break
    return history


def oracle_qualify(c, g: KnowledgeGraph):
    """``miner.qualify`` one correct start at a time: intersect the starts'
    label sets in turn, stopping as soon as only the root labels are left,
    then widen the root to that intersection when the rule bits plus the
    exception-partition bits do not rise.  Modifies and returns ``c``."""
    if not c.correct_starts:
        return c
    shared = None
    root = c.rule.root_labels
    for s in c.correct_starts:
        labels = g.node_labels[s]
        shared = set(labels) if shared is None else shared & labels
        if len(shared) == len(root):
            return c  # nothing beyond the root is shared
    if not root < shared:
        return c
    new_assertions = sum(shared <= ls for ls in g.node_labels)
    new_rule = _canonical(Rule(frozenset(shared), c.rule.children))
    new_rule_bits = rule_cost(new_rule, g)
    old_bits = c.rule_bits + assertion_overhead(c.num_assertions, c.num_exceptions)
    new_overhead = assertion_overhead(new_assertions, new_assertions - len(c.correct_starts))
    if new_rule_bits + new_overhead <= old_bits:
        c.rule = new_rule
        c.rule_bits = new_rule_bits
        c.num_assertions = new_assertions
        c.assertion_bits = new_overhead + c.traversal_bits
        c.canon_key = _name_key(g, new_rule)
    return c


def _canonical(rule: Rule) -> Rule:
    """Children sorted by (predicate, direction, child's sort key), recursively."""

    def key(r: Rule):
        return (
            tuple(sorted(r.root_labels)),
            tuple((c.predicate, c.direction, key(c.child)) for c in r.children),
        )

    children = [Child(c.predicate, c.direction, _canonical(c.child)) for c in rule.children]
    children.sort(key=lambda c: (c.predicate, c.direction, key(c.child)))
    return Rule(rule.root_labels, tuple(children))


def _name_key(g: KnowledgeGraph, rule: Rule):
    """Order of canonical rules by external names."""
    return (
        tuple(sorted(g.label_names[l] for l in rule.root_labels)),
        tuple(
            (g.pred_names[c.predicate], c.direction, _name_key(g, c.child)) for c in rule.children
        ),
    )


def _positions(rule: Rule, path: tuple[int, ...] = ()):
    yield path, rule
    for i, c in enumerate(rule.children):
        yield from _positions(c.child, path + (i,))


def _nest(rule: Rule, path: tuple[int, ...], inner: Rule) -> Rule:
    """``inner``'s children added beneath the node at ``path``, repeats dropped."""
    if not path:
        children: list[Child] = []
        for c in rule.children + inner.children:
            if c not in children:
                children.append(c)
        return Rule(rule.root_labels, tuple(children))
    c = rule.children[path[0]]
    children = list(rule.children)
    children[path[0]] = Child(c.predicate, c.direction, _nest(c.child, path[1:], inner))
    return Rule(rule.root_labels, tuple(children))


def oracle_refine_nest(
    g: KnowledgeGraph, rules: list[Rule]
) -> tuple[list[Rule], list[tuple[Rule, float]]]:
    """Nesting refinement with every pair fully evaluated: pairs in descending
    Jaccard fit of the nodes occupying the inner position and the nested rule's
    correct starts, the first composition that strictly lowers the oracle total
    replaces the pair, and the scan restarts.  Returns the final rules and the
    accepted (composed rule, new total) steps."""
    rules = list(rules)
    total = oracle_total_cost(g, rules)
    steps: list[tuple[Rule, float]] = []
    while True:
        correct = [oracle_match(g, r)[0] for r in rules]
        pairs = []
        for i, r_in in enumerate(rules):
            for path, node in _positions(r_in):
                if not path:
                    continue
                occ = set(correct[i])
                r = r_in
                for k in path:
                    occ = {w for u in occ for w in oracle_matching_neighbors(g, u, r.children[k])}
                    r = r.children[k].child
                for j, r_rt in enumerate(rules):
                    if i == j or node.root_labels != r_rt.root_labels:
                        continue
                    union = occ | correct[j]
                    jac = len(occ & correct[j]) / len(union) if union else 0.0
                    pairs.append((-jac, _name_key(g, r_in), path, _name_key(g, r_rt), i, j))
        pairs.sort()
        for _, _, path, _, i, j in pairs:
            composed = _canonical(_nest(rules[i], path, rules[j]))
            trial = list(rules)
            trial[min(i, j)] = composed
            del trial[max(i, j)]
            new_total = oracle_total_cost(g, trial)
            if new_total < total:
                rules, total = trial, new_total
                steps.append((composed, new_total))
                break
        else:
            return rules, steps


def brute_force_best_subset(
    g: KnowledgeGraph, rules: list[Rule]
) -> tuple[float, tuple[Rule, ...]]:
    """Minimum oracle total over all 2^n rule subsets, with the argmin subset."""
    best = oracle_total_cost(g, [])
    best_subset: tuple[Rule, ...] = ()
    for r in range(1, len(rules) + 1):
        for subset in combinations(rules, r):
            total = oracle_total_cost(g, list(subset))
            if total < best:
                best, best_subset = total, subset
    return best, best_subset


def oracle_auc_trapezoid(scores: list[float], labels: list[int]) -> float:
    """ROC area by the trapezoid rule, sweeping thresholds over distinct scores
    (tied scores advance TP and FP together, yielding diagonal segments)."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    pairs = sorted(zip(scores, labels), key=lambda x: -x[0])
    area = 0.0
    tp = fp = 0
    prev_tpr = prev_fpr = 0.0
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and pairs[j][0] == pairs[i][0]:
            tp += pairs[j][1]
            fp += 1 - pairs[j][1]
            j += 1
        tpr, fpr = tp / n_pos, fp / n_neg
        area += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        prev_tpr, prev_fpr = tpr, fpr
        i = j
    return area


def oracle_completeness_eval(model, truth, split: str = "test") -> tuple[float, float]:
    """Missing-entity recall read off the model's rule exceptions directly: a
    removed node is found when one of its destroyed survivors is an exception
    node of a rule with a child of the destroyed predicate and direction; the
    label-strict variant also requires that child's labels to hold on the
    removed node."""
    g = model.graph
    exception_entries: dict[int, list] = {}
    for entry in model.entries:
        for v in entry.exception_starts:
            exception_entries.setdefault(v, []).append(entry)

    records = [r for r in truth["removed"] if r["split"] == split]
    if not records:
        return 0.0, 0.0
    hits = 0
    label_hits = 0
    for rec in records:
        removed_labels = set(rec["labels"])
        recovered = False
        recovered_label = False
        for d in rec["destroyed"]:
            sid = g.node_id(d["survivor"])
            pid = g.pred_id(d["predicate"])
            direction = {"out": OUT, "in": IN}[d["direction"]]
            if sid is None or pid is None:
                continue
            for entry in exception_entries.get(sid, ()):
                for child in entry.rule.children:
                    if child.predicate != pid or child.direction != direction:
                        continue
                    recovered = True
                    child_labels = {g.label_names[l] for l in child.child.root_labels}
                    if child_labels <= removed_labels:
                        recovered_label = True
            if recovered_label:
                break
        hits += recovered
        label_hits += recovered_label
    return hits / len(records), label_hits / len(records)

"""Property tests: ``match`` and the costs built on its one pass agree with
the straight-line oracles on random graphs (self-loops included) and random
rules up to depth 3, each start's bits compared by ``==``, a canonical rule's
``canon_key`` is the oracle's name key, and each node's matching neighbours
and their edge ids are the oracles'.  Star rules get their own draws as well:
0-3 children, repeated (predicate, direction) pairs and unknown predicates
included."""

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsum.encoding import assertions_cost
from kgsum.graph import parse_graph
from kgsum.miner import _canon_key, _reach_by_start
from kgsum.rules import IN, OUT, Child, Rule, canonicalize, child_rows, evaluate, iter_positions, match

from oracles import (
    _name_key,
    as_ids,
    is_coverage_array,
    oracle_assertions_cost,
    oracle_match,
    oracle_matching_neighbors,
    oracle_star_bits,
    oracle_traversal_bits,
)


@st.composite
def graphs(draw):
    num_nodes = draw(st.integers(1, 7))
    node = st.integers(0, num_nodes - 1)
    edge = st.tuples(node, st.integers(0, 1), node)
    edges = draw(st.lists(edge, min_size=num_nodes, max_size=4 * num_nodes, unique=True))
    if not draw(st.booleans()):
        edges = [(s, p, o) for s, p, o in edges if s != o]
    label_sets = st.sets(st.integers(0, 2), min_size=1)
    labels = draw(st.lists(label_sets, min_size=num_nodes, max_size=num_nodes))
    return parse_graph(
        [f"n{s}\tp{p}\tn{o}\n" for s, p, o in edges],
        [f"n{v}\tL{l}\n" for v, ls in enumerate(labels) for l in sorted(ls)],
    )


def rules(g, depth: int):
    root = st.frozensets(st.integers(0, g.num_labels - 1), min_size=1, max_size=2)
    if depth == 1 or not g.num_preds:
        # a leaf: builds infers every field of a NamedTuple it is not given
        return st.builds(Rule, root, st.just(()))
    child = st.builds(
        Child, st.integers(0, g.num_preds - 1), st.sampled_from((OUT, IN)), rules(g, depth - 1)
    )
    return st.builds(Rule, root, st.lists(child, max_size=2).map(tuple))


@st.composite
def star_rules(draw, g):
    """A star rule of 0-3 children: one- or two-label root and children, a
    predicate of the graph or ``None`` (a name the graph lacks), and with a
    second child on the first child's (predicate, direction) now and then."""
    labels = st.frozensets(st.integers(0, g.num_labels - 1), min_size=1, max_size=2)
    predicate = st.one_of(st.none(), st.integers(0, g.num_preds - 1)) if g.num_preds else st.none()
    child = st.builds(Child, predicate, st.sampled_from((OUT, IN)), st.builds(Rule, labels, st.just(())))
    children = draw(st.lists(child, max_size=3))
    if children and len(children) < 3 and draw(st.booleans()):
        first = children[0]
        children.append(Child(first.predicate, first.direction, Rule(draw(labels))))
    return Rule(draw(labels), tuple(children))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_match_bits_and_assertions_cost_equal_the_oracles(data):
    g = data.draw(graphs())
    rule = data.draw(rules(g, 3))
    aset = match(rule, g)
    correct, exceptions, edges, labels = oracle_match(g, rule)
    assert aset.correct_starts == correct
    assert aset.exception_starts == exceptions
    assert (set(aset.covered_edge_ids), set(aset.covered_label_ids)) == as_ids(g, edges, labels)
    assert is_coverage_array(aset.covered_edge_ids, "I")
    assert is_coverage_array(aset.covered_label_ids, "I")
    passed, bits, _ = evaluate(rule, g, list(g.nodes_with_labels(rule.root_labels)))
    assert set(passed) == correct
    for s, b in zip(passed, bits):
        assert b == oracle_traversal_bits(g, s, rule)
    assert aset.traversal_bits == math.fsum(bits)
    if aset.num_assertions:
        assert assertions_cost(aset, g) == pytest.approx(oracle_assertions_cost(g, rule), rel=1e-12)
    canon = canonicalize(rule)
    assert _canon_key(canon, g) == _name_key(g, canon)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matching_neighbors_and_their_edge_ids_equal_the_oracles(data):
    # the whole row, a filtered copy or nothing, with the ids and order of a
    # scan of every edge, also for a predicate the graph lacks; the pass
    # takes the same arrays from its row reads, with one edge id per neighbour
    g = data.draw(graphs())
    want = data.draw(st.frozensets(st.integers(0, g.num_labels - 1), min_size=1, max_size=2))
    nodes = list(range(g.num_nodes))
    for p in [*range(g.num_preds), None]:
        for direction in (OUT, IN):
            child = Child(p, direction, Rule(want))
            wss, eidss = child_rows(g, child, nodes)
            _, _, [(reached, rows, ids, _)] = evaluate(Rule(frozenset(), (child,)), g, nodes)
            assert reached == nodes and rows == wss and ids == eidss
            for u, ws, eids in zip(nodes, wss, eidss):
                assert type(ws) is array and ws.typecode == "I"
                assert type(eids) is array and eids.typecode == "I"
                assert list(ws) == oracle_matching_neighbors(g, u, child)
                ends = [(u, w) if direction == OUT else (w, u) for w in ws]
                assert list(eids) == [g.edge_index(s, p, o) for s, o in ends]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_star_rules_match_and_walk_as_the_oracles_say(data):
    # stars and depth-3 rules: the partition and coverage of the brute-force
    # oracle, each correct start's bits equal (==) to the oracle's, and
    # every row a correct traversal reads among those the pass reads, each
    # of those the oracle's for its node and child (for a deeper rule the
    # pass reads more, from neighbours of failing starts)
    g = data.draw(graphs())
    rule = data.draw(st.one_of(star_rules(g), rules(g, 3)))
    aset = match(rule, g)
    correct, exceptions, edges, labels = oracle_match(g, rule)
    assert aset.correct_starts == correct
    assert aset.exception_starts == exceptions
    assert (set(aset.covered_edge_ids), set(aset.covered_label_ids)) == as_ids(g, edges, labels)
    assert is_coverage_array(aset.covered_edge_ids, "I")
    assert is_coverage_array(aset.covered_label_ids, "I")
    assert aset.traversal_bits == math.fsum(oracle_traversal_bits(g, s, rule) for s in correct)
    starts = sorted(g.nodes_with_labels(rule.root_labels))
    passed, bits, per_child = evaluate(rule, g, starts)
    assert passed == [s for s in starts if s in correct]
    assert bits == [oracle_traversal_bits(g, s, rule) for s in passed]
    lists = rows_read(rule, per_child)
    if not any(c.child.children for c in rule.children):
        # a star: exactly the rows a start-by-start traversal reads
        assert bits == [oracle_star_bits(g, s, rule) for s in passed]
        looked_up = {}
        for s in starts:
            for c in rule.children:
                ws = looked_up[(s, id(c))] = oracle_matching_neighbors(g, s, c)
                if not ws:
                    break
        assert {key: list(ws) for key, ws in lists.items()} == looked_up
    children = {id(c): c for _, r in iter_positions(rule) for c in r.children}
    for (u, key), ws in lists.items():
        assert list(ws) == oracle_matching_neighbors(g, u, children[key])
    assert visited(g, rule, correct) <= lists.keys()


def rows_read(rule, per_child) -> dict[tuple[int, int], array]:
    """The matching-neighbour row of each (node, id of the child) that an
    ``evaluate`` of ``rule`` read, from its per-child results at every level."""
    rows = {}
    for c, (reached, wss, _, sub) in zip(rule.children, per_child):
        rows.update(((u, id(c)), ws) for u, ws in zip(reached, wss))
        if sub is not None:
            rows.update(rows_read(c.child, sub))
    return rows


def visited(g, rule, starts) -> set[tuple[int, int]]:
    """The (node, id of the child) keys a traversal from each of ``starts``
    looks up, by the oracle's matching neighbours."""
    keys = set()

    def visit(u, r):
        for c in r.children:
            keys.add((u, id(c)))
            for w in oracle_matching_neighbors(g, u, c):
                visit(w, c.child)

    for s in starts:
        visit(s, rule)
    return keys


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_star_hosts_start_bits_and_reach_are_the_oracles(data):
    # refine_nest reads a host's start bits and Reach off one evaluate of its
    # sorted correct starts: each start's bits the oracle's (==), for a star
    # host and a depth-3 host, and each start's depth-1 neighbours the
    # oracle's
    g = data.draw(graphs())
    rule = data.draw(st.one_of(star_rules(g), rules(g, 3)))
    correct = sorted(oracle_match(g, rule)[0])
    passed, bits, per_child = evaluate(rule, g, array("I", correct))
    assert list(passed) == correct
    assert bits == [oracle_traversal_bits(g, s, rule) for s in correct]
    reach = _reach_by_start(rule, per_child)
    assert reach.keys() == {path for path, _ in iter_positions(rule) if path}
    for i, c in enumerate(rule.children):
        at = reach[(i,)]
        assert at.ways is None and len(at.offsets) == len(correct) + 1
        rows = [list(at.nodes[at.offsets[k]:at.offsets[k + 1]]) for k in range(len(correct))]
        assert rows == [oracle_matching_neighbors(g, s, c) for s in correct]

import random
from array import array

import pytest

from kgsum.graph import parse_graph
from kgsum.miner import model_from_dict, model_to_dict
from kgsum.rules import (
    IN,
    MAX_RULE_DEPTH,
    OUT,
    Child,
    Rule,
    RuleFormatError,
    canonicalize,
    child_rows,
    match,
    rule_from_dict,
    rule_to_dict,
)

from oracles import as_ids, is_coverage_array, oracle_match, oracle_matching_neighbors
from synth import atomic, random_kg, random_rule


def book_graph(drop_born_in=False):
    """A novel with five cast-group edges (novel as object, so the rule child
    points IN), one writer, and the writer's country of birth."""
    triples = [f"cast{i}\tfeatures\tnovel0\n" for i in range(5)]
    triples.append("novel0\twrittenBy\twriter0\n")
    if not drop_born_in:
        triples.append("writer0\tbornIn\tcountry0\n")
    labels = [f"cast{i}\tCastGroup\n" for i in range(5)]
    labels += ["novel0\tBook\n", "writer0\tAuthor\n", "country0\tCountry\n"]
    return parse_graph(triples, labels)


def book_rule(g):
    return canonicalize(
        Rule(
            frozenset({g.label_id("Book")}),
            (
                Child(g.pred_id("features"), IN, Rule(frozenset({g.label_id("CastGroup")}))),
                Child(
                    g.pred_id("writtenBy"),
                    OUT,
                    Rule(
                        frozenset({g.label_id("Author")}),
                        (Child(g.pred_id("bornIn"), OUT, Rule(frozenset({g.label_id("Country")}))),),
                    ),
                ),
            ),
        )
    )


def test_match_book_rule_correct_assertion():
    g = book_graph()
    aset = match(book_rule(g), g)
    start = g.node_id("novel0")
    assert aset.correct_starts == frozenset({start})
    assert aset.exception_starts == frozenset()
    # 5 cast edges + 1 writtenBy + 1 bornIn
    n = g.node_id
    edges = [(f"cast{i}", "features", "novel0") for i in range(5)]
    edges += [("novel0", "writtenBy", "writer0"), ("writer0", "bornIn", "country0")]
    assert set(aset.covered_edge_ids) == {g.edge_index(n(s), g.pred_id(p), n(o)) for s, p, o in edges}
    # non-root labels revealed: 5 cast groups, the writer, the country
    labels = [(f"cast{i}", "CastGroup") for i in range(5)]
    labels += [("writer0", "Author"), ("country0", "Country")]
    assert set(aset.covered_label_ids) == as_ids(g, (), {(n(v), g.label_id(l)) for v, l in labels})[1]


def test_match_book_rule_exception_when_born_in_missing():
    g = book_graph(drop_born_in=True)
    aset = match(book_rule(g), g)
    assert aset.correct_starts == frozenset()
    assert aset.exception_starts == frozenset({g.node_id("novel0")})
    assert set(aset.covered_edge_ids) == set()


def test_leaf_rule_asserts_nothing_beyond_start():
    g = parse_graph(
        ["a\tp\tb\n"],
        ["a\tX\n", "b\tX\n", "c\tX\n", "b\tY\n"],
    )
    aset = match(Rule(frozenset({g.label_id("X")})), g)
    assert aset.correct_starts == frozenset({g.node_id("a"), g.node_id("b"), g.node_id("c")})
    assert aset.exception_starts == frozenset()
    assert set(aset.covered_edge_ids) == set()
    assert set(aset.covered_label_ids) == set()
    assert aset.traversal_bits == 0


def test_unknown_ids_match_nothing():
    g = parse_graph(["a\tp\tb\n"], ["a\tX\n"])
    aset = match(Rule(frozenset({99})), g)
    assert aset.num_assertions == 0


def test_a_child_with_an_unknown_predicate_matches_nothing():
    # pred_id gives None for a name the graph lacks; such a child has no neighbors
    g = book_graph()
    book, author = g.label_id("Book"), g.label_id("Author")
    aset = match(Rule(frozenset({book}), (Child(None, OUT, Rule(frozenset({author}))),)), g)
    assert aset.correct_starts == frozenset() and aset.exception_starts == {g.node_id("novel0")}
    assert set(aset.covered_edge_ids) == set() and aset.traversal_bits == 0


def test_matching_neighbors_is_the_whole_row_a_filtered_copy_or_empty():
    g = parse_graph(
        ["a\tp\tb\n", "a\tp\tc\n", "a\tp\td\n", "e\tp\tc\n", "e\tp\tb\n", "e\tq\ta\n"],
        ["b\tX\n", "c\tX\n", "c\tY\n", "d\tY\n", "a\tW\n", "e\tW\n", "a\tZ\n"],
    )
    node, label, pred = g.node_id, g.label_id, g.pred_id
    cases = [
        # (node, predicate, direction, child labels, neighbours, whole row)
        ("e", "p", OUT, "X", "bc", True),
        ("c", "p", IN, "W", "ae", True),
        ("a", "p", OUT, "X", "bc", False),
        ("e", "p", OUT, "Y", "c", False),
        ("e", "p", OUT, "XY", "c", False),
        ("e", "q", OUT, "X", "", False),
        ("b", "p", OUT, "X", "", True),  # a node without p edges: its empty row
    ]
    for u, p, direction, labels, want, whole in cases:
        u, p = node(u), pred(p)
        child = Child(p, direction, Rule(frozenset(map(label, labels))))
        [ws], _ = child_rows(g, child, [u])
        assert type(ws) is array and ws.typecode == "I"
        assert list(ws) == list(map(node, want)) == oracle_matching_neighbors(g, u, child)
        offsets, preds, ends, _ = g.csr(direction)
        row = [w for q, w in zip(preds[offsets[u] : offsets[u + 1]], ends[offsets[u] : offsets[u + 1]]) if q == p]
        assert (list(ws) == row) == whole


def test_rule_objects_shared_between_positions_match_like_copies():
    """One Child object at two depths and one Rule object at two positions:
    shared objects are valid input, and the pass evaluates each position on
    its own, over the nodes that reach it there, so sharing must give the
    partition and coverage of the brute-force oracle, as copies would."""
    triples = ["a0\tp\tb0\n", "b0\tq\tc0\n", "a1\tp\tb1\n", "a2\tp\tb0\n", "a2\tp\tb2\n", "b0\tr\tb0\n"]
    labels = ["a0\tA\n", "a1\tA\n", "a2\tA\n", "b0\tB\n", "b1\tB\n", "b2\tB\n", "c0\tC\n"]
    g = parse_graph(triples, labels)
    a, b, c = (frozenset({g.label_id(x)}) for x in "ABC")
    p, q, r = (g.pred_id(x) for x in "pqr")
    q_c = Child(q, OUT, Rule(c))
    b_q_c = Rule(b, (q_c,))
    shared_child = Rule(a, (Child(p, OUT, Rule(b, (q_c, Child(r, OUT, b_q_c)))),))
    shared_rule = Rule(a, (Child(p, OUT, b_q_c), Child(p, OUT, Rule(b, (Child(r, IN, b_q_c),)))))
    for rule in (shared_child, shared_rule):
        aset = match(rule, g)
        correct, exceptions, edges, label_set = oracle_match(g, rule)
        assert aset.correct_starts == correct == {g.node_id("a0")}
        assert aset.exception_starts == exceptions
        assert (set(aset.covered_edge_ids), set(aset.covered_label_ids)) == as_ids(g, edges, label_set)


def test_empty_root_is_an_error():
    g = parse_graph(["a\tp\tb\n"], ["a\tX\n"])
    with pytest.raises(RuleFormatError):
        match(Rule(frozenset()), g)


def test_match_agrees_with_bruteforce_oracle():
    rng = random.Random(20240)
    for _ in range(120):
        g = random_kg(rng, allow_self_loops=True)
        rule = random_rule(rng, g, max_depth=3)
        aset = match(rule, g)
        correct, exceptions, edges, labels = oracle_match(g, rule)
        assert aset.correct_starts == correct
        assert aset.exception_starts == exceptions
        assert (set(aset.covered_edge_ids), set(aset.covered_label_ids)) == as_ids(g, edges, labels)
        assert is_coverage_array(aset.covered_edge_ids, "I")
        assert is_coverage_array(aset.covered_label_ids, "I")


def test_partition_property():
    rng = random.Random(77)
    for _ in range(60):
        g = random_kg(rng, allow_self_loops=True)
        rule = random_rule(rng, g, max_depth=2)
        aset = match(rule, g)
        starts = g.nodes_with_labels(rule.root_labels)
        assert aset.correct_starts | aset.exception_starts == frozenset(starts)
        assert not (aset.correct_starts & aset.exception_starts)


def test_adding_a_child_never_shrinks_exceptions():
    rng = random.Random(99)
    for _ in range(60):
        g = random_kg(rng)
        rule = random_rule(rng, g, max_depth=2, max_children=1)
        extra = Child(rng.randrange(g.num_preds), rng.choice((OUT, IN)), random_rule(rng, g, 1))
        bigger = Rule(rule.root_labels, rule.children + (extra,))
        assert match(rule, g).exception_starts <= match(bigger, g).exception_starts


def test_atomic_rule_semantics():
    g = parse_graph(
        ["a\tp\tb\n", "c\tp\td\n", "e\tq\tb\n"],
        ["a\tX\n", "c\tX\n", "e\tX\n", "b\tY\n", "d\tZ\n"],
    )
    rule = atomic(g.label_id("X"), g.pred_id("p"), OUT, g.label_id("Y"))
    aset = match(rule, g)
    assert aset.correct_starts == frozenset({g.node_id("a")})
    assert aset.exception_starts == frozenset({g.node_id("c"), g.node_id("e")})


def test_canonicalize_idempotent_and_order_invariant():
    rng = random.Random(5)
    g = random_kg(rng, max_nodes=6, max_labels=3, max_preds=2)
    rule = random_rule(rng, g, max_depth=3, max_children=3)
    canon = canonicalize(rule)
    assert canonicalize(canon) == canon

    def shuffled(r: Rule) -> Rule:
        kids = [Child(c.predicate, c.direction, shuffled(c.child)) for c in r.children]
        rng.shuffle(kids)
        return Rule(r.root_labels, tuple(kids))

    for _ in range(10):
        assert canonicalize(shuffled(rule)) == canon


def test_canonicalize_sorts_two_children():
    r = Rule(
        frozenset({0}),
        (Child(1, OUT, Rule(frozenset({1}))), Child(0, OUT, Rule(frozenset({1})))),
    )
    canon = canonicalize(r)
    assert [c.predicate for c in canon.children] == [0, 1]


def test_rule_serialization_round_trip():
    g = book_graph()
    rule = book_rule(g)
    data = rule_to_dict(rule, g)
    assert set(data) == {"root_labels", "children"}
    assert data["children"][0]["direction"] in ("out", "in")
    assert rule_from_dict(data, g) == rule


def test_rule_from_dict_rejects_unknowns():
    g = book_graph()
    with pytest.raises(RuleFormatError):
        rule_from_dict({"root_labels": ["Nope"], "children": []}, g)
    with pytest.raises(RuleFormatError):
        rule_from_dict({"root_labels": ["Book"], "children": [{"predicate": "zap", "direction": "out", "child": {"root_labels": ["Book"]}}]}, g)
    with pytest.raises(RuleFormatError):
        rule_from_dict({"root_labels": []}, g)


def test_rule_from_dict_rejects_rules_deeper_than_the_limit():
    # a self-loop lets a chain of any depth match, so the deepest accepted
    # rule also runs through matching, costing and re-serialization
    g = parse_graph(["a\tp\ta\n"], ["a\tX\n"])

    def chain(depth):
        data = {"root_labels": ["X"], "children": []}
        for _ in range(depth - 1):
            data = {"root_labels": ["X"], "children": [{"predicate": "p", "direction": "out", "child": data}]}
        return data

    assert rule_from_dict(chain(MAX_RULE_DEPTH), g).depth() == MAX_RULE_DEPTH
    model = model_from_dict({"rules": [{"rule": chain(MAX_RULE_DEPTH)}]}, g)
    assert set(model.entries[0].correct_starts) == {g.node_id("a")}
    assert model_to_dict(model)["rules"][0]["rule"] == chain(MAX_RULE_DEPTH)
    with pytest.raises(RuleFormatError, match="deeper than"):
        rule_from_dict(chain(MAX_RULE_DEPTH + 1), g)

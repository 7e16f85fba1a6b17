import math
import random

import pytest

from kgsum.encoding import (
    EncodingDomainError,
    assertion_overhead,
    assertions_cost,
    error_cost_counts,
    log_binomial,
    model_constant,
    rule_cost,
    universal_int,
)
from kgsum.graph import parse_graph
from kgsum.miner import build_model
from kgsum.rules import OUT, AssertionSet, Child, Rule, evaluate, match

from oracles import (
    assignment_pairs,
    modeled_edge_ids,
    modeled_label_ids,
    oracle_log_binomial,
    oracle_total_cost,
    oracle_traversal_bits,
    oracle_universal_int,
)
from synth import random_kg, random_rule


def test_universal_int_base_values():
    assert universal_int(1) == pytest.approx(1.5185673663, abs=1e-9)
    assert universal_int(2) == pytest.approx(1.5185673663 + 1.0, abs=1e-9)


def test_universal_int_monotone():
    prev = universal_int(1)
    for n in list(range(2, 2000)) + [10**4, 10**5, 10**6]:
        cur = universal_int(n)
        assert cur >= prev
        prev = cur


def test_universal_int_matches_oracle():
    for n in (1, 2, 3, 7, 16, 100, 65536, 10**6):
        assert universal_int(n) == pytest.approx(oracle_universal_int(n), rel=1e-12)


def test_universal_int_domain():
    with pytest.raises(EncodingDomainError):
        universal_int(0)


def test_log_binomial_basics():
    assert log_binomial(5, 0) == 0.0
    assert log_binomial(5, 5) == 0.0
    assert log_binomial(4, 2) == pytest.approx(math.log2(6), rel=1e-12)


def test_log_binomial_large_matches_bigint_oracle():
    assert log_binomial(10**6, 10) == pytest.approx(oracle_log_binomial(10**6, 10), rel=1e-9)
    assert log_binomial(10**15, 3) == pytest.approx(oracle_log_binomial(10**15, 3), rel=1e-9)
    assert log_binomial(10**12, 1000) == pytest.approx(oracle_log_binomial(10**12, 1000), rel=1e-9)
    assert log_binomial(10**6, 999_000) == pytest.approx(oracle_log_binomial(10**6, 999_000), rel=1e-9)


def test_log_binomial_domain():
    with pytest.raises(EncodingDomainError):
        log_binomial(3, 4)
    with pytest.raises(EncodingDomainError):
        log_binomial(3, -1)


def leaf_rule_graph():
    # |L_V|=4, |V|=10, n_X=5
    labels = [f"v{i}\tX\n" for i in range(5)]
    labels += ["v5\tA\n", "v6\tB\n", "v7\tC\n"]
    labels += [f"v{i}\tpad\n" for i in (8, 9)]
    # 'pad' makes a 4th label while keeping X at 5 carriers... adjust: A,B,C,X plus pad = 5
    return labels


def test_rule_cost_leaf_hand_value():
    # graph: |L_V|=4, |V|=10, n_X=5 -> log2 4 + log2(10/5) + L_N(1)
    labels = [f"v{i}\tX\n" for i in range(5)]
    labels += ["v5\tA\n", "v6\tB\n", "v7\tC\n", "v8\tA\n", "v9\tB\n"]
    g = parse_graph(["v0\tp\tv1\n"], labels)
    assert g.num_labels == 4 and g.num_nodes == 10
    bits = rule_cost(Rule(frozenset({g.label_id("X")})), g)
    assert bits == pytest.approx(2 + 1 + 1.5185673663, abs=1e-6)


def test_rule_cost_full_frequency_predicate_adds_direction_plus_child():
    # n_p == |E| so the predicate prefix code is free
    labels = [f"v{i}\tX\n" for i in range(5)]
    labels += ["v5\tA\n", "v6\tB\n", "v7\tC\n", "v8\tA\n", "v9\tB\n"]
    g = parse_graph(["v0\tp\tv1\n", "v1\tp\tv2\n"], labels)
    leaf = Rule(frozenset({g.label_id("X")}))
    leaf_bits = rule_cost(leaf, g)
    with_child = Rule(frozenset({g.label_id("X")}), (Child(g.pred_id("p"), OUT, leaf),))
    expected = (
        leaf_bits
        - universal_int(1)
        + universal_int(2)  # child count changes from L_N(1) to L_N(2)
        + 0.0  # -log2(n_p/|E|) with n_p == |E|
        + 1.0  # direction
        + leaf_bits
    )
    assert rule_cost(with_child, g) == pytest.approx(expected, rel=1e-12)


def test_rule_cost_invariant_under_canonicalize():
    rng = random.Random(3)
    from kgsum.rules import canonicalize

    for _ in range(40):
        g = random_kg(rng)
        rule = random_rule(rng, g, max_depth=3, max_children=3)
        assert rule_cost(rule, g) == pytest.approx(rule_cost(canonicalize(rule), g), rel=1e-12)


def test_rule_cost_exact_whatever_order_the_root_label_set_iterates():
    # 3 and 11 share a hash slot, so the two sets iterate in opposite orders;
    # for these label frequencies the two summation orders round differently
    labels = [f"n{i}\tL{i:02d}\n" for i in range(12)] + ["n3\tL11\n"]
    labels += [f"m{j}\tL03\n" for j in range(4)] + [f"k{j}\tL11\n" for j in range(4)]
    g = parse_graph([], labels)
    assert (g.label_id("L03"), g.label_id("L11")) == (3, 11)
    assert list(frozenset([3, 11])) != list(frozenset([11, 3]))
    assert rule_cost(Rule(frozenset([3, 11])), g) == rule_cost(Rule(frozenset([11, 3])), g)


def test_rule_cost_zero_frequency_symbol_is_domain_error():
    g = parse_graph(["a\tp\tb\n"], ["a\tX\n"])
    with pytest.raises(EncodingDomainError):
        rule_cost(Rule(frozenset({5})), g)


def test_assertions_cost_hand_value():
    # 3 assertions, 1 exception, 2 correct each matching exactly one neighbor
    # of a leaf child, on a 10-node graph:
    # (log2 3 + log2 C(3,1)) + 2 * (log2 10 + log2 C(9,1))
    triples = ["s0\tp\to0\n", "s1\tp\to1\n"]
    labels = ["s0\tX\n", "s1\tX\n", "s2\tX\n", "o0\tY\n", "o1\tY\n"]
    labels += [f"f{i}\tZ\n" for i in range(5)]  # pad to 10 nodes
    g = parse_graph(triples, labels)
    assert g.num_nodes == 10
    rule = Rule(
        frozenset({g.label_id("X")}),
        (Child(g.pred_id("p"), OUT, Rule(frozenset({g.label_id("Y")}))),),
    )
    aset = match(rule, g)
    assert len(aset.correct_starts) == 2 and len(aset.exception_starts) == 1
    expected = (math.log2(3) + math.log2(3)) + 2 * (math.log2(10) + math.log2(9))
    assert assertions_cost(aset, g) == pytest.approx(expected, rel=1e-12)


def test_assertions_cost_all_exceptions_allowed():
    g = parse_graph(["a\tp\tb\n"], ["a\tX\n", "c\tX\n", "b\tZ\n"])
    rule = Rule(
        frozenset({g.label_id("X")}),
        (Child(g.pred_id("p"), OUT, Rule(frozenset({g.label_id("Z")}))),),
    )
    # choose a child label no neighbor satisfies for c; a is correct, c is not
    aset = match(rule, g)
    assert aset.exception_starts == frozenset({g.node_id("c")})
    # C(n, n) term contributes 0 when all assertions are exceptions
    all_exc = AssertionSet(frozenset(), frozenset({0, 1}), set(), set(), 0.0)
    assert assertions_cost(all_exc, g) == pytest.approx(math.log2(2), rel=1e-12)


def test_assertions_cost_zero_assertions_domain_error():
    g = parse_graph(["a\tp\tb\n"], ["a\tX\n"])
    empty = AssertionSet(frozenset(), frozenset(), set(), set(), 0.0)
    with pytest.raises(EncodingDomainError):
        assertions_cost(empty, g)


def test_error_cost_hand_value():
    # |V|=3, |L_V|=2, |L_E|=1, |L|=3, |A|=2, nothing modeled
    g = parse_graph(
        ["a\tp\tb\n", "b\tp\tc\n"],
        ["a\tX\n", "b\tX\n", "c\tY\n"],
    )
    assert error_cost_counts(g, 0, 0) == pytest.approx(math.log2(20) + math.log2(36), rel=1e-12)


def test_error_cost_full_coverage_is_zero():
    g = parse_graph(["a\tp\tb\n"], ["a\tX\n", "b\tY\n"])
    assert error_cost_counts(g, g.num_label_assignments, g.num_distinct_edges) == 0.0


def test_error_cost_monotone_under_coverage_growth():
    rng = random.Random(17)
    for _ in range(30):
        g = random_kg(rng, max_nodes=8, max_labels=3, max_preds=2)
        la, ea = 0, 0
        prev = error_cost_counts(g, la, ea)
        while la < g.num_label_assignments or ea < g.num_distinct_edges:
            if la < g.num_label_assignments and (ea >= g.num_distinct_edges or rng.random() < 0.5):
                la += 1
            else:
                ea += 1
            cur = error_cost_counts(g, la, ea)
            assert cur <= prev + 1e-9
            prev = cur


def test_model_constant_and_empty_model_totals():
    g = parse_graph(["a\tp\tb\n"], ["a\tX\n", "b\tY\n"])
    model = build_model(g, [])
    assert model.total == pytest.approx(model_constant(g) + error_cost_counts(g, 0, 0), rel=1e-12)
    empty = parse_graph([], [])
    assert model_constant(empty) == 0.0


def test_total_cost_matches_straightline_oracle_randomized():
    rng = random.Random(4242)
    checked = 0
    for _ in range(40):
        g = random_kg(rng)
        rules = []
        for _ in range(rng.randint(0, 3)):
            rule = random_rule(rng, g, max_depth=rng.choice((2, 3)))
            if match(rule, g).num_assertions >= 1:
                rules.append(rule)
        model = build_model(g, rules)
        mine = model.total_bits
        theirs = oracle_total_cost(g, rules)
        assert mine == pytest.approx(theirs, rel=1e-9)
        checked += 1
    assert checked == 40


def test_match_bits_by_start_match_oracle_per_start_randomized():
    rng = random.Random(2718)
    checked = with_loops = 0
    for i in range(40):
        g = random_kg(rng, allow_self_loops=i % 2 == 1)
        with_loops += g.has_self_loop
        rule = random_rule(rng, g, max_depth=rng.choice((2, 3)))
        aset = match(rule, g)
        # the pass gives bits for correct starts only; an exception start's
        # traversal stops where it fails
        by_start = dict(zip(*evaluate(rule, g, list(g.nodes_with_labels(rule.root_labels)))[:2]))
        assert set(by_start) == aset.correct_starts
        for s in sorted(by_start):
            assert by_start[s] == oracle_traversal_bits(g, s, rule)
        # match's traversal bits are the per-start values, correctly rounded
        assert aset.traversal_bits == math.fsum(by_start.values())
        if aset.num_assertions:
            overhead = assertion_overhead(aset.num_assertions, len(aset.exception_starts))
            assert assertions_cost(aset, g) == overhead + aset.traversal_bits
        checked += len(by_start)
    assert checked > 40 and with_loops > 0


def test_constant_term_never_changes_model_ranking():
    rng = random.Random(91)
    g = random_kg(rng, max_nodes=8)
    candidate_rules = []
    for _ in range(6):
        rule = random_rule(rng, g, max_depth=2)
        if match(rule, g).num_assertions >= 1:
            candidate_rules.append(rule)
    models = [candidate_rules[:i] for i in range(len(candidate_rules) + 1)]
    with_const = [build_model(g, m).total_bits for m in models]
    without = [t - model_constant(g) for t in with_const]
    rank_a = sorted(range(len(models)), key=lambda i: with_const[i])
    rank_b = sorted(range(len(models)), key=lambda i: without[i])
    assert rank_a == rank_b


def test_lossless_accounting_invariant():
    rng = random.Random(333)
    for _ in range(20):
        g = random_kg(rng)
        rules = [random_rule(rng, g, max_depth=2) for _ in range(2)]
        rules = [r for r in rules if match(r, g).num_assertions >= 1]
        model = build_model(g, rules)
        assert 0 <= model.num_modeled_edges <= g.num_distinct_edges
        assert 0 <= model.num_modeled_labels <= g.num_label_assignments
        # one count per edge id, each an index into g.distinct_edges
        assert len(model.edge_refs) == g.num_distinct_edges
        assert model.num_modeled_edges == len(modeled_edge_ids(model))
        # one count per label-assignment id, each naming a label its node carries
        assert len(model.label_refs) == g.num_label_assignments
        assert model.num_modeled_labels == len(modeled_label_ids(model))
        pairs = assignment_pairs(g)
        for i in modeled_label_ids(model):
            node, label = pairs[i]
            assert label in g.node_labels[node]

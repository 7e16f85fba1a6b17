"""Property test: ``generate_candidates``, which expands each group of edges
with equal (subject label set, predicate, object label set) once, agrees with
the one-edge-at-a-time ``oracle_generate_candidates`` field by field, in
candidate order and in reverse partners, on random graphs with multi-label,
repeated-set and unlabelled nodes and self-loops, with and without a label
cap.  Each coverage is a strictly increasing id array, and a candidate and
its reverse partner share one edge-id array."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgsum.graph import parse_graph
from kgsum.rules import IN, OUT
from kgsum.miner import generate_candidates

from oracles import (
    _name_key,
    as_ids,
    is_coverage_array,
    oracle_generate_candidates,
    oracle_log_binomial,
    oracle_rule_cost,
)
from synth import atomic


def build(edges, labels):
    return parse_graph(
        [f"n{s}\tp{p}\tn{o}\n" for s, p, o in edges],
        [f"n{v}\tL{l}\n" for v, ls in enumerate(labels) for l in sorted(ls)],
    )


@st.composite
def graphs(draw):
    num_nodes = draw(st.integers(1, 8))
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, st.integers(0, 1), node), min_size=1,
                          max_size=4 * num_nodes, unique=True))
    # a few label sets that several nodes share, beside one-off and empty sets
    shared = draw(st.lists(st.frozensets(st.integers(0, 3), min_size=1), min_size=1, max_size=3))
    label_set = st.one_of(st.sampled_from(shared), st.frozensets(st.integers(0, 3), max_size=3))
    labels = draw(st.lists(label_set, min_size=num_nodes, max_size=num_nodes))
    return build(edges, labels)


# multi-label, repeated-set and unlabelled nodes and two self-loops
EVERY_KIND = build(
    [(0, 0, 1), (2, 0, 1), (1, 1, 1), (3, 0, 0), (4, 1, 2), (0, 0, 0), (1, 0, 4)],
    [{0, 1}, {2}, {0, 1}, set(), {1, 2, 3}],
)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.one_of(st.none(), st.integers(1, 4)))
@example(EVERY_KIND, None)
@example(EVERY_KIND, 1)
@example(EVERY_KIND, 2)
def test_generate_candidates_equals_the_per_edge_oracle(g, label_cap):
    got = generate_candidates(g, label_cap=label_cap)
    want = oracle_generate_candidates(g, label_cap=label_cap)
    assert [c.rule for c in got] == [atomic(*w.key) for w in want]

    position = {w.key: i for i, w in enumerate(want)}
    for c, w in zip(got, want):
        assert set(c.correct_starts) == set(w.start_matches)
        assert c.num_assertions == sum(w.root in ls for ls in g.node_labels)
        assert set(c.covered_edge_ids) == w.edge_ids
        assert set(c.covered_label_ids) == as_ids(g, (), w.labels)[1]
        assert is_coverage_array(c.covered_edge_ids, "I")
        assert is_coverage_array(c.covered_label_ids, "I")
        # exact: both sum the same per-start terms with math.fsum
        assert c.traversal_bits == w.traversal_bits
        assert c.rule_bits == pytest.approx(oracle_rule_cost(g, c.rule), rel=1e-12)
        n = c.num_assertions
        overhead = math.log2(n) + oracle_log_binomial(n, n - len(w.start_matches))
        assert c.assertion_bits == pytest.approx(overhead + w.traversal_bits, rel=1e-12)
        assert c.model_bits == c.rule_bits + c.assertion_bits
        assert c.root_key == g.label_names[w.root]
        assert c.canon_key == _name_key(g, c.rule)
        assert c.exception_starts is None
        flipped = (w.child, w.predicate, IN if w.direction == OUT else OUT, w.root)
        assert c.reverse_partner is got[position[flipped]]
        # a pattern and its reverse are fed by the same edges: one array serves both
        assert c.covered_edge_ids is c.reverse_partner.covered_edge_ids

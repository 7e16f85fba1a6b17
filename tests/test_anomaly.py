import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsum.anomaly import AnomalyScorer, UnknownNodeError, missing_reports, rank_edges
from kgsum.encoding import assertion_overhead
from kgsum.encoding import log_binomial
from kgsum.evalharness import freq_select
from kgsum.graph import parse_graph
from kgsum.miner import build_model, generate_candidates, qualify_all, rank, refine_merge, refine_nest, summarize
from kgsum.rules import OUT, match

from oracles import oracle_missing_reports
from synth import atomic, random_kg, random_owned_kg, random_rule


def eight_assertion_graph():
    """Seven A nodes with the p->B edge, one without: 8 assertions, 1 exception."""
    triples = [f"a{i}\tp\tb{i}\n" for i in range(7)]
    labels = [f"a{i}\tA\n" for i in range(8)] + [f"b{i}\tB\n" for i in range(7)]
    return parse_graph(triples, labels)


def test_node_score_zero_without_violations():
    g = eight_assertion_graph()
    model = build_model(g, [atomic(g.label_id("A"), g.pred_id("p"), OUT, g.label_id("B"))])
    scorer = AnomalyScorer(model)
    assert scorer.node_score(g.node_id("a0")) == 0.0
    assert scorer.node_score(g.node_id("b3")) == 0.0


def test_node_score_sole_exception_of_eight():
    g = eight_assertion_graph()
    model = build_model(g, [atomic(g.label_id("A"), g.pred_id("p"), OUT, g.label_id("B"))])
    score = AnomalyScorer(model).node_score(g.node_id("a7"))
    assert score == pytest.approx(math.log2(8), rel=1e-12)  # 3 bits


def test_node_score_shares_distribute_fully():
    # three exceptions split log2 C(10, 3) equally
    triples = [f"a{i}\tp\tb{i}\n" for i in range(7)]
    labels = [f"a{i}\tA\n" for i in range(10)] + [f"b{i}\tB\n" for i in range(7)]
    g = parse_graph(triples, labels)
    model = build_model(g, [atomic(g.label_id("A"), g.pred_id("p"), OUT, g.label_id("B"))])
    exceptions = [g.node_id(f"a{i}") for i in (7, 8, 9)]
    scorer = AnomalyScorer(model)
    shares = [scorer.node_score(v) for v in exceptions]
    assert sum(shares) == pytest.approx(log_binomial(10, 3), rel=1e-12)
    assert all(s == pytest.approx(shares[0], rel=1e-12) for s in shares)


def test_node_score_unknown_node_errors():
    g = eight_assertion_graph()
    model = build_model(g, [])
    with pytest.raises(UnknownNodeError):
        AnomalyScorer(model).node_score(10**6)


def test_edge_scores_modeled_vs_unmodeled():
    g = parse_graph(
        [f"a{i}\tp\tb{i}\n" for i in range(6)] + ["x\tq\ty\n", "y\tq\tx\n"],
        [f"a{i}\tA\n" for i in range(6)]
        + [f"b{i}\tB\n" for i in range(6)]
        + ["x\tC\n", "y\tC\n"],
    )
    rule = atomic(g.label_id("A"), g.pred_id("p"), OUT, g.label_id("B"))
    model = build_model(g, [rule])
    scorer = AnomalyScorer(model)

    modeled = (g.node_id("a0"), g.pred_id("p"), g.node_id("b0"))
    assert scorer.edge_score(*modeled) == 0.0

    # x and y violate no rule, so an edge between them scores the share alone
    unmodeled = (g.node_id("x"), g.pred_id("q"), g.node_id("y"))
    assert scorer.node_score(unmodeled[0]) == scorer.node_score(unmodeled[2]) == 0.0
    share = scorer.edge_score(*unmodeled)
    assert share > 0

    # the uniform share distributes the negative-error term exactly
    remaining = g.num_distinct_edges - model.num_modeled_edges
    assert remaining * share == pytest.approx(
        log_binomial(g.universe_edges - model.num_modeled_edges, remaining), rel=1e-12
    )

    # two unmodeled edges differ only through their endpoint scores
    other = (g.node_id("y"), g.pred_id("q"), g.node_id("x"))
    diff = scorer.edge_score(*other) - scorer.edge_score(*unmodeled)
    endpoint_diff = (
        scorer.node_score(other[0])
        + scorer.node_score(other[2])
        - scorer.node_score(unmodeled[0])
        - scorer.node_score(unmodeled[2])
    )
    assert diff == pytest.approx(endpoint_diff, abs=1e-12)


def test_edge_score_outside_graph_is_unmodeled():
    triples = [f"a{i}\tp\tb{i}\n" for i in range(7)] + ["x\tq\ty\n"]
    labels = [f"a{i}\tA\n" for i in range(8)] + [f"b{i}\tB\n" for i in range(7)]
    labels += ["x\tC\n", "y\tC\n"]
    g = parse_graph(triples, labels)
    rule = atomic(g.label_id("A"), g.pred_id("p"), OUT, g.label_id("B"))
    model = build_model(g, [rule])
    scorer = AnomalyScorer(model)
    absent = (g.node_id("b0"), g.pred_id("p"), g.node_id("b1"))
    assert g.edge_index(*absent) is None
    # x and y violate no rule, so the edge between them scores the share alone
    share = scorer.edge_score(g.node_id("x"), g.pred_id("q"), g.node_id("y"))
    assert scorer.node_score(g.node_id("x")) == scorer.node_score(g.node_id("y")) == 0.0
    assert scorer.edge_score(*absent) >= share > 0


def test_node_score_consistent_with_applicability():
    g = eight_assertion_graph()
    rule = atomic(g.label_id("A"), g.pred_id("p"), OUT, g.label_id("B"))
    model = build_model(g, [rule])
    applies = {}  # r(v): the model rules whose root labels v carries
    for e in model.entries:
        for v in sorted(g.nodes_with_labels(e.rule.root_labels)):
            applies.setdefault(v, []).append(e.rule)
    entry = model.entries[0]
    scorer = AnomalyScorer(model)
    share = (
        (assertion_overhead(entry.num_assertions, entry.num_exceptions) - math.log2(entry.num_assertions))
        / entry.num_exceptions
    )
    for v, rules in applies.items():
        expected = share if (rules and v in entry.exception_starts) else 0.0
        assert scorer.node_score(v) == pytest.approx(expected, rel=1e-12)


def test_rank_edges_stable_on_ties_and_orders_by_score():
    g = eight_assertion_graph()
    rule = atomic(g.label_id("A"), g.pred_id("p"), OUT, g.label_id("B"))
    model = build_model(g, [rule])

    modeled = list(g.distinct_edges[:4])
    ranked = rank_edges(modeled, model)
    assert [r[:3] for r in ranked] == modeled  # all-zero scores keep input order

    injected = (g.node_id("a7"), g.pred_id("p"), g.node_id("a0"))  # not in the graph
    mixed = modeled[:2] + [injected] + modeled[2:]
    ranked = rank_edges(mixed, model)
    assert ranked[0][:3] == injected
    assert ranked[0][3] > 0
    assert [r[:3] for r in ranked[1:]] == modeled


def random_model(seed: int, source: str):
    """A model of a random graph: ``summarize`` on an ownership graph, and on
    a random multi-label graph, where select keeps nothing, every ranked
    candidate merged and nested (``nest``), the top candidates by frequency
    (``freq``) or random rules up to depth 3 that apply (``rules``)."""
    rng = random.Random(seed)
    if source == "summarize":
        return summarize(random_owned_kg(rng))
    g = random_kg(rng, max_nodes=10, max_labels=3, max_preds=2, edge_factor=rng.choice((1.0, 2.0)))
    if source == "nest":
        model = build_model(g, [c.rule for c in rank(qualify_all(generate_candidates(g), g), g)])
        return refine_nest(refine_merge(model, g), g)
    if source == "freq":
        return freq_select(qualify_all(generate_candidates(g), g), g, rng.randint(1, 8))
    rules = [random_rule(rng, g, max_depth=rng.choice((2, 3))) for _ in range(rng.randint(1, 5))]
    return build_model(g, [r for r in rules if match(r, g).num_assertions])


SOURCES = ("summarize", "nest", "freq", "rules")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SOURCES))
def test_missing_reports_equal_the_oracle_row_for_row(seed, source):
    model = random_model(seed, source)
    assert missing_reports(model) == oracle_missing_reports(model)


def test_missing_report_cases_report_rows_from_every_model_source():
    # the property's draws report rows, some a node missing two children
    for source in SOURCES:
        reports = [missing_reports(random_model(seed, source)) for seed in range(30)]
        assert sum(map(bool, reports)) >= 10, source
        assert any(len({r["node"] for r in rows}) < len(rows) for rows in reports), source

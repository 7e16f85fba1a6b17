"""Anomaly scores and missing-information reports derived from a mined model.

A node's score is its share of the exception-id bits of every applicable rule
it violates.  An edge's score adds its endpoints' scores to a uniform share of
the unmodeled-edge transmission cost when the edge is not explained by the
model; edges outside the graph are unexplained by definition.  A rule's
exception node that lacks a child outright is reported as missing that child.
"""

from __future__ import annotations

from . import encoding
from .miner import Model
from .rules import DIRECTION_NAMES, child_rows


class UnknownNodeError(KeyError):
    """A score was requested for a node id the graph does not contain."""


class AnomalyScorer:
    """Precomputed score tables for one (graph, model) pair."""

    def __init__(self, model: Model):
        self.model = model
        g = model.graph
        self._node_bits: dict[int, float] = {}
        for entry in model.entries:
            if not entry.exception_starts:
                continue
            share = (
                encoding.log_binomial(entry.num_assertions, entry.num_exceptions)
                / entry.num_exceptions
            )
            for v in entry.exception_starts:
                self._node_bits[v] = self._node_bits.get(v, 0.0) + share
        unmodeled = g.num_distinct_edges - model.num_modeled_edges
        if unmodeled > 0:
            self._edge_share = (
                encoding.log_binomial(
                    g.universe_edges - model.num_modeled_edges, unmodeled
                )
                / unmodeled
            )
        else:
            self._edge_share = 0.0

    def node_score(self, v: int) -> float:
        if not 0 <= v < self.model.graph.num_nodes:
            raise UnknownNodeError(v)
        return self._node_bits.get(v, 0.0)

    def edge_score(self, s: int, p: int, o: int) -> float:
        g = self.model.graph
        eid = g.edge_index(s, p, o)
        modeled = eid is not None and self.model.edge_refs[eid] > 0
        share = 0.0 if modeled else self._edge_share
        return self.node_score(s) + self.node_score(o) + share


def rank_edges(
    test_edges: list[tuple[int, int, int]], model: Model
) -> list[tuple[int, int, int, float]]:
    """Score and sort descending; ties keep input order (stable sort)."""
    scorer = AnomalyScorer(model)
    scored = [(s, p, o, scorer.edge_score(s, p, o)) for s, p, o in test_edges]
    return sorted(scored, key=lambda row: -row[3])


def missing_reports(model: Model) -> list[dict]:
    """Where entities are missing: for each exception node of a rule and each
    of the rule's children with no matching neighbour there, one row naming
    the node, the child's predicate and direction, its labels
    (``expected_labels``) and the node's score (``score_bits``).  A row is
    reported once however many rules ask for it; rows sort by descending
    score, then node, predicate and direction, ties in the order first met.
    Each rule's exception starts have their rows for a child read in one
    ``child_rows`` call."""
    g = model.graph
    scorer = AnomalyScorer(model)
    rows: dict[tuple, dict] = {}
    for entry in model.entries:
        if not entry.exception_starts:
            continue  # read no rows, and build no index, for a rule without exceptions
        starts = list(entry.exception_starts)
        for child in entry.rule.children:
            wss, _ = child_rows(g, child, starts)
            for v, ws in zip(starts, wss):
                if ws:
                    continue  # this child is satisfied; the failure is elsewhere
                key = (
                    g.node_names[v],
                    g.pred_names[child.predicate],
                    DIRECTION_NAMES[child.direction],
                    tuple(sorted(g.label_names[l] for l in child.child.root_labels)),
                )
                rows.setdefault(
                    key,
                    {
                        "node": key[0],
                        "predicate": key[1],
                        "direction": key[2],
                        "expected_labels": list(key[3]),
                        "score_bits": scorer.node_score(v),
                    },
                )
    return sorted(
        rows.values(),
        key=lambda r: (-r["score_bits"], r["node"], r["predicate"], r["direction"]),
    )

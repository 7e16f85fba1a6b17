"""MDL rule summaries for labeled knowledge multigraphs.

Mine a concise set of recursive graph-pattern rules that best compress a
knowledge graph, then use the summary to rank anomalous edges and report
where entities are missing.
"""

__version__ = "0.1.0"

from .graph import KnowledgeGraph, StatsReport, load_graph, parse_graph, stats
from .rules import AssertionSet, Child, Rule, canonicalize, match
from .encoding import log_binomial, universal_int
from .miner import Model, generate_candidates, qualify, rank, refine_merge, refine_nest, select, summarize
from .anomaly import AnomalyScorer, rank_edges
from .evalharness import (
    GroundTruth,
    MetricsReport,
    PerturbationSpec,
    completeness_eval,
    coverage_select,
    freq_select,
    metrics,
    perturb,
    remove_nodes_pca,
)

__all__ = [
    "AnomalyScorer",
    "AssertionSet",
    "Child",
    "GroundTruth",
    "KnowledgeGraph",
    "MetricsReport",
    "Model",
    "PerturbationSpec",
    "Rule",
    "StatsReport",
    "canonicalize",
    "completeness_eval",
    "coverage_select",
    "freq_select",
    "generate_candidates",
    "load_graph",
    "log_binomial",
    "match",
    "metrics",
    "parse_graph",
    "perturb",
    "qualify",
    "rank",
    "rank_edges",
    "refine_merge",
    "refine_nest",
    "remove_nodes_pca",
    "select",
    "stats",
    "summarize",
    "universal_int",
]

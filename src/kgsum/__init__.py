"""MDL rule summaries for labeled knowledge multigraphs.

Mine a concise set of recursive graph-pattern rules that best compress a
knowledge graph, then use the summary to rank anomalous edges and report
where entities are missing.

The names below are imported from their modules on first access (PEP 562),
so ``import kgsum.graph`` loads the graph module alone.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    "AnomalyScorer": "anomaly",
    "AssertionSet": "rules",
    "Child": "rules",
    "KnowledgeGraph": "graph",
    "Model": "miner",
    "Rule": "rules",
    "canonicalize": "rules",
    "check_truth": "evalharness",
    "completeness_eval": "evalharness",
    "coverage_select": "evalharness",
    "freq_select": "evalharness",
    "generate_candidates": "miner",
    "load_graph": "graph",
    "log_binomial": "encoding",
    "match": "rules",
    "metrics": "evalharness",
    "missing_reports": "anomaly",
    "parse_graph": "graph",
    "perturb": "evalharness",
    "qualify": "miner",
    "rank": "miner",
    "rank_edges": "anomaly",
    "refine_merge": "miner",
    "refine_nest": "miner",
    "remove_nodes_pca": "evalharness",
    "select": "miner",
    "summarize": "miner",
    "universal_int": "encoding",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

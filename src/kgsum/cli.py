"""Batch command-line interface.

Subcommands: ``summarize`` (mine a rule model and write the model report),
``score`` (rank test edges by anomaly score), ``complete`` (report where
entities are missing, ``anomaly.missing_reports``), ``perturb`` (inject
anomalies or PCA-remove nodes), and ``evaluate`` (metrics for a ranking, or
the recall of ``complete``'s reports against a PCA removal).

Machine-readable reports go to the ``--out`` path; progress, timings, and
human-readable summaries go to stderr.  Every command is deterministic given
its arguments; ``perturb`` alone draws random numbers, from ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .anomaly import missing_reports, rank_edges
from .graph import KnowledgeGraph, _fields, _open_text, load_graph, short_repr, write_graph
from .miner import (
    ConfigError,
    Model,
    generate_candidates,
    model_from_dict,
    model_to_dict,
    qualify_all,
    summarize,
    timed,
)
from .rules import RuleFormatError


def _log(msg: str) -> None:
    print(f"[kgsum] {msg}", file=sys.stderr)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_inputs(args) -> KnowledgeGraph:
    with timed("load", _log):
        g = load_graph(args.graph, args.labels)
    _log(
        f"graph: {g.num_nodes} nodes, {g.num_edges} edges "
        f"({g.num_distinct_edges} distinct), {g.num_labels} labels, {g.num_preds} predicates"
    )
    return g


def _read_json(path: str, error: type[ValueError]):
    """The JSON document at ``path``; text that does not decode as JSON, a
    number too long to convert and nesting too deep to decode raise
    ``error`` naming ``path``.  Bytes that are not UTF-8 reach
    ``_open_text``, which names the file and the line."""
    with _open_text(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per nested container
            raise error(f"{path}: too deeply nested to decode") from None
        except UnicodeDecodeError:
            raise
        except ValueError as exc:  # json.JSONDecodeError, or int()'s digit limit
            raise error(f"{path}: {exc}") from None


def _load_model(args, g: KnowledgeGraph) -> Model:
    doc = _read_json(args.model, RuleFormatError)
    with timed("apply model", _log):
        model = model_from_dict(doc, g)
    return model


def _cmd_summarize(args) -> int:
    # the MDL selector's options, each left to summarize's default when not given
    mdl_options = {
        name: value
        for name, value in (("refine", args.refine), ("max_passes", args.max_passes))
        if value is not None
    }
    if args.selector == "mdl" and args.top_k is not None:
        raise ConfigError("--top-k is for the freq and coverage selectors")
    if args.selector != "mdl" and mdl_options:
        raise ConfigError("--refine and --max-passes are for the mdl selector")
    g = _load_inputs(args)
    if args.selector == "mdl":
        model = summarize(g, label_cap=args.label_cap, log=_log, **mdl_options)
    else:
        if args.top_k is None:
            raise ConfigError(f"--selector {args.selector} requires --top-k")
        from .evalharness import coverage_select, freq_select
        with timed("generate", _log):
            cands = generate_candidates(g, label_cap=args.label_cap)
        with timed("qualify", _log):
            cands = qualify_all(cands, g)
        pick = freq_select if args.selector == "freq" else coverage_select
        with timed(args.selector, _log):
            model = pick(cands, g, args.top_k)
    doc = model_to_dict(model)
    _write_json(args.out, doc)
    _log(
        f"{len(model.entries)} rules, {doc['pct_bits_vs_empty']:.2f}% bits vs empty, "
        f"{doc['pct_edges_explained']:.2f}% edges explained"
    )
    return 0


def _read_test_edges(path: str, g: KnowledgeGraph) -> list[tuple[int, int, int]]:
    rows: list[tuple[int, int, int]] = []
    with _open_text(path) as fh:
        for line_no, parts in _fields(path, fh, 3):
            s, p, o = parts
            sid, pid, oid = g.node_id(s), g.pred_id(p), g.node_id(o)
            if sid is None or pid is None or oid is None:
                raise ValueError(f"{path}, line {line_no}: unknown identifier in {short_repr(parts)}")
            rows.append((sid, pid, oid))
    return rows


def _cmd_score(args) -> int:
    g = _load_inputs(args)
    model = _load_model(args, g)
    edges = _read_test_edges(args.test_edges, g)
    with timed("score", _log):
        ranked = rank_edges(edges, model)
    with open(args.out, "w", encoding="utf-8") as fh:
        for s, p, o, score in ranked:
            fh.write(f"{g.node_names[s]}\t{g.pred_names[p]}\t{g.node_names[o]}\t{score!r}\n")
    _log(f"ranked {len(ranked)} edges")
    return 0


def _cmd_complete(args) -> int:
    g = _load_inputs(args)
    model = _load_model(args, g)
    with timed("complete", _log):
        rows = missing_reports(model)
    _write_json(args.out, {"missing": rows})
    _log(f"{len(rows)} missing-information reports")
    return 0


def _cmd_perturb(args) -> int:
    from .evalharness import ANOMALY_TYPES, evaluation_edges, perturb, remove_nodes_pca

    if args.pca and args.anomalies is not None:
        raise ConfigError("--anomalies chooses injected anomaly types; --pca injects none")
    g = _load_inputs(args)
    os.makedirs(args.out, exist_ok=True)
    if args.pca:
        with timed("remove nodes (pca)", _log):
            new_g, truth = remove_nodes_pca(g, args.q, seed=args.seed)
    else:
        types = ANOMALY_TYPES if args.anomalies is None else tuple(args.anomalies.split(","))
        with timed("perturb", _log):
            new_g, truth = perturb(g, args.q, types, seed=args.seed)
    write_graph(new_g, os.path.join(args.out, "triples.tsv"), os.path.join(args.out, "labels.tsv"))
    _write_json(os.path.join(args.out, "truth.json"), truth)
    if not args.pca:
        with open(os.path.join(args.out, "test_edges.tsv"), "w", encoding="utf-8") as fh:
            for s, p, o in evaluation_edges(truth):
                fh.write(f"{s}\t{p}\t{o}\n")
        _log(f"{len(truth['positives'])} perturbed edges, {len(truth['negatives'])} clean samples")
    else:
        _log(f"removed {len(truth['removed'])} nodes")
    return 0


def _read_ranking(path: str) -> list[tuple[str, str, str, float]]:
    rows: list[tuple[str, str, str, float]] = []
    with _open_text(path) as fh:
        for line_no, (s, p, o, text) in _fields(path, fh, 4):
            try:
                score = float(text)
            except ValueError:
                score = math.nan
            if math.isnan(score):
                raise ValueError(f"{path}, line {line_no}: score {short_repr(text)} is not a number")
            rows.append((s, p, o, score))
    return rows


def _cmd_evaluate(args) -> int:
    from .evalharness import MetricsError, check_truth, completeness_eval, metrics

    truth = check_truth(_read_json(args.truth, MetricsError))
    if truth["kind"] == "perturbation":
        if not args.ranking:
            raise ConfigError("evaluate with perturbation truth requires --ranking")
        if args.model or args.graph or args.labels:
            raise ConfigError("--model, --graph and --labels are for pca_removal truth")
        doc = {"kind": "perturbation", **metrics(_read_ranking(args.ranking), truth)}
    elif truth["kind"] == "pca_removal":
        if not (args.model and args.graph and args.labels):
            raise ConfigError("evaluate with pca_removal truth requires --model, --graph, --labels")
        if args.ranking:
            raise ConfigError("--ranking is for perturbation truth")
        g = _load_inputs(args)
        model = _load_model(args, g)
        recall, recall_label = completeness_eval(model, truth)
        doc = {"kind": "pca_removal", "recall": recall, "recall_label": recall_label}
    else:
        raise ConfigError(f"unknown truth kind {short_repr(truth['kind'])}")
    _write_json(args.out, doc)
    _log(f"evaluation written to {args.out}")
    return 0


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="triple file (s<TAB>p<TAB>o per line)")
    p.add_argument("--labels", required=True, help="label file (node<TAB>label per line)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgsum",
        description="MDL rule summaries for knowledge graphs: compress, rank anomalies, report gaps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="mine an MDL rule model and write the model report")
    _add_graph_args(p)
    p.add_argument("--out", required=True, help="output model file (JSON)")
    p.add_argument(
        "--refine",
        choices=["none", "merge", "nest"],
        default=None,
        help="refinement level; nest implies merge (default: nest)",
    )
    p.add_argument("--max-passes", type=int, default=None, help="selection passes (default 3)")
    p.add_argument(
        "--label-cap",
        type=int,
        default=None,
        help="restrict candidate generation to the N >= 1 most frequent labels",
    )
    p.add_argument(
        "--selector",
        choices=["mdl", "freq", "coverage"],
        default="mdl",
        help="rule selector; freq/coverage are the non-MDL top-k baselines",
    )
    p.add_argument(
        "--top-k",
        type=int,
        default=None,
        help="rule budget for the freq/coverage selectors",
    )
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("score", help="rank test edges by anomaly score")
    _add_graph_args(p)
    p.add_argument("--model", required=True, help="model file from summarize")
    p.add_argument("--test-edges", required=True, help="TSV of edges to score (s<TAB>p<TAB>o)")
    p.add_argument("--out", required=True, help="output ranking TSV (s, p, o, score)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("complete", help="report missing-entity locations from rule exceptions")
    _add_graph_args(p)
    p.add_argument("--model", required=True, help="model file from summarize")
    p.add_argument("--out", required=True, help="output report (JSON)")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("perturb", help="inject anomalies or remove nodes under the PCA")
    _add_graph_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--q", type=float, required=True, help="fraction of nodes to sample per type")
    p.add_argument(
        "--anomalies",
        default=None,  # every type in evalharness.ANOMALY_TYPES, which is imported only to perturb
        help="comma-separated anomaly types among a1,a2,a3,a4 (default: all)",
    )
    p.add_argument(
        "--pca",
        action="store_true",
        help="remove nodes and enforce the partial completeness assumption instead of injecting",
    )
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("evaluate", help="compute metrics for a ranking or completeness run")
    p.add_argument("--truth", required=True, help="ground-truth file from perturb")
    p.add_argument("--ranking", help="ranking TSV from score (perturbation truth)")
    p.add_argument("--model", help="model file (pca_removal truth)")
    p.add_argument("--graph", help="triple file (pca_removal truth)")
    p.add_argument("--labels", help="label file (pca_removal truth)")
    p.add_argument("--out", required=True, help="output metrics report (JSON)")
    p.set_defaults(func=_cmd_evaluate)
    return parser


# every error the package raises for bad input subclasses ValueError, as do
# json.JSONDecodeError and UnicodeDecodeError
_ERRORS = (OSError, ValueError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

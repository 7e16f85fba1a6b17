"""Experiment machinery: anomaly injection, PCA node removal, non-MDL baseline
selectors, ranking metrics, and missing-entity recall.

All randomized procedures are deterministic functions of (graph, parameters,
seed); derived random streams are seeded with strings so independent stages
never share state.

Ground truth is the dict that ``kgsum perturb`` writes to ``truth.json``:
``kind``, ``q`` and ``seed``, then ``types``, ``positives`` and ``negatives``
(edge records with a val/test ``split``) from ``perturb``, or ``removed`` (per
removed node, the assertions its removal destroyed at surviving neighbors)
from ``remove_nodes_pca``.  ``check_truth`` validates one read back from a
file; ``metrics`` returns the report that ``kgsum evaluate`` writes.
"""

from __future__ import annotations

import math
import random
import warnings

from .anomaly import missing_reports
from .graph import KnowledgeGraph, short_repr
from .miner import ConfigError, Model, RuleEntry
from .rules import DIRECTION_NAMES, IN, OUT

ANOMALY_TYPES = ("a1", "a2", "a3", "a4")
VALIDATION_FRACTION = 0.2


class PerturbationError(ValueError):
    """The requested perturbation cannot be applied to this graph."""


class MetricsError(ValueError):
    """Metrics are undefined for the given ranking/truth combination."""


def check_truth(doc) -> dict:
    """``doc`` as a ground-truth document whose ``q`` is a number in (0, 1]
    and whose ``seed`` is an integer, as ``perturb`` writes them, and whose
    record lists hold the fields the evaluation reads, each absent record list
    set to ``[]``; raises ``MetricsError`` otherwise."""
    if not isinstance(doc, dict) or not {"kind", "q", "seed"} <= doc.keys():
        raise MetricsError("ground truth must be an object with kind, q and seed")
    q = doc["q"]
    if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0 < q <= 1:
        raise MetricsError(f"truth 'q' must be a number in (0, 1], got {short_repr(q)}")
    seed = doc["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise MetricsError(f"truth 'seed' must be an integer, got {short_repr(seed)}")
    if not _strings(doc.get("types", [])):
        raise MetricsError("truth 'types' must be a list of strings")
    records = {name: _records(doc, name) for name in ("positives", "negatives", "removed")}
    for r in records["removed"]:
        if any(d["direction"] not in DIRECTION_NAMES for d in _records(r, "destroyed")):
            raise MetricsError("a destroyed entry's direction must be 'out' or 'in'")
    return {**doc, **records}


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _is(t: type):
    return lambda value: isinstance(value, t)


# each record list of a truth document, with the fields the evaluation reads
# and a check of each field's value
_RECORD_FIELDS = {
    "positives": {"s": _is(str), "p": _is(str), "o": _is(str), "types": _strings, "split": _is(str)},
    "negatives": {"s": _is(str), "p": _is(str), "o": _is(str), "split": _is(str)},
    "removed": {"labels": _strings, "split": _is(str), "destroyed": _is(list)},
    "destroyed": {"survivor": _is(str), "predicate": _is(str), "direction": _is(str)},
}


def _records(doc: dict, name: str) -> list[dict]:
    rows, fields = doc.get(name, []), _RECORD_FIELDS[name]
    if not isinstance(rows, list) or not all(
        isinstance(r, dict) and all(ok(r.get(k)) for k, ok in fields.items()) for r in rows
    ):
        raise MetricsError(f"truth {name!r} must be a list of objects with {', '.join(fields)}")
    return rows


def _check_q(q: float) -> None:
    if not 0.0 < q <= 1.0:
        raise PerturbationError(f"q must be in (0, 1], got {q}")


def _sample_count(q: float, num_nodes: int) -> int:
    if q * num_nodes < 1:
        raise PerturbationError(f"q={q} samples less than one of {num_nodes} nodes")
    return math.ceil(q * num_nodes)


def _assign_splits(count: int, seed: int, stream: str) -> list[str]:
    order = list(range(count))
    random.Random(f"{seed}:{stream}").shuffle(order)
    n_val = int(VALIDATION_FRACTION * count)
    val = set(order[:n_val])
    return ["val" if i in val else "test" for i in range(count)]


def _rebuild(g: KnowledgeGraph, triples: list[tuple[int, int, int]], labels: list[set[int]]) -> KnowledgeGraph:
    tl = (f"{g.node_names[s]}\t{g.pred_names[p]}\t{g.node_names[o]}\n" for s, p, o in triples)
    ll = (
        f"{g.node_names[v]}\t{name}\n"
        for v in range(g.num_nodes)
        if labels[v]
        for name in sorted(g.label_names[l] for l in labels[v])
    )
    return KnowledgeGraph(tl, ll, triple_source="<perturbed>", label_source="<perturbed>")


def perturb(
    g: KnowledgeGraph, q: float, types: tuple[str, ...] = ANOMALY_TYPES, seed: int = 0
) -> tuple[KnowledgeGraph, dict]:
    """Inject the requested anomaly types, each hitting an independent uniform
    sample of ceil(q*|V|) nodes, and record ground truth with an equal-size
    clean-edge sample and a val/test split."""
    _check_q(q)
    if not types or any(t not in ANOMALY_TYPES for t in types):
        raise PerturbationError(f"anomaly types must be drawn from {ANOMALY_TYPES}, got {types}")
    if g.num_nodes == 0:
        raise PerturbationError("cannot perturb an empty graph")
    n_sample = _sample_count(q, g.num_nodes)
    rng = random.Random(f"{seed}:perturb")

    labels = [set(s) for s in g.node_labels]
    triples = list(g.edges)
    incident: dict[int, set[tuple[int, int, int]]] = {}
    for t in g.distinct_edges:
        incident.setdefault(t[0], set()).add(t)
        incident.setdefault(t[2], set()).add(t)

    perturbed: dict[tuple[int, int, int], list[str]] = {}

    def mark(triple: tuple[int, int, int], atype: str) -> None:
        types = perturbed.setdefault(triple, [])
        if atype not in types:
            types.append(atype)

    def mark_incident(v: int, atype: str) -> None:
        for t in sorted(incident.get(v, ())):
            mark(t, atype)

    for atype in ANOMALY_TYPES:
        if atype not in types:
            continue
        if atype == "a1":
            pool = [v for v in range(g.num_nodes) if len(labels[v]) >= 2]
            if not pool:
                raise PerturbationError("a1 requires nodes with more than one label")
            if len(pool) < n_sample:
                warnings.warn(f"a1: only {len(pool)} multi-label nodes for a sample of {n_sample}")
            chosen = rng.sample(pool, min(n_sample, len(pool)))
        else:
            chosen = rng.sample(range(g.num_nodes), n_sample)

        for v in chosen:
            if atype == "a1":
                labels[v].discard(rng.choice(sorted(labels[v])))
                mark_incident(v, atype)
            elif atype == "a2":
                absent = sorted(set(range(g.num_labels)) - labels[v])
                if not absent:
                    continue
                labels[v].add(rng.choice(absent))
                mark_incident(v, atype)
            elif atype == "a3":
                if g.num_preds == 0:
                    raise PerturbationError("a3 requires a graph with at least one predicate")
                for _ in range(rng.randint(1, 2)):
                    p = rng.randrange(g.num_preds)
                    dest = rng.randrange(g.num_nodes)
                    triple = (v, p, dest)
                    triples.append(triple)
                    incident.setdefault(v, set()).add(triple)
                    incident.setdefault(dest, set()).add(triple)
                    mark(triple, atype)
            else:  # a4
                if not labels[v]:
                    continue
                absent = sorted(set(range(g.num_labels)) - labels[v])
                if not absent:
                    continue
                # sample the replacement from the pre-removal complement so the
                # swap can never reinstate the label it just dropped
                labels[v].discard(rng.choice(sorted(labels[v])))
                labels[v].add(rng.choice(absent))
                mark_incident(v, atype)

    clean_pool = [t for t in g.distinct_edges if t not in perturbed]
    n_neg = min(len(perturbed), len(clean_pool))
    if n_neg < len(perturbed):
        warnings.warn(f"only {n_neg} clean edges available for {len(perturbed)} positives")
    clean = random.Random(f"{seed}:negatives").sample(clean_pool, n_neg)

    def named(t: tuple[int, int, int]) -> dict:
        return {"s": g.node_names[t[0]], "p": g.pred_names[t[1]], "o": g.node_names[t[2]]}

    splits = _assign_splits(len(perturbed) + len(clean), seed, "split")
    positives = [
        {**named(t), "types": sorted(marked), "split": split}
        for (t, marked), split in zip(perturbed.items(), splits)
    ]
    negatives = [{**named(t), "split": split} for t, split in zip(clean, splits[len(perturbed):])]
    truth = {"kind": "perturbation", "q": q, "seed": seed, "types": list(types)}
    truth.update(positives=positives, negatives=negatives)
    return _rebuild(g, triples, labels), truth


def _triple(record: dict) -> tuple[str, str, str]:
    return record["s"], record["p"], record["o"]


def evaluation_edges(truth: dict) -> list[tuple[str, str, str]]:
    """Test-split edges in a deterministically shuffled order (so that score
    ties never correlate with the ground-truth labels)."""
    rows = [_triple(r) for r in truth["positives"] + truth["negatives"] if r["split"] == "test"]
    random.Random(f"{truth['seed']}:test-order").shuffle(rows)
    return rows


def remove_nodes_pca(g: KnowledgeGraph, q: float, seed: int = 0) -> tuple[KnowledgeGraph, dict]:
    """Remove ceil(q*|V|) nodes with their incident edges; then, for every
    surviving neighbor that lost an edge of some (predicate, direction), drop
    all its remaining edges of that kind (partial completeness)."""
    _check_q(q)
    if g.num_nodes == 0:
        raise PerturbationError("cannot remove nodes from an empty graph")
    n_sample = _sample_count(q, g.num_nodes)
    rng = random.Random(f"{seed}:pca")
    removed_ids = sorted(rng.sample(range(g.num_nodes), n_sample))
    removed = set(removed_ids)

    destroyed: dict[int, set[tuple[int, int, int]]] = {x: set() for x in removed_ids}
    affected: set[tuple[int, int, int]] = set()  # (survivor, predicate, direction)
    for s, p, o in g.distinct_edges:
        s_gone, o_gone = s in removed, o in removed
        if s_gone and o_gone:
            continue
        if o_gone and not s_gone:
            destroyed[o].add((s, p, OUT))
            affected.add((s, p, OUT))
        elif s_gone and not o_gone:
            destroyed[s].add((o, p, IN))
            affected.add((o, p, IN))

    triples = [
        (s, p, o)
        for s, p, o in g.edges
        if s not in removed
        and o not in removed
        and (s, p, OUT) not in affected
        and (o, p, IN) not in affected
    ]
    labels = [set(ls) if v not in removed else set() for v, ls in enumerate(g.node_labels)]

    splits = _assign_splits(len(removed_ids), seed, "pca-split")
    records = [
        {
            "node": g.node_names[x],
            "labels": sorted(g.label_names[l] for l in g.node_labels[x]),
            "split": split,
            "destroyed": [
                {
                    "survivor": g.node_names[u],
                    "predicate": g.pred_names[p],
                    "direction": DIRECTION_NAMES[d],
                }
                for u, p, d in sorted(destroyed[x])
            ],
        }
        for x, split in zip(removed_ids, splits)
    ]
    truth = {"kind": "pca_removal", "q": q, "seed": seed, "removed": records}
    return _rebuild(g, triples, labels), truth


# -- baseline selectors ----------------------------------------------------


def _baseline_select(cands: list[RuleEntry], g: KnowledgeGraph, k: int, keyfn, phase: str) -> Model:
    if k < 1:
        raise ConfigError(f"top-k must be >= 1, got {k}")
    order = sorted((c for c in cands if c.correct_starts), key=keyfn)
    model = Model(g)
    for c in order[:k]:
        model.add(c, phase, model.price(c))
    return model


def freq_select(cands: list[RuleEntry], g: KnowledgeGraph, k: int) -> Model:
    """Top-k candidates by correct-assertion count, costed with the standard encoding."""
    return _baseline_select(
        cands, g, k, lambda c: (-c.num_correct, c.root_key, c.canon_key), "freq"
    )


def coverage_select(cands: list[RuleEntry], g: KnowledgeGraph, k: int) -> Model:
    """Top-k candidates by covered-edge count, costed with the standard encoding."""
    return _baseline_select(
        cands, g, k, lambda c: (-len(c.covered_edge_ids), c.root_key, c.canon_key), "coverage"
    )


# -- ranking metrics --------------------------------------------------------


def _ranking_rows(
    ranking: list[tuple[str, str, str, float]],
    truth: dict,
    anomaly_filter: str | None,
) -> tuple[list[float], list[int]]:
    pos_types = _positive_types(truth)
    clean = {_triple(r) for r in truth["negatives"]}
    scores: list[float] = []
    labels: list[int] = []
    for s, p, o, score in ranking:
        t = (s, p, o)
        if math.isnan(score):
            raise MetricsError(f"ranked edge {short_repr(t)} has score NaN")
        types = pos_types.get(t)
        if types is None and t not in clean:
            raise MetricsError(f"ranked edge {short_repr(t)} is neither perturbed nor clean in the truth")
        if anomaly_filter is not None and types is not None and anomaly_filter not in types:
            continue  # perturbed by another type: excluded from this filter
        scores.append(score)
        labels.append(1 if types is not None else 0)
    return scores, labels


def _positive_types(truth: dict) -> dict[tuple[str, str, str], list[str]]:
    return {_triple(r): r["types"] for r in truth["positives"]}


def _auc_with_ties(scores: list[float], labels: list[int]) -> float:
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("AUC needs at least one positive and one negative")
    by_score = sorted(zip(scores, labels))  # ascending predicted score
    rank_sum = 0.0
    i = 0
    while i < len(by_score):
        j = i
        while j < len(by_score) and by_score[j][0] == by_score[i][0]:
            j += 1
        avg_rank = (i + 1 + j) / 2.0  # average of ranks i+1 .. j
        rank_sum += avg_rank * sum(lab for _, lab in by_score[i:j])
        i = j
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _precision_recall_at_k(scores: list[float], labels: list[int], k: int) -> tuple[float, float, float]:
    if k < 1:
        raise MetricsError(f"k must be >= 1, got {k}")
    order = sorted(range(len(scores)), key=lambda i: -scores[i])  # stable
    n = len(order)
    k_eff = min(k, n)
    if n > k:
        boundary = scores[order[k - 1]]
        while k_eff < n and scores[order[k_eff]] == boundary:
            k_eff += 1
    tp = sum(labels[i] for i in order[:k_eff])
    n_pos = sum(labels)
    precision = tp / k_eff if k_eff else 0.0
    recall = tp / n_pos if n_pos else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return precision, recall, f1


def metrics(
    ranking: list[tuple[str, str, str, float]],
    truth: dict,
    anomaly_filter: str | None = None,
    k: int = 100,
) -> dict:
    """AUC over reciprocal ranks plus precision/recall/F1@k with tie extension,
    under the keys ``p_at_{k}``, ``r_at_{k}`` and ``f1_at_{k}``, as the report
    ``kgsum evaluate`` (k = 100) writes without its ``kind``.

    With a type filter, edges perturbed by other types are dropped from the
    ranking first so they are never counted as false negatives.  Without one,
    ``by_type`` holds the filtered report of each type that a ranked positive
    has, when there are more than one.
    """
    if truth["kind"] != "perturbation":
        raise MetricsError(f"metrics needs perturbation truth, got {short_repr(truth['kind'])}")
    scores, labels = _ranking_rows(ranking, truth, anomaly_filter)
    if not scores:
        raise MetricsError("empty ranking after filtering")
    auc = _auc_with_ties(scores, labels)
    precision, recall, f1 = _precision_recall_at_k(scores, labels, k)
    report = {"auc": auc, f"p_at_{k}": precision, f"r_at_{k}": recall, f"f1_at_{k}": f1}
    report.update(num_positives=sum(labels), num_negatives=len(labels) - sum(labels))
    if anomaly_filter is None:
        # a type whose positives all fell in another split has none ranked
        pos_types = _positive_types(truth)
        seen_types = sorted({t for s, p, o, _ in ranking for t in pos_types.get((s, p, o), ())})
        if len(seen_types) > 1:
            report["by_type"] = {t: metrics(ranking, truth, anomaly_filter=t, k=k) for t in seen_types}
    return report


# -- missing-entity recall ----------------------------------------------------


def completeness_eval(model: Model, truth: dict, split: str = "test") -> tuple[float, float]:
    """Recall of the missing-information reports, ``anomaly.missing_reports``
    (what ``kgsum complete`` writes): the fraction of removed nodes for which
    a report names one of their destroyed (survivor, predicate, direction)
    triples; the label-strict variant also requires that report's expected
    labels to hold on the removed node.

    On every graph that ``remove_nodes_pca`` writes, this is recall read off
    the rules' exceptions: that removal leaves a survivor no edge of any
    (predicate, direction) kind it lost an edge of, so a rule child of a
    destroyed kind has no matching neighbour at the survivor and is reported
    wherever the survivor is an exception of the rule.  Only a graph that
    still holds such an edge, which contradicts the truth file, could leave
    that child unreported."""
    if truth["kind"] != "pca_removal":
        raise MetricsError(f"completeness_eval needs pca_removal truth, got {short_repr(truth['kind'])}")
    records = [r for r in truth["removed"] if r["split"] == split]
    if not records:
        return 0.0, 0.0
    expected: dict[tuple[str, str, str], list[set[str]]] = {}
    for row in missing_reports(model):
        key = row["node"], row["predicate"], row["direction"]
        expected.setdefault(key, []).append(set(row["expected_labels"]))
    hits = 0
    label_hits = 0
    for rec in records:
        labels = set(rec["labels"])
        found = [
            want
            for d in rec["destroyed"]
            for want in expected.get((d["survivor"], d["predicate"], d["direction"]), ())
        ]
        hits += bool(found)
        label_hits += any(want <= labels for want in found)
    return hits / len(records), label_hits / len(records)

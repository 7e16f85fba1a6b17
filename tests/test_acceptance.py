"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Criterion 7 needs a local copy of the full NELL
triple/label files (see its docstring) and is skipped otherwise.
"""

import functools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import kgsum
from kgsum.anomaly import rank_edges
from kgsum.encoding import error_cost_counts, model_constant
from kgsum.evalharness import (
    completeness_eval,
    evaluation_edges,
    metrics,
    perturb,
    remove_nodes_pca,
)
from kgsum.graph import load_graph
from kgsum.miner import (
    build_model,
    generate_candidates,
    qualify_all,
    rank,
    refine_merge,
    refine_nest,
    select,
    summarize,
)
from kgsum.rules import match

from oracles import (
    assignment_pairs,
    brute_force_best_subset,
    modeled_edge_ids,
    modeled_label_ids,
    oracle_total_cost,
)
from synth import (
    chained_ownership_kg,
    planted_desk_kg,
    random_kg,
    random_rule,
    scaling_kg_lines,
    two_branch_kg,
)


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"ACCEPTANCE {number} {name}: SKIP ({exc})")
                raise
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")
            return result

        return run

    return wrap


@criterion(1, "encoding oracle equivalence")
def test_criterion_1_encoding_matches_straightline_oracle():
    start = time.perf_counter()
    rng = random.Random(10_001)
    for _ in range(50):
        g = random_kg(rng, max_nodes=8, max_labels=3, max_preds=2, edge_factor=1.5)
        rules = []
        for _ in range(rng.randint(0, 3)):
            rule = random_rule(rng, g, max_depth=rng.choice((2, 3)))
            if match(rule, g).num_assertions >= 1:
                rules.append(rule)
        model = build_model(g, rules)
        mine = model.total_bits
        theirs = oracle_total_cost(g, rules)
        assert mine == pytest.approx(theirs, rel=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "greedy selection sane vs brute force")
def test_criterion_2_greedy_vs_bruteforce():
    start = time.perf_counter()
    rng = random.Random(20_002)
    for _ in range(30):
        g = random_kg(rng, max_nodes=8, max_labels=3, max_preds=2, edge_factor=2.0)
        cands = rank(qualify_all(generate_candidates(g), g), g)[:5]
        model = select(g, cands)
        greedy_total = model.total_bits
        empty_total = model_constant(g) + error_cost_counts(g, 0, 0)
        optimal, best_subset = brute_force_best_subset(g, [c.rule for c in cands])
        assert optimal <= greedy_total + 1e-9
        assert greedy_total <= empty_total + 1e-9
        if best_subset:
            margin = empty_total - optimal
            cheapest = min(
                c.model_bits for c in cands if c.rule in best_subset
            )
            if margin > cheapest:
                assert greedy_total < empty_total
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"


def _pipeline_stages(g):
    """Yield (stage name, model) after selection and each refinement."""
    model = select(g, rank(qualify_all(generate_candidates(g), g), g))
    yield "select", model
    n_selected = len(model.entries)
    refine_merge(model, g)
    assert len(model.entries) <= n_selected
    yield "merge", model
    n_merged = len(model.entries)
    refine_nest(model, g)
    assert len(model.entries) <= n_merged
    yield "nest", model


def _stage_graphs():
    rng = random.Random(30_003)
    yield planted_desk_kg()
    yield chained_ownership_kg(n_a=20, d_a=3, d_b=4)
    yield two_branch_kg(n_roots=25)
    for _ in range(5):
        yield random_kg(rng, max_nodes=8, max_labels=3, max_preds=2, edge_factor=2.0)


@criterion(3, "monotone descent at every accepted step")
def test_criterion_3_monotone_descent():
    for g in _stage_graphs():
        for _, model in _pipeline_stages(g):
            pass
        for phase, _, delta, _ in model.history:
            if phase == "select":
                assert delta < 0
            elif phase == "merge":
                assert delta <= 1e-9
            elif phase == "nest":
                assert delta < 0
        totals = [total for _, _, _, total in model.history]
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))


@criterion(4, "lossless accounting after every stage")
def test_criterion_4_lossless_accounting():
    for g in _stage_graphs():
        for _, model in _pipeline_stages(g):
            edges_union = set()
            labels_union = set()
            for e in model.entries:
                edges_union |= set(e.covered_edge_ids)
                labels_union |= set(e.covered_label_ids)
            assert modeled_edge_ids(model) == edges_union
            assert modeled_label_ids(model) == labels_union
            modeled_edges = model.num_modeled_edges
            modeled_labels = model.num_modeled_labels
            assert modeled_edges == len(edges_union)
            assert modeled_labels == len(labels_union)
            assert 0 <= modeled_edges <= g.num_distinct_edges
            assert 0 <= modeled_labels <= g.num_label_assignments
            # one count per edge id, each an index into g.distinct_edges, and
            # one per label-assignment id, each naming a label its node carries
            assert len(model.edge_refs) == g.num_distinct_edges
            assert len(model.label_refs) == g.num_label_assignments
            pairs = assignment_pairs(g)
            for i in modeled_label_ids(model):
                node, label = pairs[i]
                assert label in g.node_labels[node]


@criterion(5, "anomaly detection AUC on planted graph")
def test_criterion_5_anomaly_auc():
    start = time.perf_counter()
    g = planted_desk_kg()
    assert g.num_nodes == 1000
    assert 4000 <= g.num_edges <= 6000
    perturbed, truth = perturb(g, q=0.005, types=("a3",), seed=0)
    model = refine_merge(
        select(perturbed, rank(qualify_all(generate_candidates(perturbed), perturbed), perturbed)),
        perturbed,
    )
    rows = evaluation_edges(truth)
    ids = [(perturbed.node_id(s), perturbed.pred_id(p), perturbed.node_id(o)) for s, p, o in rows]
    ranked = rank_edges(ids, model)
    named = [
        (perturbed.node_names[s], perturbed.pred_names[p], perturbed.node_names[o], score)
        for s, p, o, score in ranked
    ]
    report = metrics(named, truth)
    elapsed = time.perf_counter() - start
    assert report["auc"] >= 0.90, f"AUC {report['auc']:.4f} < 0.90"
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s"


@criterion(6, "completeness recall on planted graph")
def test_criterion_6_completeness_recall():
    start = time.perf_counter()
    g = planted_desk_kg()
    perturbed, truth = remove_nodes_pca(g, q=0.05, seed=1)
    model = refine_merge(
        select(perturbed, rank(qualify_all(generate_candidates(perturbed), perturbed), perturbed)),
        perturbed,
    )
    recall, recall_label = completeness_eval(model, truth)
    elapsed = time.perf_counter() - start
    assert recall >= 0.90, f"R {recall:.4f} < 0.90"
    assert recall_label >= 0.85, f"R_L {recall_label:.4f} < 0.85"
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"


NELL_TABLE = {
    # refine mode -> (pct bits, pct edges explained, rule count)
    "none": (73.88, 78.52, 1115),
    "merge": (73.00, 78.52, 647),
    "nest": (63.57, 74.67, 573),
}


def _nell_paths():
    base = os.environ.get("KGSUM_NELL_DIR", str(Path(__file__).parent.parent / "data" / "nell"))
    triples = Path(base) / "triples.tsv"
    labels = Path(base) / "labels.tsv"
    return (triples, labels) if triples.exists() and labels.exists() else None


@criterion(7, "full NELL reproduction")
def test_criterion_7_nell_reproduction():
    """Needs the full NELL snapshot as TSV files under data/nell/ (or
    $KGSUM_NELL_DIR): triples.tsv with s<TAB>p<TAB>o lines and labels.tsv
    with node<TAB>label lines."""
    paths = _nell_paths()
    if paths is None:
        pytest.skip("NELL snapshot not available; criteria 1-6 govern acceptance")
    g = load_graph(str(paths[0]), str(paths[1]))
    for mode, (pct_bits, pct_edges, n_rules) in NELL_TABLE.items():
        from kgsum.miner import model_to_dict

        doc = model_to_dict(summarize(g, refine=mode))
        assert abs(doc["pct_bits_vs_empty"] - pct_bits) <= 5.0
        assert abs(doc["pct_edges_explained"] - pct_edges) <= 5.0
        assert abs(len(doc["rules"]) - n_rules) <= 0.2 * n_rules


@criterion(8, "near-linear scaling per doubling")
def test_criterion_8_scaling():
    tmp = tempfile.mkdtemp(prefix="kgsum-scale-")
    sizes = (100_000, 200_000, 400_000, 800_000)
    times = []
    loads = []
    cpus = []
    # warm-up so allocator/caches do not penalize the first measured size
    warm_t, warm_l = scaling_kg_lines(10_000)
    wt, wl = Path(tmp, "wt.tsv"), Path(tmp, "wl.tsv")
    wt.write_text("".join(warm_t))
    wl.write_text("".join(warm_l))
    summarize(load_graph(str(wt), str(wl)))
    for num_edges in sizes:
        triples, labels = scaling_kg_lines(num_edges)
        tp, lp = Path(tmp, "t.tsv"), Path(tmp, "l.tsv")
        tp.write_text("".join(triples))
        lp.write_text("".join(labels))
        start, cpu_start = time.perf_counter(), time.process_time()
        g = load_graph(str(tp), str(lp))
        loads.append(time.perf_counter() - start)
        model = summarize(g)
        times.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu_start)
        assert model.entries
    ratios = [b / a for a, b in zip(times, times[1:])]
    # the load time next to each total shows which phase grew faster, and the
    # CPU time whether the program grew or the machine was busy
    detail = ", ".join(f"{t:.2f}s (load {l:.2f}s, cpu {c:.2f}s)" for t, l, c in zip(times, loads, cpus))
    assert all(r <= 2.5 for r in ratios), f"ratios {ratios} from times {detail}"


def _run_cli(args, cwd, hash_seed):
    """Run the CLI as a child process on the kgsum this process imported.

    The package's absolute parent goes first on the child's PYTHONPATH, so
    a relative PYTHONPATH or an uninstalled checkout still resolves from
    ``cwd``; ``hash_seed`` pins the child's PYTHONHASHSEED.
    """
    env = dict(os.environ)
    pkg_root = str(Path(kgsum.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "kgsum.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@criterion(9, "seeded CLI runs are byte-identical")
def test_criterion_9_cli_determinism(tmp_path):
    from kgsum.graph import write_graph

    g = chained_ownership_kg(n_a=20, d_a=3, d_b=4)
    triples, labels = tmp_path / "triples.tsv", tmp_path / "labels.tsv"
    write_graph(g, str(triples), str(labels))
    base = ["--graph", str(triples), "--labels", str(labels)]

    def run_all(out: Path, hash_seed: str) -> dict[str, bytes]:
        out.mkdir()
        _run_cli(
            ["summarize", *base, "--out", str(out / "model.json")],
            tmp_path,
            hash_seed,
        )
        _run_cli(
            ["perturb", *base, "--out", str(out / "inject"), "--q", "0.03",
             "--anomalies", "a2,a3", "--seed", "7"],
            tmp_path,
            hash_seed,
        )
        _run_cli(
            ["perturb", *base, "--out", str(out / "pca"), "--q", "0.05", "--pca", "--seed", "7"],
            tmp_path,
            hash_seed,
        )
        _run_cli(
            ["score", *base, "--model", str(out / "model.json"),
             "--test-edges", str(out / "inject" / "test_edges.tsv"),
             "--out", str(out / "ranking.tsv")],
            tmp_path,
            hash_seed,
        )
        _run_cli(
            ["complete", *base, "--model", str(out / "model.json"),
             "--out", str(out / "missing.json")],
            tmp_path,
            hash_seed,
        )
        _run_cli(
            ["evaluate", "--truth", str(out / "inject" / "truth.json"),
             "--ranking", str(out / "ranking.tsv"), "--out", str(out / "metrics.json")],
            tmp_path,
            hash_seed,
        )
        _run_cli(
            ["evaluate", "--truth", str(out / "pca" / "truth.json"),
             "--model", str(out / "model.json"), *base,
             "--out", str(out / "completeness.json")],
            tmp_path,
            hash_seed,
        )
        outputs = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                outputs[str(path.relative_to(out))] = path.read_bytes()
        return outputs

    # two hash seeds, so the check covers hash randomization across processes
    first = run_all(tmp_path / "run1", "0")
    second = run_all(tmp_path / "run2", "12345")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"output {name} differs between seeded runs"
    # sanity: the metrics report parses and carries the contract fields
    doc = json.loads(first["metrics.json"])
    assert {"auc", "p_at_100", "r_at_100", "f1_at_100"} <= set(doc)

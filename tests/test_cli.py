import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import kgsum
from kgsum.cli import main
from kgsum.evalharness import MetricsError, check_truth
from kgsum.graph import KnowledgeGraph, parse_graph, write_graph
from kgsum.rules import MAX_RULE_DEPTH

from synth import chained_ownership_kg, private_children_kg


def write_inputs(tmp_path, g):
    triples = tmp_path / "triples.tsv"
    labels = tmp_path / "labels.tsv"
    write_graph(g, str(triples), str(labels))
    return str(triples), str(labels)


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run Python in a child process on the kgsum this test imported.  No
    child here needs more than a few seconds, so one that hangs fails its
    test (``TimeoutExpired``) instead of stalling the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(kgsum.__file__).resolve().parent.parent), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=30)


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, so that stderr holds exactly what a
    user sees, tracebacks and warnings included."""
    return run_python(["-m", "kgsum.cli", *args])


def test_importing_the_graph_module_imports_no_mining_code():
    # the package imports its exported names on first use, so a process that
    # only loads a graph pays for no other module of kgsum
    code = "import sys, kgsum.graph; print(*sorted(m for m in sys.modules if 'kgsum' in m))"
    got = run_python(["-c", code])
    assert got.returncode == 0, got.stderr
    assert got.stdout.split() == ["kgsum", "kgsum.graph"]


def test_mining_scoring_and_completion_import_no_evaluation_harness(tmp_path):
    # only perturb, evaluate and the freq/coverage selectors use kgsum.evalharness
    triples, labels = write_inputs(tmp_path, private_children_kg())
    common = ["--graph", triples, "--labels", labels]
    model, edges = str(tmp_path / "m.json"), tmp_path / "edges.tsv"
    edges.write_text("a0\tp\tb0\n")
    commands = [
        ["summarize", *common, "--out", model],
        ["score", *common, "--model", model, "--test-edges", str(edges), "--out", str(tmp_path / "r.tsv")],
        ["complete", *common, "--model", model, "--out", str(tmp_path / "c.json")],
    ]
    code = (
        "import sys; import kgsum.cli as cli; loaded = ['kgsum.evalharness' in sys.modules];"
        f"loaded += [cli.main(argv) or 'kgsum.evalharness' in sys.modules for argv in {commands!r}];"
        "print(*loaded)"
    )
    got = run_python(["-c", code])
    assert got.returncode == 0, got.stderr
    assert got.stdout.split() == ["False"] * 4
    # an unknown test-edge identifier is a ValueError like any other bad input,
    # and reporting it loads no harness either
    edges.write_text("a0\tp\tnobody\n")
    code = f"import sys, kgsum.cli as cli; print(cli.main({commands[1]!r}), 'kgsum.evalharness' in sys.modules)"
    proc = run_python(["-c", code])
    assert proc.stdout.split() == ["1", "False"], proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "unknown identifier" in errors[0]


def test_perturb_without_anomalies_injects_every_type(tmp_path):
    triples, labels = write_inputs(tmp_path, chained_ownership_kg(n_a=20, d_a=3, d_b=4))
    with open(labels, "a", encoding="utf-8") as fh:  # a1 removes one of a node's labels
        fh.writelines(f"a{i}\tOwner\n" for i in range(20))
    out = tmp_path / "perturbed"
    assert main(["perturb", "--graph", triples, "--labels", labels, "--out", str(out), "--q", "0.05"]) == 0
    assert json.loads((out / "truth.json").read_text())["types"] == ["a1", "a2", "a3", "a4"]


def test_every_exported_name_resolves_on_first_access():
    got = run_python(["-c", "from kgsum import *; from kgsum import summarize; import kgsum, sys;"
                            "assert summarize is sys.modules['kgsum.miner'].summarize;"
                            "print(len([n for n in kgsum.__all__ if n in globals()]))"])
    assert got.returncode == 0, got.stderr
    assert int(got.stdout) == len(kgsum.__all__)
    assert set(kgsum.__all__) <= set(dir(kgsum))
    with pytest.raises(AttributeError, match="no attribute 'stats'"):
        kgsum.stats


def graph_with_gap():
    """Private-children structure plus one A node missing its children and a
    couple of stray edges no rule will explain (so the unmodeled-edge share
    stays positive)."""
    lines_t = [f"a{i}\tp\tb{3 * i + j}\n" for i in range(20) for j in range(3)]
    lines_t += ["z0\tq\tz1\n", "z1\tq\tz2\n"]
    lines_l = [f"a{i}\tA\n" for i in range(21)] + [f"b{k}\tB\n" for k in range(60)]
    lines_l += ["z0\tZ\n", "z1\tZ\n", "z2\tZ\n"]
    return parse_graph(lines_t, lines_l)


def test_summarize_writes_model_report(tmp_path, capsys):
    triples, labels = write_inputs(tmp_path, private_children_kg())
    out = tmp_path / "model.json"
    rc = main(["summarize", "--graph", triples, "--labels", labels, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["rules"]
    assert 0 < doc["pct_bits_vs_empty"] < 100
    assert 0 < doc["pct_edges_explained"] <= 100
    err = capsys.readouterr().err
    assert "select:" in err and "rules" in err  # phase timings and summary on stderr
    assert "refine_nest pairs: " in err and " pruned, " in err


def test_summarize_score_complete_never_build_edge_tuple_lists(tmp_path, monkeypatch):
    triples, labels = write_inputs(tmp_path, graph_with_gap())
    edges = tmp_path / "edges.tsv"
    edges.write_text("a0\tp\tb0\nz0\tq\tz1\n")

    def refuse(self):
        raise AssertionError("edge tuple list built")

    monkeypatch.setattr(KnowledgeGraph, "edges", property(refuse))
    monkeypatch.setattr(KnowledgeGraph, "distinct_edges", property(refuse))
    graph = ["--graph", triples, "--labels", labels]
    model = str(tmp_path / "model.json")
    assert main(["summarize", *graph, "--out", model]) == 0
    assert main(["score", *graph, "--model", model, "--test-edges", str(edges),
                 "--out", str(tmp_path / "r.tsv")]) == 0
    assert main(["complete", *graph, "--model", model, "--out", str(tmp_path / "m.json")]) == 0
    assert json.loads((tmp_path / "m.json").read_text())["missing"]


def test_score_ranks_test_edges(tmp_path):
    g = graph_with_gap()
    triples, labels = write_inputs(tmp_path, g)
    model = tmp_path / "model.json"
    assert main(["summarize", "--graph", triples, "--labels", labels, "--out", str(model)]) == 0

    edges = tmp_path / "edges.tsv"
    edges.write_text("a0\tp\tb0\na1\tp\tb0\na0\tp\tb3\n")  # one real, two absent
    out = tmp_path / "ranking.tsv"
    rc = main(
        ["score", "--graph", triples, "--labels", labels, "--model", str(model),
         "--test-edges", str(edges), "--out", str(out)]
    )
    assert rc == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert len(rows) == 3
    scores = [float(r[3]) for r in rows]
    assert scores == sorted(scores, reverse=True)
    assert [r[0] for r in rows[:2]] != ["a0", "a0"] or scores[0] > scores[2]
    assert ["a0", "p", "b0"] == rows[-1][:3]  # the modeled edge scores lowest


def test_complete_reports_missing_children(tmp_path):
    g = graph_with_gap()
    triples, labels = write_inputs(tmp_path, g)
    model = tmp_path / "model.json"
    assert main(["summarize", "--graph", triples, "--labels", labels, "--out", str(model)]) == 0
    out = tmp_path / "missing.json"
    rc = main(["complete", "--graph", triples, "--labels", labels, "--model", str(model), "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["missing"]
    assert rows
    top = rows[0]
    assert top["node"] == "a20"  # the A node without children
    assert top["predicate"] == "p"
    assert top["direction"] == "out"
    assert top["expected_labels"] == ["B"]
    assert top["score_bits"] > 0


def test_complete_empty_model_gives_empty_report(tmp_path):
    g = parse_graph(["a\tp\tb\n"], ["a\tX\n", "b\tY\n"])
    triples, labels = write_inputs(tmp_path, g)
    model = tmp_path / "model.json"
    assert main(["summarize", "--graph", triples, "--labels", labels, "--out", str(model)]) == 0
    assert json.loads(model.read_text())["rules"] == []
    out = tmp_path / "missing.json"
    assert main(["complete", "--graph", triples, "--labels", labels, "--model", str(model), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"missing": []}


def test_perturb_inject_and_evaluate(tmp_path):
    g = chained_ownership_kg(n_a=20, d_a=3, d_b=4)
    triples, labels = write_inputs(tmp_path, g)
    out_dir = tmp_path / "perturbed"
    rc = main(
        ["perturb", "--graph", triples, "--labels", labels, "--out", str(out_dir),
         "--q", "0.02", "--anomalies", "a3", "--seed", "5"]
    )
    assert rc == 0
    for name in ("triples.tsv", "labels.tsv", "truth.json", "test_edges.tsv"):
        assert (out_dir / name).exists()
    truth = json.loads((out_dir / "truth.json").read_text())
    assert truth["kind"] == "perturbation"
    assert truth["positives"]

    model = tmp_path / "model.json"
    assert main(
        ["summarize", "--graph", str(out_dir / "triples.tsv"), "--labels",
         str(out_dir / "labels.tsv"), "--out", str(model), "--refine", "merge"]
    ) == 0
    ranking = tmp_path / "ranking.tsv"
    assert main(
        ["score", "--graph", str(out_dir / "triples.tsv"), "--labels", str(out_dir / "labels.tsv"),
         "--model", str(model), "--test-edges", str(out_dir / "test_edges.tsv"), "--out", str(ranking)]
    ) == 0
    report = tmp_path / "metrics.json"
    assert main(
        ["evaluate", "--truth", str(out_dir / "truth.json"), "--ranking", str(ranking),
         "--out", str(report)]
    ) == 0
    doc = json.loads(report.read_text())
    assert doc["kind"] == "perturbation"
    for field in ("auc", "p_at_100", "r_at_100", "f1_at_100"):
        assert field in doc
    assert 0.0 <= doc["auc"] <= 1.0


def test_perturb_pca_and_evaluate(tmp_path):
    g = chained_ownership_kg(n_a=25, d_a=3, d_b=3)
    triples, labels = write_inputs(tmp_path, g)
    out_dir = tmp_path / "removed"
    rc = main(
        ["perturb", "--graph", triples, "--labels", labels, "--out", str(out_dir),
         "--q", "0.05", "--pca", "--seed", "3"]
    )
    assert rc == 0
    truth = json.loads((out_dir / "truth.json").read_text())
    assert truth["kind"] == "pca_removal"
    assert not (out_dir / "test_edges.tsv").exists()

    model = tmp_path / "model.json"
    assert main(
        ["summarize", "--graph", str(out_dir / "triples.tsv"), "--labels",
         str(out_dir / "labels.tsv"), "--out", str(model), "--refine", "none"]
    ) == 0
    report = tmp_path / "completeness.json"
    rc = main(
        ["evaluate", "--truth", str(out_dir / "truth.json"), "--model", str(model),
         "--graph", str(out_dir / "triples.tsv"), "--labels", str(out_dir / "labels.tsv"),
         "--out", str(report)]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["kind"] == "pca_removal"
    assert 0.0 <= doc["recall_label"] <= doc["recall"] <= 1.0


def test_evaluate_requires_matching_inputs(tmp_path):
    g = private_children_kg(n_roots=25)
    triples, labels = write_inputs(tmp_path, g)
    out_dir = tmp_path / "p"
    assert main(
        ["perturb", "--graph", triples, "--labels", labels, "--out", str(out_dir),
         "--q", "0.04", "--anomalies", "a3", "--seed", "1"]
    ) == 0
    # perturbation truth without --ranking is a config error
    rc = main(["evaluate", "--truth", str(out_dir / "truth.json"), "--out", str(tmp_path / "m.json")])
    assert rc == 1


@pytest.mark.parametrize(
    "kind, unused",
    [("perturbation", ["--model"]), ("perturbation", ["--graph", "--labels"]), ("pca_removal", ["--ranking"])],
)
def test_evaluate_rejects_flags_its_truth_kind_never_reads(tmp_path, kind, unused):
    g = chained_ownership_kg(n_a=10, d_a=3, d_b=4)
    triples, labels = write_inputs(tmp_path, g)
    out = tmp_path / "p"
    pick = ["--anomalies", "a3"] if kind == "perturbation" else ["--pca"]
    assert main(["perturb", "--graph", triples, "--labels", labels, "--out", str(out), "--q", "0.05", *pick]) == 0
    model, ranking = tmp_path / "model.json", tmp_path / "r.tsv"
    model.write_text(json.dumps({"rules": []}))
    if kind == "perturbation":
        edges = (out / "test_edges.tsv").read_text().splitlines()
        ranking.write_text("".join(f"{line}\t{i}.0\n" for i, line in enumerate(edges)))
    value = {"--model": str(model), "--graph": triples, "--labels": labels, "--ranking": str(ranking)}
    reads = ["--ranking"] if kind == "perturbation" else ["--model", "--graph", "--labels"]
    evaluate = ["evaluate", "--truth", str(out / "truth.json"), *(a for f in reads for a in (f, value[f]))]
    report = tmp_path / "e.json"
    proc = run_cli([*evaluate, *(a for f in unused for a in (f, value[f])), "--out", str(report)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and unused[0] in errors[0]
    assert not report.exists()
    # the same call without the unread flags evaluates
    assert main([*evaluate, "--out", str(report)]) == 0


def test_truth_and_report_documents_keep_their_key_order(tmp_path):
    # json.dump writes keys in insertion order, so this pins the files' layout
    triples, labels = write_inputs(tmp_path, chained_ownership_kg(n_a=20, d_a=3, d_b=4))
    common = ["--graph", triples, "--labels", labels]
    inj, pca = tmp_path / "inj", tmp_path / "pca"
    assert main(["perturb", *common, "--out", str(inj), "--q", "0.05", "--anomalies", "a2,a3,a4"]) == 0
    assert main(["perturb", *common, "--out", str(pca), "--q", "0.05", "--pca"]) == 0
    truth = json.loads((inj / "truth.json").read_text())
    assert list(truth) == ["kind", "q", "seed", "types", "positives", "negatives"]
    assert {tuple(r) for r in truth["positives"]} == {("s", "p", "o", "types", "split")}
    assert {tuple(r) for r in truth["negatives"]} == {("s", "p", "o", "split")}
    removal = json.loads((pca / "truth.json").read_text())
    assert list(removal) == ["kind", "q", "seed", "removed"]
    assert {tuple(r) for r in removal["removed"]} == {("node", "labels", "split", "destroyed")}
    destroyed = {tuple(d) for r in removal["removed"] for d in r["destroyed"]}
    assert destroyed == {("survivor", "predicate", "direction")}

    ranking, report = tmp_path / "r.tsv", tmp_path / "metrics.json"
    edges = (inj / "test_edges.tsv").read_text().splitlines()
    ranking.write_text("".join(f"{line}\t{i}.0\n" for i, line in enumerate(edges)))
    assert main(["evaluate", "--truth", str(inj / "truth.json"), "--ranking", str(ranking), "--out", str(report)]) == 0
    fields = ["auc", "p_at_100", "r_at_100", "f1_at_100", "num_positives", "num_negatives"]
    doc = json.loads(report.read_text())
    assert list(doc) == ["kind", *fields, "by_type"]
    assert [list(r) for r in doc["by_type"].values()] == [fields] * len(doc["by_type"])


def test_cli_error_paths(tmp_path):
    assert main(["summarize", "--graph", "missing.tsv", "--labels", "missing.tsv",
                 "--out", str(tmp_path / "m.json")]) == 1
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-one-field\n")
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert main(["summarize", "--graph", str(bad), "--labels", str(empty),
                 "--out", str(tmp_path / "m.json")]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["summarize"])  # missing required args
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_top_k_under_the_mdl_selector_exits_1_with_one_error_line(tmp_path):
    # the MDL selector has no rule budget, so --top-k would do nothing
    triples, labels = write_inputs(tmp_path, private_children_kg())
    out = tmp_path / "model.json"
    proc = run_cli(["summarize", "--graph", triples, "--labels", labels, "--out", str(out), "--top-k", "5"])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: --top-k is for the freq and coverage selectors"]
    assert not out.exists()


@pytest.mark.parametrize("selector", ["freq", "coverage"])
@pytest.mark.parametrize("flag", [["--refine", "merge"], ["--refine", "nest"], ["--max-passes", "3"]],
                         ids=["refine-merge", "refine-nest", "max-passes"])
def test_mdl_options_under_a_baseline_selector_exit_1_with_one_error_line(tmp_path, selector, flag):
    # the top-k baselines neither refine nor make selection passes, so these
    # flags would do nothing, their default values included
    triples, labels = write_inputs(tmp_path, private_children_kg())
    out = tmp_path / "model.json"
    proc = run_cli(["summarize", "--graph", triples, "--labels", labels, "--out", str(out),
                    "--selector", selector, "--top-k", "2", *flag])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: --refine and --max-passes are for the mdl selector"]
    assert not out.exists()


def test_summarize_baseline_selectors(tmp_path):
    triples, labels = write_inputs(tmp_path, private_children_kg())
    out = tmp_path / "freq.json"
    rc = main(["summarize", "--graph", triples, "--labels", labels, "--out", str(out),
               "--selector", "freq", "--top-k", "2"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["rules"]) == 2
    assert doc["pct_bits_vs_empty"] > 100  # redundant pair costs more than empty

    out2 = tmp_path / "cov.json"
    assert main(["summarize", "--graph", triples, "--labels", labels, "--out", str(out2),
                 "--selector", "coverage", "--top-k", "1"]) == 0
    assert len(json.loads(out2.read_text())["rules"]) == 1

    # baselines need an explicit rule budget
    assert main(["summarize", "--graph", triples, "--labels", labels,
                 "--out", str(tmp_path / "x.json"), "--selector", "freq"]) == 1


@pytest.mark.parametrize("selector", ["mdl", "freq"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_label_cap_below_one_exits_1_with_one_error_line(tmp_path, cap, selector):
    triples, labels = write_inputs(tmp_path, private_children_kg())
    out = tmp_path / "model.json"
    budget = ["--top-k", "1"] if selector == "freq" else []
    proc = run_cli(["summarize", "--graph", triples, "--labels", labels, "--out", str(out),
                    "--label-cap", cap, "--selector", selector, *budget])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: label_cap must be >= 1, got {cap}"]
    assert not out.exists()


def test_summarize_empty_graph_reports_100_percent(tmp_path):
    triples = tmp_path / "t.tsv"
    labels = tmp_path / "l.tsv"
    triples.write_text("")
    labels.write_text("")
    out = tmp_path / "model.json"
    assert main(["summarize", "--graph", str(triples), "--labels", str(labels), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rules"] == []
    assert doc["pct_bits_vs_empty"] == 100.0
    assert doc["L_total_bits"] == 0.0


def test_perturb_rejects_bad_anomaly_list(tmp_path):
    g = private_children_kg(n_roots=25)
    triples, labels = write_inputs(tmp_path, g)
    rc = main(["perturb", "--graph", triples, "--labels", labels,
               "--out", str(tmp_path / "x"), "--q", "0.04", "--anomalies", "a9"])
    assert rc == 1


def test_perturb_rejects_anomalies_with_pca(tmp_path):
    # --pca removes nodes and injects nothing, so an anomaly list would be ignored
    triples, labels = write_inputs(tmp_path, private_children_kg(n_roots=25))
    out = tmp_path / "x"
    proc = run_cli(["perturb", "--graph", triples, "--labels", labels, "--out", str(out),
                    "--q", "0.04", "--pca", "--anomalies", "a3"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "--anomalies" in errors[0] and "--pca" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("pick", [[], ["--pca"]], ids=["inject", "pca"])
def test_perturb_out_naming_a_file_exits_1_with_one_error_line(tmp_path, pick):
    triples, labels = write_inputs(tmp_path, private_children_kg(n_roots=25))
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    proc = run_cli(["perturb", "--graph", triples, "--labels", labels, "--out", str(out), "--q", "0.04", *pick])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(out) in errors[0], proc.stderr
    assert out.read_text() == "a file, not a directory\n"


def test_score_and_complete_skip_rules_that_no_longer_apply(tmp_path):
    # a model mined when some node carried both X and Y, applied to a graph
    # where none does: that rule is skipped with a warning, the other applies
    triples, labels = tmp_path / "t.tsv", tmp_path / "l.tsv"
    triples.write_text("a\tp\tb\nc\tp\td\n")
    labels.write_text("a\tX\nc\tY\ne\tX\nb\tZ\nd\tZ\n")
    z = {"root_labels": ["Z"], "children": []}
    child = [{"predicate": "p", "direction": "out", "child": z}]
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"rules": [
        {"rule": {"root_labels": ["X", "Y"], "children": child}},
        {"rule": {"root_labels": ["X"], "children": child}},
    ]}))
    edges = tmp_path / "edges.tsv"
    edges.write_text("\ufeffa\tp\tb\n", encoding="utf-8")  # a byte-order mark is ignored
    graph = ["--graph", str(triples), "--labels", str(labels), "--model", str(model)]
    for args in (
        ["score", *graph, "--test-edges", str(edges), "--out", str(tmp_path / "r.tsv")],
        ["complete", *graph, "--out", str(tmp_path / "m.json")],
    ):
        proc = run_cli(args)
        assert proc.returncode == 0, proc.stderr
        assert "UserWarning: 1 model rule(s) skipped" in proc.stderr
        assert "[X,Y](->p[Z])" in proc.stderr
    assert (tmp_path / "r.tsv").read_text().startswith("a\tp\tb\t")
    missing = json.loads((tmp_path / "m.json").read_text())["missing"]
    assert [(r["node"], r["expected_labels"]) for r in missing] == [("e", ["Z"])]


def test_malformed_model_files_exit_1_without_traceback(tmp_path):
    triples, labels = tmp_path / "t.tsv", tmp_path / "l.tsv"
    triples.write_text("a\tp\tb\n")
    labels.write_text("a\tX\nb\tX\n")
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tp\tb\n")
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"kind": "pca_removal", "q": 0.5, "seed": 0, "removed": []}))
    rule = {"root_labels": ["X"], "children": []}
    docs = [
        {"rules": [{}]},
        [],
        {"rules": [{"rule": {**rule, "children": "oops"}}]},
        {"rules": [{"rule": {**rule, "root_labels": [["X"]]}}]},
        {"rules": 5},
    ]
    graph = ["--graph", str(triples), "--labels", str(labels)]
    runs = [["score", *graph, "--test-edges", str(edges), "--out", str(tmp_path / "r.tsv")]] * 5
    runs += [["complete", *graph, "--out", str(tmp_path / "m.json")]]
    runs += [["evaluate", "--truth", str(truth), *graph, "--out", str(tmp_path / "e.json")]]
    for i, args in enumerate(runs):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(docs[i % len(docs)]))
        proc = run_cli([*args, "--model", str(model)])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1


@pytest.fixture(scope="module")
def mined_model(tmp_path_factory):
    """Inputs for ``score`` and ``complete`` and the valid model file mined
    from them: A owns B owns C, whose model's first rule is three levels
    deep, and a two-node cycle of ``Loop`` nodes joined by ``r``, on which a
    ``Loop`` chain of any depth holds."""
    tmp = tmp_path_factory.mktemp("model")
    triples, labels = write_inputs(tmp, chained_ownership_kg(n_a=4, d_a=2, d_b=2))
    with open(triples, "a", encoding="utf-8") as fh:
        fh.write("x0\tr\tx1\nx1\tr\tx0\n")
    with open(labels, "a", encoding="utf-8") as fh:
        fh.write("x0\tLoop\nx1\tLoop\n")
    edges = tmp / "edges.tsv"
    edges.write_text("a0\tp\tb0\nx0\tr\tx1\n")
    model = tmp / "model.json"
    assert main(["summarize", "--graph", triples, "--labels", labels, "--out", str(model)]) == 0
    graph = ["--graph", triples, "--labels", labels, "--model", str(tmp / "mutated.json")]
    runs = [
        ["score", *graph, "--test-edges", str(edges), "--out", str(tmp / "r.tsv")],
        ["complete", *graph, "--out", str(tmp / "c.json")],
    ]
    return model.read_text(), tmp / "mutated.json", runs


def loop_chain(depth: int) -> dict:
    """A ``Loop`` rule ``depth`` levels deep, the root counted, each level
    following ``r`` out to the next."""
    rule = {"root_labels": ["Loop"], "children": []}
    for _ in range(depth - 1):
        rule = {"root_labels": ["Loop"], "children": [{"predicate": "r", "direction": "out", "child": rule}]}
    return rule


# where a wrong JSON type goes: the rule list, the first rule's root and its
# first child's child, and the first child's predicate and direction
_FIELDS = {
    "rules": (),
    "root_labels": ("rules", 0, "rule"),
    "children": ("rules", 0, "rule", "children", 0, "child"),
    "predicate": ("rules", 0, "rule", "children", 0),
    "direction": ("rules", 0, "rule", "children", 0),
}
# where a number goes: the model's costs and the first rule's
_NUMBERS = {
    "L_model_bits": (),
    "L_total_bits": (),
    "L_rule_bits": ("rules", 0),
    "L_assertions_bits": ("rules", 0),
}
# a value of every JSON type, lists and objects holding strings and containers
_WRONG = st.sampled_from((None, True, 0, -1.5, "X", [], [0], ["X", ["X"]], {}, {"X": []}))
# JSON number literals that decode as NaN, an infinity or a huge int
_NUMBER_LITERALS = ("NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400, "9" * 5000)
_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("chain"), st.sampled_from((MAX_RULE_DEPTH, MAX_RULE_DEPTH + 1))),
    st.tuples(st.just("type"), st.sampled_from(sorted(_FIELDS)), _WRONG),
    st.tuples(
        st.just("number"),
        st.sampled_from(sorted(_NUMBERS)),
        st.sampled_from(_NUMBER_LITERALS),
    ),
)


def mutate(text: str, mutation: tuple) -> bytes:
    """The bytes of the model file ``text`` changed as ``mutation`` says."""
    kind, *args = mutation
    raw = text.encode()
    if kind == "truncate":
        return raw[: args[0] % len(raw)]
    if kind == "flip":
        at = args[0] % len(raw)
        return raw[:at] + bytes([raw[at] ^ args[1]]) + raw[at + 1 :]
    doc = json.loads(text)
    if kind == "chain":
        doc["rules"].append({"rule": loop_chain(args[0])})
        return json.dumps(doc).encode()
    field, value = args
    node = doc
    for key in {**_FIELDS, **_NUMBERS}[field]:
        node = node[key]
    if kind == "type":
        node[field] = value
        return json.dumps(doc).encode()
    node[field] = "@number@"  # then the literal, which JSON reads as NaN, an infinity or a huge int
    return json.dumps(doc).replace('"@number@"', value).encode()


@settings(max_examples=20, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation=_MUTATIONS)
@example(mutation=("chain", MAX_RULE_DEPTH))
@example(mutation=("chain", MAX_RULE_DEPTH + 1))
@example(mutation=("type", "rules", [0]))
@example(mutation=("type", "root_labels", [0]))
@example(mutation=("type", "children", [0]))
@example(mutation=("type", "predicate", [0]))
@example(mutation=("type", "direction", [0]))
def test_a_mutated_model_file_exits_0_or_1_with_one_error_line(mined_model, mutation):
    # a model file truncated, with a byte flipped, with a rule as deep as a
    # model file may hold or one level deeper, with a field of the wrong JSON
    # type, or with NaN, an infinity or a huge number where the costs are
    text, path, runs = mined_model
    assert json.loads(text)["rules"][0]["rule"]["children"][0]["child"]["children"]
    path.write_bytes(mutate(text, mutation))
    for args in runs:
        proc = run_cli(args)
        assert proc.returncode in (0, 1), proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == proc.returncode, proc.stderr
        if mutation[0] == "chain":  # the deepest rule a file holds applies; one more level is refused
            assert proc.returncode == (mutation[1] > MAX_RULE_DEPTH), proc.stderr


@pytest.fixture(scope="module")
def mined_tsv(tmp_path_factory):
    """The valid triples and labels files of A owns B owns C as text and,
    for the name of either file, the model file mined from the valid files
    and the ``summarize`` arguments that read its mutated copy beside the
    other valid file and write the model to the returned path."""
    tmp = tmp_path_factory.mktemp("tsv")
    triples, labels = write_inputs(tmp, chained_ownership_kg(n_a=4, d_a=2, d_b=2))
    valid, mutated, out = tmp / "valid.json", tmp / "mutated.tsv", tmp / "m.json"
    assert main(["summarize", "--graph", triples, "--labels", labels, "--out", str(valid)]) == 0

    def summarize(triples, labels):
        return ["summarize", "--graph", triples, "--labels", labels, "--out", str(out)]

    args = {"triples": summarize(str(mutated), labels), "labels": summarize(triples, str(mutated))}
    texts = {name: Path(path).read_text(encoding="utf-8") for name, path in zip(args, (triples, labels))}
    return texts, dict.fromkeys(args, valid.read_bytes()), mutated, args, out


def mutate_lines(text: str, mutation: tuple) -> bytes:
    """The bytes of the TSV file ``text`` changed as ``mutation`` says."""
    kind, *args = mutation
    raw = text.encode()
    if kind == "truncate":
        return raw[: args[0] % len(raw)]
    if kind == "flip":
        at = args[0] % len(raw)
        return raw[:at] + bytes([raw[at] ^ args[1]]) + raw[at + 1 :]
    lines = text.splitlines()
    if kind == "endings":  # a BOM or not, and each line's ending chosen by a bit of the mask
        bom, mask = args
        ends = ("\n", "\r\n")
        body = "".join(line + ends[mask >> (i % 16) & 1] for i, line in enumerate(lines))
        return ("\ufeff" if bom else "").encode() + body.encode()
    at, *args = args
    at %= len(lines) + (kind == "insert")
    if kind == "replace":
        lines[at] = args[0]
    elif kind == "field":  # one tab-separated field of the line
        column, value = args
        fields = lines[at].split("\t")
        fields[column % len(fields)] = value
        lines[at] = "\t".join(fields)
    else:
        lines.insert(at, args[0])
    return "".join(line + "\n" for line in lines).encode()


def line_mutations(bad_lines: tuple[str, ...], values: tuple[str, ...] = ()):
    """Truncation, a byte flip, a BOM with any mix of LF and CRLF endings, a
    line replaced by one of ``bad_lines``, or a line the reader skips
    inserted; with ``values``, also one field of a line replaced by one of
    them."""
    mutations = [
        st.tuples(st.just("truncate"), st.integers(0, 10**6)),
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
        st.tuples(st.just("endings"), st.booleans(), st.integers(0, 2**16 - 1)),
        st.tuples(st.just("replace"), st.integers(0, 10**6), st.sampled_from(bad_lines)),
        st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(_SKIPPED_LINES)),
    ]
    if values:
        mutations.append(
            st.tuples(st.just("field"), st.integers(0, 10**6), st.integers(0, 3), st.sampled_from(values))
        )
    return st.one_of(*mutations)


def check_mutated_input(inputs, name: str, mutation: tuple, mutate=mutate_lines) -> None:
    """Run the command that reads the ``name`` file mutated as ``mutation``
    says (``mutate`` gives the bytes): it must exit 0, 1 or 2 with no
    traceback, and print one ``error:`` line exactly when it exits 1.  A file
    changed only where the reader skips gives the unmutated output; a bad
    line is an error naming its line."""
    texts, valid, path, args, out = inputs
    path.write_bytes(mutate(texts[name], mutation))
    out.unlink(missing_ok=True)
    proc = run_cli(args[name])
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == (proc.returncode == 1), proc.stderr
    if mutation[0] in ("endings", "insert"):  # nothing but what the reader skips changed
        assert proc.returncode == 0 and out.read_bytes() == valid[name], proc.stderr
    if mutation[0] == "replace":
        assert proc.returncode == 1 and "line" in errors[0], proc.stderr


# lines the reader skips: comments and whitespace alone
_SKIPPED_LINES = ("#", "# a0\tA\tB", "#\t", "", "   ", "\t", " \t \t", "\r", "\x0c")
# a label line with a wrong field count or an empty field, each an error
_BAD_LABEL_LINES = ("a0", "a0\tA\tB", "\tA", "a0\t", "a0\t\tA", "a0\tA\t", " \tA\tB")
# a triple line with a wrong field count or an empty field, each an error
_BAD_TRIPLE_LINES = ("a0", "a0\tp", "a0\tp\tb0\tc0", "\tp\tb0", "a0\t\tb0", "a0\tp\t", "a0\tp\tb0\t")


@settings(max_examples=12, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation=line_mutations(_BAD_LABEL_LINES))
@example(mutation=("endings", True, 0b1010))
@example(mutation=("endings", True, 2**16 - 1))
@example(mutation=("truncate", 0))
@example(mutation=("replace", 3, "a0\tA\tB"))
@example(mutation=("replace", 0, "a0\t"))
@example(mutation=("replace", 5, "a0"))
@example(mutation=("insert", 0, "# a0\tA\tB"))
@example(mutation=("insert", 7, " \t \t"))
def test_a_mutated_labels_file_exits_0_1_or_2_with_one_error_line(mined_tsv, mutation):
    check_mutated_input(mined_tsv, "labels", mutation)


@settings(max_examples=12, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation=line_mutations(_BAD_TRIPLE_LINES))
@example(mutation=("endings", True, 0b1010))
@example(mutation=("endings", True, 2**16 - 1))
@example(mutation=("truncate", 0))
@example(mutation=("replace", 3, "a0\tp\tb0\tc0"))
@example(mutation=("replace", 0, "a0\t\tb0"))
@example(mutation=("replace", 5, "a0\tp"))
@example(mutation=("insert", 0, "# a0\tp\tb0"))
@example(mutation=("insert", 7, " \t \t"))
def test_a_mutated_triples_file_exits_0_1_or_2_with_one_error_line(mined_tsv, mutation):
    check_mutated_input(mined_tsv, "triples", mutation)


@pytest.fixture(scope="module")
def applied_inputs(tmp_path_factory):
    """The inputs that ``score`` and ``evaluate`` read, on a perturbation and
    on a PCA removal of A owns B owns C, in the shape of ``mined_tsv``: for
    each name (``test-edges``, ``ranking``, and a truth file of either kind)
    the valid file's text, the output the command writes from it, and the
    arguments that read its mutated copy in its place."""
    tmp = tmp_path_factory.mktemp("applied")
    triples, labels = write_inputs(tmp, chained_ownership_kg(n_a=4, d_a=2, d_b=2))
    mutated, out = tmp / "mutated", tmp / "out"
    pert, pca = tmp / "perturbation", tmp / "pca_removal"
    common = ["--graph", triples, "--labels", labels, "--q", "0.1"]
    assert main(["perturb", *common, "--out", str(pert), "--anomalies", "a3"]) == 0
    assert main(["perturb", *common, "--out", str(pca), "--pca"]) == 0
    inputs = {}  # each perturbed graph and the model mined from it
    for d in (pert, pca):
        graph = ["--graph", str(d / "triples.tsv"), "--labels", str(d / "labels.tsv")]
        assert main(["summarize", *graph, "--out", str(d / "model.json")]) == 0
        inputs[d] = [*graph, "--model", str(d / "model.json")]
    files = {"test-edges": pert / "test_edges.tsv", "ranking": pert / "ranking.tsv",
             "perturbation": pert / "truth.json", "pca_removal": pca / "truth.json"}
    score = ["score", *inputs[pert], "--test-edges"]
    assert main([*score, str(files["test-edges"]), "--out", str(files["ranking"])]) == 0
    evaluate = ["evaluate", "--out", str(out), "--truth"]
    args = {
        "test-edges": [*score, str(mutated), "--out", str(out)],
        "ranking": [*evaluate, str(files["perturbation"]), "--ranking", str(mutated)],
        "perturbation": [*evaluate, str(mutated), "--ranking", str(files["ranking"])],
        "pca_removal": [*evaluate, str(mutated), *inputs[pca]],
    }
    texts = {name: path.read_text(encoding="utf-8") for name, path in files.items()}
    valid = {}
    for name, text in texts.items():
        mutated.write_text(text, encoding="utf-8")
        assert main(args[name]) == 0
        valid[name] = out.read_bytes()
    return texts, valid, mutated, args, out


# a test-edge line with a wrong field count, an empty field or an unknown name, each an error
_BAD_EDGE_LINES = ("a0", "a0\tp", "a0\tp\tb0\tc0", "\tp\tb0", "a0\t\tb0", "a0\tp\t", "nobody\tp\tb0", "a0\tp\tnobody")


@settings(max_examples=12, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation=line_mutations(_BAD_EDGE_LINES, ("nobody", "p", "a0", "", " ")))
@example(mutation=("endings", True, 0b1010))
@example(mutation=("truncate", 0))
@example(mutation=("replace", 3, "a0\tp\tb0\tc0"))
@example(mutation=("insert", 0, "# a0\tp\tb0"))
@example(mutation=("field", 0, 0, "nobody"))
@example(mutation=("field", 1, 1, "nobody"))
@example(mutation=("field", 2, 2, "nobody"))
def test_a_mutated_test_edges_file_exits_0_1_or_2_with_one_error_line(applied_inputs, mutation):
    # a wrong type here is a name the graph does not know, in each of the three fields
    check_mutated_input(applied_inputs, "test-edges", mutation)


# a ranking line with a wrong field count, an empty field or a score that is not a number, each an error
_BAD_RANKING_LINES = ("a0\tp\tb0", "a0\tp\tb0\t1\t2", "a0\tp\tb0\t", "\tp\tb0\t1", "a0\tp\tb0\tnan", "a0\tp\tb0\tx")
# scores: NaN, infinities, a huge number, and text that is not a number
_SCORES = ("nan", "NaN", "inf", "-Infinity", "1e999", "9" * 5000, "abc", " ", "nobody")


@settings(max_examples=12, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation=line_mutations(_BAD_RANKING_LINES, _SCORES))
@example(mutation=("endings", True, 0b1010))
@example(mutation=("truncate", 0))
@example(mutation=("replace", 3, "a0\tp\tb0\tnan"))
@example(mutation=("insert", 0, "# a0\tp\tb0\t1"))
@example(mutation=("field", 0, 0, "nobody"))
@example(mutation=("field", 1, 1, "nobody"))
@example(mutation=("field", 2, 2, "nobody"))
@example(mutation=("field", 3, 3, "abc"))
@example(mutation=("field", 4, 3, "inf"))
@example(mutation=("field", 5, 3, "9" * 5000))
def test_a_mutated_ranking_file_exits_0_1_or_2_with_one_error_line(applied_inputs, mutation):
    # a wrong type is an unknown edge in the first three fields, and a score that is not a number
    check_mutated_input(applied_inputs, "ranking", mutation)


# where a wrong value goes in each kind of truth file, as a dotted path of keys and list indexes
_TRUTH_FIELDS = {
    "perturbation": (
        "kind", "q", "seed", "types", "positives", "negatives", "positives.0.s", "positives.0.p",
        "positives.0.o", "positives.0.types", "positives.0.split", "negatives.0.s", "negatives.0.p",
        "negatives.0.o", "negatives.0.split",
    ),
    "pca_removal": (
        "kind", "q", "seed", "removed", "removed.0.labels", "removed.0.split", "removed.0.destroyed",
        "removed.0.destroyed.0.survivor", "removed.0.destroyed.0.predicate", "removed.0.destroyed.0.direction",
    ),
}


def mutate_json(text: str, mutation: tuple) -> bytes:
    """The bytes of the JSON file ``text`` changed as ``mutation`` says: as
    ``mutate_lines`` changes any file, or with the value at a dotted path
    replaced by a value of another JSON type, by a number literal, or by
    itself inside that many nested lists."""
    kind, *args = mutation
    if kind in ("truncate", "flip", "endings"):
        return mutate_lines(text, mutation)
    path, value = args
    *keys, last = (int(key) if key.isdigit() else key for key in path.split("."))
    doc = json.loads(text)
    node = doc
    for key in keys:
        node = node[key]
    if kind == "type":
        value = json.dumps(value)
    elif kind == "nest":
        value = "[" * value + json.dumps(node[last]) + "]" * value
    node[last] = "@value@"  # then the literal, which json.dumps could not write
    return json.dumps(doc, indent=2).replace('"@value@"', value).encode()


def truth_mutations(name: str):
    """A truth file of kind ``name`` truncated, with a byte flipped, with a
    BOM and any mix of LF and CRLF endings, or with one value replaced by a
    value of the wrong type, NaN, an infinity or a huge number, or nested
    deeper than the decoder goes."""
    fields = st.sampled_from(_TRUTH_FIELDS[name])
    return st.tuples(st.just(name), st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 10**6)),
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
        st.tuples(st.just("endings"), st.booleans(), st.integers(0, 2**16 - 1)),
        st.tuples(st.just("type"), fields, _WRONG),
        st.tuples(st.just("number"), fields, st.sampled_from(_NUMBER_LITERALS)),
        st.tuples(st.just("nest"), fields, st.sampled_from((1, 900, 3000))),
    ))


def wrong_type_examples(test):
    """``test`` with an explicit example per truth field: a list holding a number there."""
    for name, fields in _TRUTH_FIELDS.items():
        for field in fields:
            test = example(case=(name, ("type", field, [0])))(test)
    return test


@settings(max_examples=12, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(*map(truth_mutations, _TRUTH_FIELDS)))
@example(case=("perturbation", ("endings", True, 0b1010)))
@example(case=("pca_removal", ("endings", True, 2**16 - 1)))
@example(case=("perturbation", ("nest", "q", 3000)))
@example(case=("pca_removal", ("number", "seed", "9" * 5000)))
@wrong_type_examples
def test_a_mutated_truth_file_exits_0_1_or_2_with_one_error_line(applied_inputs, case):
    name, mutation = case
    check_mutated_input(applied_inputs, name, mutation, mutate_json)


def test_truth_file_given_as_the_model_exits_1_with_one_error_line(tmp_path):
    # a truth file is a JSON object too, but it has no rules to apply
    g = chained_ownership_kg(n_a=10, d_a=3, d_b=4)
    triples, labels = write_inputs(tmp_path, g)
    out = tmp_path / "perturbed"
    assert main(["perturb", "--graph", triples, "--labels", labels, "--out", str(out),
                 "--q", "0.02", "--anomalies", "a3", "--seed", "5"]) == 0
    proc = run_cli(["score", "--graph", str(out / "triples.tsv"), "--labels", str(out / "labels.tsv"),
                    "--model", str(out / "truth.json"), "--test-edges", str(out / "test_edges.tsv"),
                    "--out", str(tmp_path / "r.tsv")])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1
    assert not (tmp_path / "r.tsv").exists()


@pytest.mark.parametrize("depth", [150, 400])
def test_deeply_nested_model_exits_1_without_traceback(tmp_path, depth):
    # 150 levels decode and exceed the rule depth limit; 400 levels overflow
    # the JSON decoder.  The text is built by hand: json.dump overflows too.
    triples, labels = tmp_path / "t.tsv", tmp_path / "l.tsv"
    triples.write_text("a\tp\ta\n")
    labels.write_text("a\tX\n")
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tp\ta\n")
    rule = '{"root_labels": ["X"], "children": []}'
    for _ in range(depth - 1):
        rule = f'{{"root_labels": ["X"], "children": [{{"predicate": "p", "direction": "out", "child": {rule}}}]}}'
    model = tmp_path / "model.json"
    model.write_text(f'{{"rules": [{{"rule": {rule}}}]}}')
    proc = run_cli(["score", "--graph", str(triples), "--labels", str(labels), "--model", str(model),
                    "--test-edges", str(edges), "--out", str(tmp_path / "r.tsv")])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "name, text",
    [
        ("model", '{"rules": [\n\n'),
        pytest.param(
            "model", '{"rules": [], "L_rule_bits": ' + "9" * 5000 + "}",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"),
        ),
        ("truth", '{"kind": "perturbation", "q": 0.5,'),
    ],
    ids=["truncated-model", "5000-digit-model-number", "truncated-truth"],
)
def test_json_that_does_not_decode_exits_1_naming_the_file(tmp_path, capsys, name, text):
    # the decoder's message alone does not say which of the input files it is about
    triples, labels = tmp_path / "t.tsv", tmp_path / "l.tsv"
    triples.write_text("a\tp\tb\n")
    labels.write_text("a\tX\nb\tX\n")
    path = {"model": tmp_path / "model.json", "truth": tmp_path / "truth.json"}
    path["model"].write_text(json.dumps({"rules": []}))
    path["truth"].write_text(json.dumps({"kind": "pca_removal", "q": 0.5, "seed": 0, "removed": []}))
    path[name].write_text(text)
    args = ["evaluate", "--truth", str(path["truth"]), "--model", str(path["model"]),
            "--graph", str(triples), "--labels", str(labels), "--out", str(tmp_path / "e.json")]
    assert main(args) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {path[name]}: "), errors


@pytest.mark.parametrize("text", ["[" * 3000 + "]" * 3000, "[]"])
def test_truth_file_that_is_not_a_truth_object_exits_1_without_traceback(tmp_path, text):
    # 3,000 nested arrays overflow the JSON decoder; [] decodes but is no truth
    triples, labels = tmp_path / "t.tsv", tmp_path / "l.tsv"
    triples.write_text("a\tp\tb\n")
    labels.write_text("a\tX\nb\tY\n")
    truth = tmp_path / "truth.json"
    truth.write_text(text)
    proc = run_cli(["evaluate", "--truth", str(truth), "--graph", str(triples), "--labels", str(labels),
                    "--out", str(tmp_path / "e.json")])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1


_EDGE = {"s": "a", "p": "p", "o": "b", "types": ["a3"], "split": "test"}
_REMOVED = {"node": "c", "labels": ["X"], "split": "test", "destroyed": []}
_DESTROYED = {"survivor": "a", "predicate": "p"}


@pytest.mark.parametrize(
    "truth",
    [
        {"kind": "perturbation", "positives": 5, "negatives": []},
        {"kind": "perturbation", "positives": [{k: v for k, v in _EDGE.items() if k != "p"}],
         "negatives": [{**_EDGE, "s": "b", "o": "a"}]},
        {"kind": "pca_removal", "removed": [{k: v for k, v in _REMOVED.items() if k != "split"}]},
        {"kind": "pca_removal", "removed": [{**_REMOVED, "destroyed": [{**_DESTROYED, "direction": "up"}]}]},
        {"kind": "pca_removal", "removed": [{**_REMOVED, "labels": [["X"]]}]},
        {"kind": "perturbation", "positives": [{**_EDGE, "types": [["a1"]]}],
         "negatives": [{**_EDGE, "s": "b", "o": "a"}]},
    ],
    ids=["positives-not-a-list", "positive-without-p", "removed-without-split", "direction-up",
         "removed-labels-not-strings", "positive-types-not-strings"],
)
def test_malformed_truth_records_exit_1_with_one_error_line(tmp_path, truth):
    triples, labels = tmp_path / "t.tsv", tmp_path / "l.tsv"
    triples.write_text("a\tp\tb\nb\tp\ta\n")
    labels.write_text("a\tX\nb\tX\n")
    ranking, model = tmp_path / "r.tsv", tmp_path / "model.json"
    ranking.write_text("a\tp\tb\t2.0\nb\tp\ta\t1.0\n")
    model.write_text(json.dumps({"rules": []}))
    path = tmp_path / "truth.json"
    doc = {"q": 0.5, "seed": 0, "types": ["a3"], **truth}
    path.write_text(json.dumps(doc))
    if truth["kind"] == "perturbation":
        inputs = ["--ranking", str(ranking)]
    else:
        inputs = ["--model", str(model), "--graph", str(triples), "--labels", str(labels)]
    proc = run_cli(["evaluate", "--truth", str(path), *inputs, "--out", str(tmp_path / "e.json")])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    with pytest.raises(MetricsError) as rejected:
        check_truth(doc)
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {rejected.value}"]


@pytest.mark.parametrize("q", [float("nan"), 0, 1.5, True, "0.1"], ids=["nan", "zero", "above-one", "bool", "string"])
def test_truth_q_that_perturb_cannot_write_exits_1_with_one_error_line(tmp_path, q):
    # perturb writes q as a number in (0, 1]
    triples, labels = tmp_path / "t.tsv", tmp_path / "l.tsv"
    triples.write_text("a\tp\tb\nb\tp\ta\n")
    labels.write_text("a\tX\nb\tX\n")
    model, path, report = tmp_path / "model.json", tmp_path / "truth.json", tmp_path / "e.json"
    model.write_text(json.dumps({"rules": []}))
    path.write_text(json.dumps({"kind": "pca_removal", "q": q, "seed": 0, "removed": [_REMOVED]}))
    proc = run_cli(["evaluate", "--truth", str(path), "--model", str(model), "--graph", str(triples),
                    "--labels", str(labels), "--out", str(report)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    with pytest.raises(MetricsError, match=r"truth 'q' must be a number in \(0, 1\]") as rejected:
        check_truth(json.loads(path.read_text()))
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {rejected.value}"]
    assert not report.exists()


@pytest.mark.parametrize("seed", ["x", 1.5, True, None], ids=["string", "float", "bool", "null"])
def test_truth_seed_that_perturb_cannot_write_exits_1_with_one_error_line(tmp_path, seed):
    # perturb writes the seed as an integer
    triples, labels = tmp_path / "t.tsv", tmp_path / "l.tsv"
    triples.write_text("a\tp\tb\nb\tp\ta\n")
    labels.write_text("a\tX\nb\tX\n")
    model, path, report = tmp_path / "model.json", tmp_path / "truth.json", tmp_path / "e.json"
    model.write_text(json.dumps({"rules": []}))
    path.write_text(json.dumps({"kind": "pca_removal", "q": 0.5, "seed": seed, "removed": [_REMOVED]}))
    proc = run_cli(["evaluate", "--truth", str(path), "--model", str(model), "--graph", str(triples),
                    "--labels", str(labels), "--out", str(report)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    with pytest.raises(MetricsError, match=r"truth 'seed' must be an integer") as rejected:
        check_truth(json.loads(path.read_text()))
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {rejected.value}"]
    assert not report.exists()


def test_self_loop_graph_runs_end_to_end(tmp_path):
    # a's matching neighbours, a itself and b, number |V|
    triples, labels = tmp_path / "triples.tsv", tmp_path / "labels.tsv"
    triples.write_text("a\tp\ta\na\tp\tb\n")
    labels.write_text("a\tX\nb\tX\n")
    base = ["--graph", str(triples), "--labels", str(labels)]
    model = tmp_path / "model.json"
    assert main(["summarize", *base, "--out", str(model)]) == 0
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tp\ta\n")
    assert main(["score", *base, "--model", str(model), "--test-edges", str(edges),
                 "--out", str(tmp_path / "ranking.tsv")]) == 0
    missing = tmp_path / "missing.json"
    assert main(["complete", *base, "--model", str(model), "--out", str(missing)]) == 0


def perturbed_for_ranking(tmp_path):
    """A perturbation's truth file and the rows of its test edges."""
    triples, labels = write_inputs(tmp_path, chained_ownership_kg(n_a=20, d_a=3, d_b=4))
    out = tmp_path / "perturbed"
    assert main(["perturb", "--graph", triples, "--labels", labels, "--out", str(out),
                 "--q", "0.05", "--anomalies", "a3"]) == 0
    return out / "truth.json", (out / "test_edges.tsv").read_text().splitlines()


@pytest.mark.parametrize("score", ["nan", "abc"])
def test_a_score_that_is_not_a_number_exits_1_naming_the_file_and_line(tmp_path, score):
    # NaN equals no score, itself included, so the AUC's tie loop could never
    # move past it; the child's timeout turns such a hang into a failure
    truth, edges = perturbed_for_ranking(tmp_path)
    ranking, report = tmp_path / "r.tsv", tmp_path / "e.json"
    ranking.write_text("".join(f"{line}\t{score if i == 1 else i}\n" for i, line in enumerate(edges)))
    proc = run_cli(["evaluate", "--truth", str(truth), "--ranking", str(ranking), "--out", str(report)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {ranking}, line 2: score {score!r} is not a number"]
    assert not report.exists()


def test_infinite_scores_evaluate(tmp_path):
    truth, edges = perturbed_for_ranking(tmp_path)
    ranking, report = tmp_path / "r.tsv", tmp_path / "e.json"
    scores = ["inf", "-inf", *map(str, range(len(edges) - 2))]
    ranking.write_text("".join(f"{line}\t{score}\n" for line, score in zip(edges, scores)))
    proc = run_cli(["evaluate", "--truth", str(truth), "--ranking", str(ranking), "--out", str(report)])
    assert proc.returncode == 0, proc.stderr
    assert 0.0 <= json.loads(report.read_text())["auc"] <= 1.0


@pytest.mark.parametrize("bad", ["graph", "labels", "test-edges", "model", "ranking", "truth"])
def test_undecodable_bytes_exit_1_naming_the_file_and_line(tmp_path, bad):
    texts = {
        "graph": "a\tp\tb\nb\tp\ta\n",
        "labels": "a\tX\nb\tX\n",
        "test-edges": "a\tp\tb\n",
        "model": json.dumps({"rules": []}),
        "ranking": "a\tp\tb\t2.0\nb\tp\ta\t1.0\n",
        "truth": json.dumps({"kind": "perturbation", "q": 0.5, "seed": 0, "types": ["a3"],
                             "positives": [_EDGE], "negatives": [{**_EDGE, "s": "b", "o": "a"}]}),
    }
    path = {name: tmp_path / f"{name}.txt" for name in texts}
    for name, text in texts.items():
        path[name].write_text(text, encoding="utf-8")
    # blank lines are skipped, and 9,000 of them put the bad byte past the
    # first chunk that the text reader decodes
    path[bad].write_bytes(b"\n" * 9000 + b"a\xff\n" + texts[bad].encode())
    graph = ["--graph", str(path["graph"]), "--labels", str(path["labels"])]
    out = str(tmp_path / "out")
    if bad in ("graph", "labels"):
        args = ["summarize", *graph, "--out", out]
    elif bad in ("test-edges", "model"):
        args = ["score", *graph, "--model", str(path["model"]), "--test-edges", str(path["test-edges"]),
                "--out", out]
    else:
        args = ["evaluate", "--truth", str(path["truth"]), "--ranking", str(path["ranking"]), "--out", out]
    proc = run_cli(args)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {path[bad]}, line 9001: not valid UTF-8"]

import builtins
import gc
import math
import random
import tracemalloc
import warnings
import weakref
from array import array

import pytest

from kgsum import miner
from kgsum.encoding import assertions_cost, error_cost_counts, log_binomial
from kgsum.graph import parse_graph
from kgsum.miner import (
    REFINE_MODES,
    ConfigError,
    Model,
    NestCounts,
    RuleEntry,
    build_model,
    generate_candidates,
    nest_bound,
    qualify,
    qualify_all,
    rank,
    refine_merge,
    refine_nest,
    select,
    summarize,
    model_to_dict,
    model_from_dict,
)
from kgsum.rules import IN, OUT, Child, Rule, RuleFormatError, canonicalize, match, rule_text, rule_to_dict

from oracles import (
    brute_force_best_subset,
    modeled_edge_ids,
    oracle_refine_nest,
    oracle_select,
    oracle_total_cost,
    oracle_traversal_bits,
)
from synth import (
    atomic,
    bench_kg,
    chain_kg,
    chained_ownership_kg,
    model_rules,
    planted_cycle_kg,
    private_children_kg,
    random_kg,
    scaling_kg_lines,
    two_branch_kg,
)


def single_edge_graph():
    return parse_graph(
        ["novel0\twrittenBy\twriter0\n"],
        ["novel0\tBook\n", "writer0\tAuthor\n"],
    )


def test_generation_yields_both_orientations():
    g = single_edge_graph()
    cands = generate_candidates(g)
    assert len(cands) == 2
    book, author = g.label_id("Book"), g.label_id("Author")
    wb = g.pred_id("writtenBy")
    rules = {c.rule for c in cands}
    assert atomic(book, wb, OUT, author) in rules
    assert atomic(author, wb, IN, book) in rules
    a, b = cands
    assert a.reverse_partner is b and b.reverse_partner is a
    assert all(c.num_correct == 1 and c.num_exceptions == 0 for c in cands)


def test_generation_two_labels_each_side_gives_eight():
    g = parse_graph(
        ["a\tp\tb\n"],
        ["a\tX1\n", "a\tX2\n", "b\tY1\n", "b\tY2\n"],
    )
    assert len(generate_candidates(g)) == 8


def test_generation_unlabeled_graph_gives_nothing():
    g = parse_graph(["a\tp\tb\n"], [])
    assert generate_candidates(g) == []


def test_generation_label_cap_restricts_to_frequent_labels():
    g = parse_graph(
        ["a\tp\tb\n", "c\tp\td\n"],
        ["a\tX\n", "c\tX\n", "b\tY\n", "d\tY\n", "a\tRare\n"],
    )
    capped = generate_candidates(g, label_cap=2)
    used = {l for c in capped for l in c.rule.root_labels}
    used |= {l for c in capped for ch in c.rule.children for l in ch.child.root_labels}
    assert g.label_id("Rare") not in used
    assert len(capped) == 2


@pytest.mark.parametrize("cap", [0, -1])
def test_generation_rejects_label_cap_below_one(cap):
    # -1 used as a slice bound would drop the rarest label; 0 would mine nothing
    g = single_edge_graph()
    with pytest.raises(ConfigError, match=f"label_cap must be >= 1, got {cap}"):
        generate_candidates(g, label_cap=cap)
    with pytest.raises(ConfigError):
        summarize(g, label_cap=cap)


def test_generation_dedups_across_edges():
    g = parse_graph(
        ["a\tp\tb\n", "c\tp\td\n"],
        ["a\tX\n", "c\tX\n", "b\tY\n", "d\tY\n"],
    )
    cands = generate_candidates(g)
    assert len(cands) == 2
    out = next(c for c in cands if c.rule.children[0].direction == OUT)
    assert out.num_correct == 2
    assert len(out.covered_edge_ids) == 2
    assert set(out.correct_starts) == {g.node_id("a"), g.node_id("c")}
    # each start matches exactly one neighbor
    v = g.num_nodes
    assert out.traversal_bits == 2 * (math.log2(v) + log_binomial(v - 1, 1))


def qualify_graph():
    """Three best-seller books with authors; five plain books without."""
    triples = [f"book{i}\twrittenBy\tauthor{i}\n" for i in range(3)]
    labels = []
    for i in range(3):
        labels += [f"book{i}\tBook\n", f"book{i}\tBestSeller\n", f"author{i}\tAuthor\n"]
    labels += [f"plain{i}\tBook\n" for i in range(5)]
    return parse_graph(triples, labels)


def test_qualify_strengthens_root_and_drops_exceptions():
    g = qualify_graph()
    cands = generate_candidates(g)
    c = next(c for c in cands if c.rule.children and c.rule.children[0].direction == OUT)
    correct_before = set(c.correct_starts)
    assert c.num_exceptions == 5
    qualify(c, g)
    assert c.rule.root_labels == frozenset({g.label_id("Book"), g.label_id("BestSeller")})
    assert set(c.correct_starts) == correct_before
    assert c.num_exceptions == 0


def test_qualify_unchanged_when_starts_share_only_root():
    g = parse_graph(
        ["a\tp\tb\n", "c\tp\td\n"],
        ["a\tX\n", "c\tX\n", "c\tExtra\n", "b\tY\n", "d\tY\n"],
    )
    cands = generate_candidates(g)
    c = next(c for c in cands if c.rule.children[0].direction == OUT and c.rule.root_labels == frozenset({g.label_id("X")}))
    rule_before = c.rule
    qualify(c, g)
    assert c.rule == rule_before


def test_qualify_all_dedups_structural_collisions():
    g = qualify_graph()
    cands = qualify_all(generate_candidates(g), g)
    keys = [c.canon_key for c in cands]
    assert len(keys) == len(set(keys))
    for c in cands:
        assert c.reverse_partner in cands


def test_rank_orders_by_gain_then_correct_then_root():
    g = parse_graph(
        # X->Y via p occurs 5 times; W->Z via q occurs once
        [f"x{i}\tp\ty{i}\n" for i in range(5)] + ["w\tq\tz\n"],
        [f"x{i}\tX\n" for i in range(5)]
        + [f"y{i}\tY\n" for i in range(5)]
        + ["w\tW\n", "z\tZ\n"],
    )
    ranked = rank(qualify_all(generate_candidates(g), g), g)
    assert len(ranked[0].covered_edge_ids) == 5  # big pattern first
    # orientations of the same pattern tie on gain and correct-count; the
    # lexicographically smaller root breaks the tie
    first_pair = [c for c in ranked if len(c.covered_edge_ids) == 5]
    assert first_pair[0].root_key <= first_pair[1].root_key


def test_rank_tie_breaks_by_correct_count():
    # same covered sizes, different correct-start counts
    g = parse_graph(
        [f"a{i}\tp\tb\n" for i in range(3)] + [f"c{i}\tq\td{i}\n" for i in range(3)],
        [f"a{i}\tA\n" for i in range(3)]
        + ["b\tB\n"]
        + [f"c{i}\tC\n" for i in range(3)]
        + [f"d{i}\tD\n" for i in range(3)],
    )
    cands = qualify_all(generate_candidates(g), g)
    ranked = rank(cands, g)
    # every candidate covers 3 edges + 3 (or 1) label slots; compare the two
    # with equal gain explicitly
    def gain(c):
        err = error_cost_counts(g, len(c.covered_label_ids), len(c.covered_edge_ids))
        return error_cost_counts(g, 0, 0) - err

    for a, b in zip(ranked, ranked[1:]):
        if gain(a) == gain(b):
            assert (a.num_correct, -ord(a.root_key[0])) >= (b.num_correct, -ord(b.root_key[0]))


def test_select_accepts_compressing_rule():
    g = private_children_kg(n_roots=20, degree=3)
    ranked = rank(qualify_all(generate_candidates(g), g), g)
    model = select(g, ranked)
    assert len(model.entries) >= 1
    empty = build_model(g, [])
    assert model.total < empty.total
    assert all(delta < 0 for phase, _, delta, _ in model.history if phase == "select")


def test_select_skips_redundant_coverage():
    # the reverse orientation explains the same edges with far costlier
    # assertions (sixty one-neighbor starts); it must not be added on top
    g = private_children_kg(n_roots=20, degree=3)
    ranked = rank(qualify_all(generate_candidates(g), g), g)
    model = select(g, ranked)
    assert model_rules(model) == [atomic(g.label_id("A"), g.pred_id("p"), OUT, g.label_id("B"))]


def test_select_considers_reverse_pair_and_keeps_cheaper():
    # white-box check of the pair logic: the first-ranked orientation is made
    # artificially expensive, so select must add its cheaper reverse instead
    g = private_children_kg(n_roots=6, degree=2)
    a, b, p = g.label_id("A"), g.label_id("B"), g.pred_id("p")
    covered = array("I", range(5))

    def make(rule, root_key, traversal_bits):
        return RuleEntry(
            rule=rule,
            canon_key=(root_key,),
            correct_starts=array("I", [0]),
            num_assertions=1,
            covered_edge_ids=covered,
            covered_label_ids=array("I"),
            rule_bits=5.0,
            traversal_bits=traversal_bits,
        )

    expensive = make(atomic(a, p, OUT, b), "A", 500.0)
    cheap = make(atomic(b, p, IN, a), "B", 10.0)
    expensive.reverse_partner = cheap
    cheap.reverse_partner = expensive
    model = select(g, [expensive, cheap])
    assert len(model.entries) == 1 and model.entries[0] is cheap
    assert expensive.rule not in model_rules(model)


def test_select_leaves_its_candidates_reusable():
    g = chained_ownership_kg()
    ranked = ranked_candidates(g)
    first = select(g, ranked).history
    assert len(first) > 1
    assert select(g, ranked).history == first


def test_select_max_passes_validation():
    g = single_edge_graph()
    with pytest.raises(ConfigError):
        select(g, [], max_passes=0)


def test_select_greedy_vs_bruteforce_tiny():
    rng = random.Random(2024)
    for _ in range(12):
        g = random_kg(rng, max_nodes=7, max_labels=3, max_preds=2)
        cands = rank(qualify_all(generate_candidates(g), g), g)[:4]
        model = select(g, cands)
        greedy_total = model.total_bits
        baseline = oracle_total_cost(g, [])
        optimal, _ = brute_force_best_subset(g, [c.rule for c in cands])
        assert optimal <= greedy_total + 1e-9
        assert greedy_total <= baseline + 1e-9


def ranked_candidates(g):
    return rank(qualify_all(generate_candidates(g), g), g)


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12+ computes it: a run of floats is added with
    Neumaier compensation, applied once at the end; other items add plainly."""
    total, comp = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    return total + comp if comp else total


@pytest.mark.parametrize("summation", ["builtin", "compensated"])
def test_select_history_equals_the_resumming_oracle_to_the_bit(summation, monkeypatch):
    # select keeps the model's rule and assertion bits as a running sum; the
    # oracle re-sums them on every evaluation, as select once did.  Python
    # 3.12 compensates sum(), so the same comparison runs under a simulated one
    if summation == "compensated":
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        # a plain left fold rounds 1e16 + 1 to 1e16; compensation keeps the 1
        assert sum([1e16, 1.0, -1e16]) == 1.0 and sum([[1], [2]], []) == [1, 2]
    rng = random.Random(6061)
    graphs = [random_kg(rng, max_nodes=10, max_labels=3, max_preds=2, edge_factor=2.0)
              for _ in range(40)]
    # tiny random graphs compress too little for select to accept a rule, so
    # noisy planted cycles of random shape supply the accepted steps
    graphs += [
        planted_cycle_kg(num_nodes=rng.randint(100, 300), num_classes=rng.randint(5, 12),
                         out_degree=(2, rng.randint(2, 6)), seed=seed, noise=rng.uniform(0.01, 0.2))
        for seed in range(12)
    ]
    graphs += [two_branch_kg(), chained_ownership_kg()]
    accepted = 0
    for g in graphs:
        want = oracle_select(g, ranked_candidates(g))
        model = select(g, ranked_candidates(g))
        assert model.history == want
        accepted += len(want) - 1
    assert accepted >= 60


@pytest.mark.parametrize(
    "make",
    [chained_ownership_kg, two_branch_kg, chain_kg, lambda: planted_cycle_kg(num_nodes=400, noise=0.05)],
    ids=["chained_ownership", "two_branch", "chain", "planted_cycle"],
)
def test_model_file_is_the_same_under_a_compensated_sum(make, monkeypatch):
    # no cost on the way to a model file goes through a float sum(), so the
    # file is the same whether sum() compensates (Python 3.12+) or not
    g = make()
    docs = []
    for summation in (builtins.sum, compensated_sum):
        monkeypatch.setattr(builtins, "sum", summation)
        log_binomial.cache_clear()  # a cached value would hide how it was summed
        docs.append(model_to_dict(summarize(g, refine="nest")))
    log_binomial.cache_clear()
    assert docs[0] == docs[1]
    assert docs[0]["rules"]


def fold(entries) -> float:
    bits = 0.0
    for e in entries:
        bits += e.model_bits
    return bits


def test_stored_model_sum_equals_a_fold_over_the_entries():
    rng = random.Random(6062)
    graphs = [two_branch_kg(), chained_ownership_kg(), chain_kg(),
              planted_cycle_kg(num_nodes=200, noise=0.05)]
    graphs += [random_kg(rng, max_nodes=9, max_labels=3, max_preds=2, edge_factor=2.0)
               for _ in range(10)]
    phases = set()
    for g in graphs:
        for refine in REFINE_MODES:
            model = summarize(g, refine=refine)
            phases.update(phase for phase, *_ in model.history)
            assert model.rule_and_assertion_bits == fold(model.entries)
            rebuilt = model_from_dict(model_to_dict(model), g)
            assert rebuilt.rule_and_assertion_bits == fold(rebuilt.entries)
    assert {"select", "merge", "nest"} <= phases


def test_refine_merge_fuses_shared_root_rules():
    g = two_branch_kg(n_roots=25, d_p=3, d_q=3)
    model = select(g, rank(qualify_all(generate_candidates(g), g), g))
    a_rules = [e for e in model.entries if e.rule.root_labels == frozenset({g.label_id("A")})]
    assert len(a_rules) == 2
    edges_before = modeled_edge_ids(model)
    total_before = model.total
    refine_merge(model, g)
    assert len(model.entries) == 1
    merged = model.entries[0]
    assert merged.rule.root_labels == frozenset({g.label_id("A")})
    assert len(merged.rule.children) == 2
    assert modeled_edge_ids(model) == edges_before  # coverage invariant under Rm
    assert model.total <= total_before + 1e-9


def test_refine_merge_handles_multiple_groups():
    # two mergeable families with interleaved selection order
    triples, labels = [], []
    b = c = d = e = 0
    for i in range(20):
        labels.append(f"a{i}\tA\n")
        for _ in range(3):
            labels.append(f"b{b}\tB\n")
            triples.append(f"a{i}\tp\tb{b}\n")
            b += 1
        for _ in range(3):
            labels.append(f"c{c}\tC\n")
            triples.append(f"a{i}\tq\tc{c}\n")
            c += 1
    for i in range(20):
        labels.append(f"x{i}\tX\n")
        for _ in range(3):
            labels.append(f"y{d}\tY\n")
            triples.append(f"x{i}\tr\ty{d}\n")
            d += 1
        for _ in range(3):
            labels.append(f"z{e}\tZ\n")
            triples.append(f"x{i}\ts\tz{e}\n")
            e += 1
    g = parse_graph(triples, labels)
    model = select(g, rank(qualify_all(generate_candidates(g), g), g))
    assert len(model.entries) == 4
    edges_before = modeled_edge_ids(model)
    refine_merge(model, g)
    assert len(model.entries) == 2
    assert sorted(len(e.rule.children) for e in model.entries) == [2, 2]
    assert {e.rule.root_labels for e in model.entries} == {
        frozenset({g.label_id("A")}),
        frozenset({g.label_id("X")}),
    }
    assert modeled_edge_ids(model) == edges_before


def test_refine_merge_noop_on_distinct_roots():
    g = private_children_kg(n_roots=20, degree=3)
    model = select(g, rank(qualify_all(generate_candidates(g), g), g))
    entries_before = list(model.entries)
    refine_merge(model, g)
    assert model.entries == entries_before


def test_refine_nest_composes_compatible_rules():
    g = chained_ownership_kg(n_a=20, d_a=3, d_b=4)
    model = select(g, rank(qualify_all(generate_candidates(g), g), g))
    assert len(model.entries) == 2
    total_before = model.total
    refine_nest(model, g)
    assert len(model.entries) == 1
    assert model.entries[0].rule.depth() == 3
    assert model.total < total_before
    nest_steps = [h for h in model.history if h[0] == "nest"]
    assert nest_steps and all(delta < 0 for _, _, delta, _ in nest_steps)
    # the composed rule explains everything the two parts explained
    assert model.num_modeled_edges == g.num_distinct_edges


def test_refine_nest_noop_without_compatible_pairs():
    g = private_children_kg(n_roots=20, degree=3)
    model = select(g, rank(qualify_all(generate_candidates(g), g), g))
    entries_before = list(model.entries)
    refine_nest(model, g)
    assert model.entries == entries_before


def check_nest_against_oracle(g, model, monkeypatch) -> tuple[NestCounts, list[tuple]]:
    """Run refine_nest on ``model`` with every bound recorded; require each
    bound to equal the model bits of the fully matched composition, and the
    result to equal the unpruned straight-line refinement's."""
    bounds = []

    def recording(e_in, path, e_rt, composed_rule, reach, bits_in, bits_rt, g_, slack):
        # the full bound is recorded; refine_nest gets the one that stops once
        # it clears, which prunes the same pairs
        bound = nest_bound(e_in, path, e_rt, composed_rule, reach, bits_in, bits_rt, g_)
        bounds.append((path, composed_rule, bound))
        return nest_bound(e_in, path, e_rt, composed_rule, reach, bits_in, bits_rt, g_, slack)

    monkeypatch.setattr(miner, "nest_bound", recording)
    rules_before = model_rules(model)
    history_before = len(model.history)
    counts = NestCounts()
    refine_nest(model, g, counts)

    for _, composed_rule, bound in bounds:
        if bound is not None:
            # exact, which is more than the prune needs: bound <= model bits
            built = RuleEntry.from_rule(composed_rule, g)
            assert bound == pytest.approx(built.model_bits, rel=1e-12)
    assert counts.considered == len(bounds) == counts.pruned + counts.evaluated
    assert counts.accepted == len(model.history) - history_before

    rules, steps = oracle_refine_nest(g, rules_before)
    assert model_rules(model) == rules
    nests = model.history[history_before:]
    assert [(phase, what) for phase, what, _, _ in nests] == [
        ("nest", rule_text(r, g)) for r, _ in steps
    ]
    assert [t for _, _, _, t in nests] == pytest.approx([t for _, t in steps], rel=1e-9)
    return counts, bounds


def test_refine_nest_prune_matches_unpruned_oracle(monkeypatch):
    mined = [chained_ownership_kg(n_a=6, d_a=2, d_b=2), chain_kg(), planted_cycle_kg(num_nodes=100)]
    models = [(g, summarize(g, refine="merge")) for g in mined]
    # tiny random graphs compress too little to select rules, so nest their
    # six best-ranked candidates
    rng = random.Random(4242)
    for _ in range(40):
        g = random_kg(rng, max_nodes=9, max_labels=3, max_preds=2, edge_factor=2.0)
        ranked = rank(qualify_all(generate_candidates(g), g), g)
        models.append((g, build_model(g, [c.rule for c in ranked[:6]])))
    total = NestCounts()
    deepest = 0
    for g, model in models:
        counts, bounds = check_nest_against_oracle(g, model, monkeypatch)
        for name in ("considered", "pruned", "evaluated", "accepted"):
            setattr(total, name, getattr(total, name) + getattr(counts, name))
        deepest = max([deepest] + [len(path) for path, _, _ in bounds])
    assert total.pruned > 0 and total.accepted > 0
    assert deepest >= 2  # a pair at an inner node of an already nested rule


def test_refine_nest_evaluates_pairs_whose_children_dedup(monkeypatch):
    g = chain_kg("XYZ", fanout=2)
    x, y, z = (g.label_id(n) for n in "XYZ")
    p0, p1 = g.pred_id("p0"), g.pred_id("p1")
    y_z = atomic(y, p1, OUT, z)
    nested = Rule(frozenset({x}), (Child(p0, OUT, y_z),))
    _, bounds = check_nest_against_oracle(g, build_model(g, [nested, y_z]), monkeypatch)
    # nesting y_z beneath the Y node repeats its child, so no bound is used
    assert ((0,), nested, None) in bounds


def labelled(edges: str, labels: str):
    """The graph of the space-separated ``s p o`` triples and ``node label``
    pairs, one per comma-separated item."""
    return parse_graph(
        [e.replace(" ", "\t") + "\n" for e in edges.split(",")],
        [l.replace(" ", "\t") + "\n" for l in labels.split(",")],
    )


def test_nest_bound_counts_no_start_whose_reach_leaves_the_nested_rules_starts(monkeypatch):
    # a1 reaches b1 and b2, a2 reaches b1 alone; b2 has no q edge, so B->q->C
    # holds at b1 only and nesting it beneath A->p->B keeps a2 and loses a1
    g = labelled("a1 p b1,a1 p b2,a2 p b1,b1 q c1", "a1 A,a2 A,b1 B,b2 B,c1 C")
    a, b, c = (g.label_id(n) for n in "ABC")
    host, nested = atomic(a, g.pred_id("p"), OUT, b), atomic(b, g.pred_id("q"), OUT, c)
    _, bounds = check_nest_against_oracle(g, build_model(g, [host, nested]), monkeypatch)
    ((path, composed, bound),) = bounds
    assert path == (0,) and RuleEntry.from_rule(composed, g).num_correct == 1
    assert bound is not None  # and equal to the composition's model bits, checked above


def test_nest_fit_counts_the_nested_rules_starts_the_host_never_reaches(monkeypatch):
    # A->p->B occupies b1 and b2.  B->q->C holds at b1..b6: Jaccard 2/6, the
    # four starts the host never reaches in the union.  B->r->D holds at b1
    # alone: Jaccard 1/2, so its pair is tried first
    bs = [f"b{k}" for k in range(1, 7)]
    g = labelled(
        ",".join(["a1 p b1", "a1 p b2", "b1 r d1"] + [f"{x} q c1" for x in bs]),
        ",".join(["a1 A", "c1 C", "d1 D"] + [f"{x} B" for x in bs]),
    )
    a, b, c, d = (g.label_id(n) for n in "ABCD")
    wide, narrow = atomic(b, g.pred_id("q"), OUT, c), atomic(b, g.pred_id("r"), OUT, d)
    model = build_model(g, [atomic(a, g.pred_id("p"), OUT, b), wide, narrow])
    assert [len(e.correct_starts) for e in model.entries] == [1, 6, 1]
    tried = []

    def recording(e_in, path, e_rt, *args):
        tried.append(e_rt.rule)
        return nest_bound(e_in, path, e_rt, *args)

    monkeypatch.setattr(miner, "nest_bound", recording)
    refine_nest(model, g)
    assert tried[0] == narrow


@pytest.mark.parametrize(
    "name, expected", [("sparse", (300, 300, 0, 0)), ("nested", (50, 0, 50, 25))]
)
def test_nest_counts_on_the_bench_workloads(name, expected, monkeypatch):
    g = bench_kg(name, 101)
    model = summarize(g, refine="merge")
    real_price, real_add = Model.price, Model.add
    added = []  # how many entries each add replaced

    def snapshot(model):
        return (
            array("I", model.label_refs),
            array("I", model.edge_refs),
            model.num_modeled_labels,
            model.num_modeled_edges,
        )

    after_add = [snapshot(model)]

    def price(self, entry, drop=()):
        # nothing but an add moved the refcounts, and a price cannot write them
        assert snapshot(self) == after_add[-1]
        refs = self.label_refs, self.edge_refs
        self.label_refs = memoryview(self.label_refs).toreadonly()
        self.edge_refs = memoryview(self.edge_refs).toreadonly()
        try:
            return real_price(self, entry, drop)
        finally:
            self.label_refs, self.edge_refs = refs

    def add(self, entry, phase, total, drop=()):
        added.append(len(drop))
        assert total == real_price(self, entry, drop)  # the caller's price, to the bit
        real_add(self, entry, phase, total, drop)
        after_add.append(snapshot(self))

    monkeypatch.setattr(Model, "price", price)
    monkeypatch.setattr(Model, "add", add)
    counts = NestCounts()
    refine_nest(model, g, counts)
    assert (counts.considered, counts.pruned, counts.evaluated, counts.accepted) == expected
    # the refcounts move only in accepted adds, each putting one composition
    # in place of two parts
    assert added == [2] * counts.accepted
    assert snapshot(model) == after_add[-1]


def test_every_add_records_the_price_its_caller_computed(monkeypatch):
    # select, merge, nest and a loaded model each price a change to decide on
    # it, and hand that price to add, which does not price it again
    real_add, real_price = Model.add, Model.price
    phases = []

    def add(self, entry, phase, total, drop=()):
        assert total == real_price(self, entry, drop)
        phases.append(phase)
        real_add(self, entry, phase, total, drop)

    monkeypatch.setattr(Model, "add", add)
    for g in (two_branch_kg(), chained_ownership_kg(), planted_cycle_kg(num_nodes=200, noise=0.05)):
        model_from_dict(model_to_dict(summarize(g, refine="nest")), g)
    assert {"select", "merge", "nest", "load"} <= set(phases)


@pytest.mark.parametrize(
    "make",
    [chained_ownership_kg, two_branch_kg, lambda: planted_cycle_kg(num_nodes=300)],
    ids=["chained_ownership", "two_branch", "planted_cycle"],
)
def test_summarize_frees_the_unselected_candidates_before_the_refinements(make, monkeypatch):
    g = make()
    mined = []  # weak references to every generated candidate
    at_nest = {}
    real_generate, real_nest = miner.generate_candidates, miner.refine_nest

    def generate(g_, label_cap=None):
        cands = real_generate(g_, label_cap=label_cap)
        mined.extend(map(weakref.ref, cands))
        return cands

    def alive() -> set[int]:
        return {id(c) for c in (ref() for ref in mined) if c is not None}

    def nest(model, g_, counts=None):
        # reference counting alone has freed them; the collector finds no more
        at_nest["uncollected"] = alive()
        gc.collect()
        at_nest["collected"] = alive()
        at_nest["entries"] = {id(e) for e in model.entries}
        return real_nest(model, g_, counts)

    monkeypatch.setattr(miner, "generate_candidates", generate)
    monkeypatch.setattr(miner, "refine_nest", nest)
    gc.disable()
    try:
        summarize(g)
    finally:
        gc.enable()
    # only the candidates that are still model entries after merging are alive
    assert at_nest["uncollected"] == at_nest["collected"] <= at_nest["entries"]
    assert len(mined) > len(at_nest["entries"])


def traced_peak_per_edge(mine) -> float:
    """The tracemalloc peak of ``mine(g)`` on ``scaling_kg_lines(50_000)``, in
    bytes per distinct edge, the loaded graph excluded: both of its indexes
    are built before tracing, so the figure is mining's alone whichever
    direction the mined rules read."""
    triples, labels = scaling_kg_lines(50_000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the planted graph repeats a few triples
        g = parse_graph(triples, labels)
    g.csr(OUT), g.csr(IN)
    del triples, labels
    gc.collect()
    tracemalloc.start()
    try:
        mine(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / g.num_distinct_edges


def test_mining_holds_few_bytes_per_edge_beyond_the_graph():
    # the counterpart of the loaded-graph bound in test_graph.py: the peak of
    # a whole summarize.  Correct starts and coverage as sorted id arrays,
    # edge and label refcounts as arrays indexed by id, candidates built one
    # pattern at a time as slotted records, and nest walks kept as flat reach
    # and bits arrays keep it at 42.3-43.5 B per distinct edge under Python
    # 3.10.13-3.12.1; with each walk's occupied nodes and start bits as
    # arrays of their own, 45.5-46.8 B; with the correct starts as
    # frozensets, 74.4-75.2 B; with dataclass records and per-start bits
    # dicts, 79-82 B; with per-start reach lists and occupied frozensets,
    # 143-146 B; with label refcounts in a dict and every pattern's sets
    # built at once, 162-166 B, and with sets of ids and a dict of edge
    # refcounts, 301-303 B.
    per_edge = traced_peak_per_edge(lambda g: summarize(g, refine="nest"))
    assert per_edge <= 49, f"{per_edge:.1f} B per distinct edge"


def test_nesting_peaks_at_few_bytes_per_edge_beyond_the_graph():
    # refine_nest keeps a walk cache for every host it pairs, as flat reach
    # and bits arrays over the hosts' own start arrays: its peak, the model
    # included, is 38.5-38.9 B per distinct edge under Python 3.10.13-3.12.1,
    # against select's 31.8-32.3 B.  With each walk's occupied nodes as a
    # sorted array and its start bits in a named tuple, it read 41.7-42.2 B;
    # with the correct starts as frozensets, 62.5-62.9 B (select's, 70.7-71.2
    # B); with per-start bits dicts, 3.54-3.60 MiB, and with per-start reach
    # lists and occupied frozensets, 6.58-6.73 MiB.
    def nest(g):
        model = summarize(g, refine="merge")
        tracemalloc.reset_peak()
        refine_nest(model, g)

    per_edge = traced_peak_per_edge(nest)
    assert per_edge <= 44, f"{per_edge:.1f} B per distinct edge"


def test_generating_candidates_holds_few_bytes_per_edge_beyond_the_graph():
    # one pattern's edge-id set and start counters at a time, as slotted
    # records sharing one root-label set per label, each holding its correct
    # starts as an ascending array: 26.0-26.8 B per distinct edge under
    # Python 3.10.13-3.12.1 (65.1-65.9 B with the starts as frozensets, 70-75
    # B as dataclass records with their own sets), against 157-159 B with
    # every pattern's sets held until the candidates were emitted
    per_edge = traced_peak_per_edge(generate_candidates)
    assert per_edge <= 35, f"{per_edge:.1f} B per distinct edge"


def test_refine_nest_composes_no_rule_deeper_than_rule_from_dict_reads(monkeypatch):
    g = chain_kg("ABCDE", fanout=2)
    assert max(r.depth() for r in model_rules(summarize(g, refine="nest"))) == 4
    monkeypatch.setattr(miner, "MAX_RULE_DEPTH", 3)
    monkeypatch.setattr("kgsum.rules.MAX_RULE_DEPTH", 3)
    model = summarize(g, refine="nest")
    assert any(phase == "nest" for phase, *_ in model.history)
    assert max(r.depth() for r in model_rules(model)) == 3
    assert model_rules(model_from_dict(model_to_dict(model), g)) == model_rules(model)


def test_self_loop_graph_costs_neighbours_among_all_nodes():
    # a's matching neighbours are a and b, |V| of them; a loop-free graph
    # draws them from the |V|-1 other nodes
    g = parse_graph(["a\tp\ta\n", "a\tp\tb\n"], ["a\tX\n", "b\tX\n"])
    assert g.neighbor_universe == g.num_nodes == 2
    (cand,) = [c for c in generate_candidates(g) if c.rule.children[0].direction == OUT]
    assert cand.traversal_bits == oracle_traversal_bits(g, g.node_id("a"), cand.rule)
    assert cand.traversal_bits == RuleEntry.from_rule(cand.rule, g).traversal_bits
    model = summarize(g, refine="nest")
    assert model.total == pytest.approx(oracle_total_cost(g, model_rules(model)), rel=1e-12)


def test_monotone_descent_and_counts_across_pipeline():
    rng = random.Random(555)
    for _ in range(8):
        g = random_kg(rng, max_nodes=8, max_labels=3, max_preds=2, edge_factor=2.0)
        model = summarize(g, refine="nest")
        for phase, _, delta, _ in model.history:
            if phase == "select":
                assert delta < 0
            elif phase in ("merge", "nest"):
                assert delta <= 1e-9
        totals = [t for _, _, _, t in model.history]
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))
        assert model.total_bits == pytest.approx(model.total, rel=1e-9)


def test_summarize_deterministic():
    rng = random.Random(808)
    g = random_kg(rng, max_nodes=8, max_labels=3, max_preds=2, edge_factor=2.5)
    a = model_to_dict(summarize(g, refine="nest"))
    b = model_to_dict(summarize(g, refine="nest"))
    assert a == b


def test_model_round_trip_through_dict():
    g = two_branch_kg()
    model = summarize(g, refine="merge")
    doc = model_to_dict(model)
    rebuilt = model_from_dict(doc, g)
    assert [e.rule for e in rebuilt.entries] == [e.rule for e in model.entries]
    assert rebuilt.total_bits == pytest.approx(model.total_bits, rel=1e-12)
    assert doc["L_total_bits"] == pytest.approx(model.total, rel=1e-12)
    assert set(doc) == {
        "rules",
        "L_model_bits",
        "L_error_bits",
        "L_total_bits",
        "pct_bits_vs_empty",
        "pct_edges_explained",
    }
    assert set(doc["rules"][0]) == {"rule", "L_rule_bits", "L_assertions_bits", "num_correct", "num_exceptions"}


def test_one_formula_for_mined_and_matched_records_randomized():
    # a mined record and the record matched from its rule are the same, to the
    # bit, and a model file re-applied to its graph serializes identically
    rng = random.Random(9090)
    graphs = multi_label_roots = 0
    while graphs < 25:
        g = random_kg(rng, max_nodes=10, max_labels=4, max_preds=2, edge_factor=2.0)
        if not any(len(ls) > 1 for ls in g.node_labels):
            continue
        graphs += 1
        for c in qualify_all(generate_candidates(g), g):
            built = RuleEntry.from_rule(c.rule, g)
            joined = Model(g)
            joined.add(c, "test", joined.price(c))  # joining fixes the exception starts
            assert c == built
            assert (c.rule_bits, c.traversal_bits) == (built.rule_bits, built.traversal_bits)
            multi_label_roots += len(c.rule.root_labels) > 1
        for refine in ("none", "merge", "nest"):
            doc = model_to_dict(summarize(g, refine=refine))
            applied = model_from_dict(doc, g)
            assert model_to_dict(applied) == doc
            # an applied rule re-matched and priced on its own costs what the
            # model stored, to the bit
            for e in applied.entries:
                assert assertions_cost(match(e.rule, g), g) == e.assertion_bits
    assert multi_label_roots > 0


def test_model_from_dict_skips_rules_whose_root_no_node_carries():
    mined = parse_graph(
        ["a\tp\tb\n", "c\tp\td\n"],
        ["a\tX\n", "a\tY\n", "c\tX\n", "b\tZ\n", "d\tZ\n"],
    )
    x, y, z = mined.label_id("X"), mined.label_id("Y"), mined.label_id("Z")
    p = mined.pred_id("p")
    both = Rule(frozenset({x, y}), (Child(p, OUT, Rule(frozenset({z}))),))
    doc = model_to_dict(build_model(mined, [both, atomic(x, p, OUT, z)]))
    # the same names, but no node carries both X and Y any more
    drifted = parse_graph(
        ["a\tp\tb\n", "c\tp\td\n"],
        ["a\tX\n", "c\tY\n", "b\tZ\n", "d\tZ\n"],
    )
    with pytest.warns(UserWarning, match=r"1 model rule\(s\) skipped.*\[X,Y\]\(->p\[Z\]\)"):
        model = model_from_dict(doc, drifted)
    x, z, p = drifted.label_id("X"), drifted.label_id("Z"), drifted.pred_id("p")
    assert model_rules(model) == [atomic(x, p, OUT, z)]
    assert [h[1] for h in model.history] == ["", "[X](->p[Z])"]
    # a name the graph does not know is still a format error
    unknown = parse_graph(["a\tp\tb\n"], ["a\tX\n", "b\tZ\n"])
    with pytest.raises(RuleFormatError, match="unknown label 'Y'"):
        model_from_dict(doc, unknown)


def test_build_model_skips_a_rule_whose_root_no_node_carries():
    g = parse_graph(
        ["a\tp\tb\n", "c\tp\td\n", "a\tq\tc\n"],
        ["a\tX\n", "c\tY\n", "b\tZ\n", "d\tZ\n"],
    )
    x, y, z = g.label_id("X"), g.label_id("Y"), g.label_id("Z")
    p, q = g.pred_id("p"), g.pred_id("q")
    # children out of canonical order, which the loader sorts
    first = Rule(frozenset({x}), (Child(q, OUT, Rule(frozenset({y}))), Child(p, OUT, Rule(frozenset({z})))))
    rules = [first, Rule(frozenset({x, y}), (Child(p, OUT, Rule(frozenset({z}))),)), atomic(z, p, IN, y)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = build_model(g, rules)
    assert [str(w.message) for w in caught] == [
        "1 model rule(s) skipped: no node carries all their root labels: [X,Y](->p[Z])"
    ]
    assert [h[1] for h in model.history] == ["", "[X](->p[Z] ->q[Y])", "[Z](<-p[Y])"]
    assert model_rules(model) == [canonicalize(first), rules[2]]
    doc = {"rules": [{"rule": rule_to_dict(r, g)} for r in rules]}
    with pytest.warns(UserWarning, match=r"1 model rule\(s\) skipped"):
        assert model_from_dict(doc, g).history == model.history


def test_a_model_file_with_children_out_of_order_loads_as_the_canonical_one():
    # rule_from_dict keeps the file's child order; build_model canonicalizes
    g = parse_graph(
        ["a\tp\tb\n", "a\tq\tc\n", "b\tr\tc\n", "b\ts\ta\n", "d\tp\te\n", "d\tq\tf\n", "e\tr\tf\n", "e\ts\td\n"],
        ["a\tX\n", "d\tX\n", "b\tZ\n", "e\tZ\n", "c\tY\n", "f\tY\n"],
    )
    x, y, z = g.label_id("X"), g.label_id("Y"), g.label_id("Z")
    p, q, r, s = (g.pred_id(n) for n in "pqrs")
    inner = Rule(frozenset({z}), (Child(r, OUT, Rule(frozenset({y}))), Child(s, OUT, Rule(frozenset({x})))))
    rule = canonicalize(Rule(frozenset({x}), (Child(p, OUT, inner), Child(q, OUT, Rule(frozenset({y}))))))
    canonical = model_to_dict(build_model(g, [rule, atomic(z, r, OUT, y)]))

    def reversed_children(node):
        if isinstance(node, dict):
            node = {k: reversed_children(v) for k, v in node.items()}
            if "children" in node:
                node["children"].reverse()
        return [reversed_children(v) for v in node] if isinstance(node, list) else node

    shuffled = reversed_children(canonical)
    assert shuffled != canonical
    loaded, reordered = model_from_dict(canonical, g), model_from_dict(shuffled, g)
    assert reordered.history == loaded.history
    assert model_to_dict(reordered) == model_to_dict(loaded) == canonical


_RULE = {"root_labels": ["X"], "children": []}


@pytest.mark.parametrize(
    "doc",
    [
        {"rules": [{}]},
        [],
        {"rules": [{"rule": {**_RULE, "children": "oops"}}]},
        {"rules": [{"rule": {**_RULE, "root_labels": [["X"]]}}]},
        {"rules": 5},
        {},
        {"kind": "perturbation", "positives": [], "negatives": []},
    ],
    ids=["rule-entry-without-rule", "not-an-object", "children-not-a-list",
         "label-not-a-string", "rules-not-a-list", "empty-object", "truth-file"],
)
def test_model_from_dict_rejects_malformed_documents(doc):
    g = parse_graph(["a\tp\tb\n"], ["a\tX\n", "b\tX\n"])
    with pytest.raises(RuleFormatError):
        model_from_dict(doc, g)

"""Property tests: the model invariants hold after every stage of the pipeline
on random graphs.  The coverage refcounts count each entry's coverage exactly
after every change, on one-label and multi-label graphs, edge scores read
them as a set of covered ids would, an accepted merge covers exactly the
union of its parts, a nesting composition covers a subset of its parts'
union, ``Model.price`` of every change select, merge and nest could make is
the total after that change (its ids counted exactly), the cost descends at
every step, and a model file re-applied to its graph serializes identically.
A host's nesting reach, read off one ``evaluate`` of its correct starts, is
what the oracle's matching neighbours reach start by start, its depth-1
reach the pass's own neighbour arrays; the nesting bound is the same to the
bit whether that reach is kept flat or carries branch counts of 1 at depth
1; and the bound that stops once it clears prunes exactly the pairs the full
bound prunes.  Every record's correct starts are one strictly ascending
``array("I")``, the oracle's correct starts as a set, after every stage."""

import copy
import math
import operator
import random
from array import array
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsum import encoding, miner
from kgsum.anomaly import AnomalyScorer
from kgsum.miner import (
    NEST_PRUNE_MARGIN,
    Model,
    Reach,
    RuleEntry,
    _dedup_children,
    _nest_rule,
    _reach_by_start,
    build_model,
    generate_candidates,
    model_from_dict,
    model_to_dict,
    nest_bound,
    qualify_all,
    rank,
    refine_merge,
    refine_nest,
    select,
    summarize,
)
from kgsum.rules import MAX_RULE_DEPTH, Rule, canonicalize, evaluate, iter_positions

from oracles import assignment_pairs, oracle_match, oracle_matching_neighbors
from synth import bench_kg, chained_ownership_kg, random_kg, random_owned_kg, random_rule, two_branch_kg


def assert_refcounts_exact(model):
    """For every edge id ``i``, ``edge_refs[i]`` is the number of entries
    whose coverage holds ``i``, and ``num_modeled_edges`` is the number of
    non-zero slots; the same for every label-assignment id, ``label_refs``
    and ``num_modeled_labels``."""
    g = model.graph
    counts = Counter(i for e in model.entries for i in e.covered_edge_ids)
    assert model.edge_refs.tolist() == [counts[i] for i in range(g.num_distinct_edges)]
    assert model.num_modeled_edges == len(counts) == sum(n > 0 for n in model.edge_refs)
    counts = Counter(i for e in model.entries for i in e.covered_label_ids)
    assert model.label_refs.tolist() == [counts[i] for i in range(g.num_label_assignments)]
    assert model.num_modeled_labels == len(counts) == sum(n > 0 for n in model.label_refs)


def assert_edge_scores_read_the_coverage(model, rng):
    """``edge_score`` of every edge, and of random triples the graph may lack,
    is its endpoints' node scores plus the uniform unmodelled share exactly
    when no entry covers it, as when the refcounts were a dict of the covered
    edge ids."""
    g = model.graph
    covered = {i for e in model.entries for i in e.covered_edge_ids}
    unmodeled = g.num_distinct_edges - len(covered)
    share = (
        encoding.log_binomial(g.universe_edges - len(covered), unmodeled) / unmodeled
        if unmodeled > 0
        else 0.0
    )
    scorer = AnomalyScorer(model)
    n, m = g.num_nodes, max(g.num_preds, 1)
    triples = g.distinct_edges + [(rng.randrange(n), rng.randrange(m), rng.randrange(n)) for _ in range(20)]
    for s, p, o in triples:
        unexplained = g.edge_index(s, p, o) not in covered
        want = scorer.node_score(s) + scorer.node_score(o) + (share if unexplained else 0.0)
        assert scorer.edge_score(s, p, o) == want


@contextmanager
def refcounts_checked_at_every_add():
    """Within the block, every ``Model.add`` (each select, merge and nest step)
    ends with ``assert_refcounts_exact``."""
    real_add = Model.add

    def add(self, *args, **kwargs):
        real_add(self, *args, **kwargs)
        assert_refcounts_exact(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Model, "add", add)
        yield


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_model_invariants_after_select_merge_and_nest(seed):
    rng = random.Random(seed)
    g = random_owned_kg(rng)
    with refcounts_checked_at_every_add():
        model = select(g, rank(qualify_all(generate_candidates(g), g), g))
        assert_refcounts_exact(model)
        assert_edge_scores_read_the_coverage(model, rng)

        selected = list(model.entries)
        model = refine_merge(model, g)
        assert_refcounts_exact(model)
        assert_edge_scores_read_the_coverage(model, rng)
        for merged in model.entries:
            if any(merged is e for e in selected):
                continue
            key = (merged.rule.root_labels, set(merged.correct_starts))
            parts = [e for e in selected if (e.rule.root_labels, set(e.correct_starts)) == key]
            assert len(parts) >= 2
            assert set(merged.covered_edge_ids) == set().union(*(e.covered_edge_ids for e in parts))
            assert set(merged.covered_label_ids) == set().union(
                *(e.covered_label_ids for e in parts)
            )

        model = refine_nest(model, g)
        assert_refcounts_exact(model)
        assert_edge_scores_read_the_coverage(model, rng)

    for phase, _, delta, _ in model.history:
        if phase in ("select", "nest"):
            assert delta < 0
        elif phase == "merge":
            assert delta <= 1e-9

    doc = model_to_dict(model)
    assert model_to_dict(model_from_dict(doc, g)) == doc


def nest_pairs(model):
    """Every (host, inner path, nested entry) that ``refine_nest`` may evaluate."""
    for i, e_in in enumerate(model.entries):
        for path, node in iter_positions(e_in.rule):
            for j, e_rt in enumerate(model.entries):
                if path and i != j and node.root_labels == e_rt.rule.root_labels:
                    if len(path) + e_rt.rule.depth() <= MAX_RULE_DEPTH:
                        yield e_in, path, e_rt


def assert_priced_as_added(model, g, entry, drop=()):
    """``Model.price`` of ``entry`` in place of ``drop`` counts exactly the ids
    a real ``add`` leaves modelled, and is the total after that ``add``."""
    counted = []
    real = encoding.error_cost_counts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoding, "error_cost_counts",
                   lambda g, labels, edges: counted.append((labels, edges)) or real(g, labels, edges))
        price = model.price(entry, drop)
    moved = copy.copy(model)
    moved.entries, moved.history = list(model.entries), list(model.history)
    moved.edge_refs, moved.label_refs = array("I", model.edge_refs), array("I", model.label_refs)
    moved.add(entry, "test", price, drop)
    labels = len(moved.label_refs) - moved.label_refs.count(0)
    assert counted == [(labels, moved.num_modeled_edges)]
    assert moved.history[-1][3] == price
    assert price == pytest.approx(moved.total_bits, rel=1e-12)
    assert_refcounts_exact(moved)


def assert_every_change_priced_as_added(model, g, ranked) -> Counter:
    """Price every change select, merge and nest could make to ``model``:
    each ranked candidate appended, each merge group's merged rule in place
    of the group, and each nest composition in place of its two parts.
    Returns how many of each were priced."""
    priced = Counter()
    for c in ranked:
        if not any(c is e for e in model.entries):
            assert_priced_as_added(model, g, c)
            priced["select"] += 1
    groups = {}
    for e in model.entries:
        groups.setdefault((e.rule.root_labels, frozenset(e.correct_starts)), []).append(e)
    for (root, _), parts in groups.items():
        if len(parts) >= 2:
            merged = RuleEntry.from_rule(
                canonicalize(Rule(root, _dedup_children(c for e in parts for c in e.rule.children))), g
            )
            assert_priced_as_added(model, g, merged, parts)
            priced["merge"] += 1
    for e_in, path, e_rt in nest_pairs(model):
        composed = RuleEntry.from_rule(canonicalize(_nest_rule(e_in.rule, path, e_rt.rule)), g)
        assert set(composed.covered_edge_ids) <= set(e_in.covered_edge_ids) | set(e_rt.covered_edge_ids)
        assert set(composed.covered_label_ids) <= set(e_in.covered_label_ids) | set(
            e_rt.covered_label_ids
        )
        assert_priced_as_added(model, g, composed, (e_in, e_rt))
        priced["nest"] += 1
    return priced


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nest_compositions_are_priced_from_the_ids_they_lose(seed):
    g = random_owned_kg(random.Random(seed))
    ranked = rank(qualify_all(generate_candidates(g), g), g)
    # every ranked rule in one model, for many pairs with exceptions on both sides
    assert_every_change_priced_as_added(build_model(g, [c.rule for c in ranked]), g, ranked)
    model = select(g, ranked)
    assert_every_change_priced_as_added(model, g, ranked)
    model = refine_merge(model, g)
    assert_every_change_priced_as_added(model, g, ranked)
    # after nesting, the pairs include hosts that are themselves compositions
    assert_every_change_priced_as_added(refine_nest(model, g), g, ranked)


def test_merges_and_nests_are_priced_as_added():
    # random ownership graphs merge rarely, so two graphs supply both changes
    priced = Counter()
    for g in (two_branch_kg(), chained_ownership_kg()):
        ranked = rank(qualify_all(generate_candidates(g), g), g)
        model = select(g, ranked)
        priced += assert_every_change_priced_as_added(model, g, ranked)
        model = refine_merge(model, g)
        priced += assert_every_change_priced_as_added(model, g, ranked)
        priced += assert_every_change_priced_as_added(refine_nest(model, g), g, ranked)
    assert min(priced["select"], priced["merge"], priced["nest"]) >= 1


def multi_label_model(seed):
    """A random graph whose nodes carry one to three labels (every bench
    workload node carries one), its ranked candidates, and a model of every
    ranked rule, since select keeps none on graphs this small."""
    g = random_kg(random.Random(seed), max_nodes=10)
    ranked = rank(qualify_all(generate_candidates(g), g), g)
    return g, ranked, build_model(g, [c.rule for c in ranked])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_refcounts_exact_after_every_change_on_multi_label_graphs(seed):
    with refcounts_checked_at_every_add():
        g, ranked, model = multi_label_model(seed)
        assert_refcounts_exact(model)
        # each candidate appended, and each merge and nest in place of its parts
        assert_every_change_priced_as_added(model, g, ranked)
        model = refine_nest(refine_merge(model, g), g)
    assert_refcounts_exact(model)


def assert_starts_are_ascending_arrays(g, entries):
    """Each entry's correct starts are one strictly ascending ``array("I")``,
    the oracle's correct starts of its rule as a set."""
    for e in entries:
        starts = e.correct_starts
        assert isinstance(starts, array) and starts.typecode == "I"
        assert all(map(operator.lt, starts, starts[1:]))
        assert set(starts) == oracle_match(g, e.rule)[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_correct_starts_are_ascending_arrays_after_every_stage(seed):
    # select keeps no rule on multi-label random graphs this small, so a model
    # of every ranked rule (matched, not mined) is merged and nested too, and
    # an ownership graph, on which select keeps rules, is mined as well
    rng = random.Random(seed)
    for g in (random_kg(rng, max_nodes=10), random_owned_kg(rng)):
        cands = generate_candidates(g)
        assert_starts_are_ascending_arrays(g, cands)
        cands = qualify_all(cands, g)
        assert_starts_are_ascending_arrays(g, cands)
        ranked = rank(cands, g)
        for model in (select(g, ranked), build_model(g, [c.rule for c in ranked])):
            assert_starts_are_ascending_arrays(g, model.entries)
            model = refine_merge(model, g)
            assert_starts_are_ascending_arrays(g, model.entries)
            model = refine_nest(model, g)
            assert_starts_are_ascending_arrays(g, model.entries)
            assert_starts_are_ascending_arrays(g, model_from_dict(model_to_dict(model), g).entries)


def test_multi_label_models_count_labels_beyond_a_nodes_first():
    # a node's first label has the lowest of its assignment ids, so these
    # models also count ids that no one-label graph has
    beyond_first = 0
    for seed in range(30):
        g, _, model = multi_label_model(seed)
        pairs = assignment_pairs(g)
        beyond_first += any(
            n and pairs[i][1] != min(g.node_labels[pairs[i][0]]) for i, n in enumerate(model.label_refs)
        )
    assert beyond_first >= 10


def dict_reach_by_start(g, rule, starts):
    """``_reach_by_start`` with a ``{node: branches}`` dict per start at every
    depth, depth 1 included, each node's neighbours the oracle's."""
    reach = {}

    def descend(r, path, by_start):
        for i, c in enumerate(r.children):
            step = {}
            for s, nodes in by_start.items():
                nxt = step[s] = {}
                for u, ways in nodes.items():
                    for w in oracle_matching_neighbors(g, u, c):
                        nxt[w] = nxt.get(w, 0) + ways
            reach[path + (i,)] = step
            descend(c.child, path + (i,), step)

    descend(rule, (), {s: {s: 1} for s in starts})
    return reach


def start_bits_and_reach(g, entry):
    """``entry``'s per-start bits, over its correct-start array in order, and
    its ``Reach`` per inner path, from one ``evaluate`` of that array, as
    ``refine_nest`` reads them."""
    _, bits, per_child = evaluate(entry.rule, g, entry.correct_starts)
    return array("d", bits), _reach_by_start(entry.rule, per_child)


def flat_reach(starts, by_start) -> Reach:
    """The dict form of one path's reach as a ``Reach`` over ``starts``, in
    that order, with branch counts at every depth, depth 1 included."""
    offsets, nodes, ways = array("I", [0]), array("I"), array("d")
    for s in starts:
        nodes.extend(by_start[s])
        ways.extend(by_start[s].values())
        offsets.append(len(nodes))
    return Reach(offsets, nodes, ways)


def nest_bound_args(g, hosts, nested):
    """The ``nest_bound`` arguments but the graph, (e_in, path, e_rt, composed
    rule, e_in's reach at the path, e_in's per-start bits, e_rt's per-start
    bits), of every pair of a host and a nested rule whose root labels are
    those of an inner node of the host."""
    for e_in in hosts:
        bits_in, reach = start_bits_and_reach(g, e_in)
        for path, node in iter_positions(e_in.rule):
            for e_rt in nested:
                if path and node.root_labels == e_rt.rule.root_labels:
                    composed = canonicalize(_nest_rule(e_in.rule, path, e_rt.rule))
                    bits_rt, _ = start_bits_and_reach(g, e_rt)
                    yield e_in, path, e_rt, composed, reach[path], bits_in, bits_rt


def check_reach(g, hosts, nested) -> set[tuple[int, int]]:
    """Require each host's reach to be the dict form's, its depth-1 reach to
    be the pass's own arrays, and ``nest_bound`` from it to equal the bound
    from the dict form for every pair.  Returns each (path length, most branches
    reaching one node) seen."""
    seen = set()
    dict_forms = {}
    for e_in in hosts:
        starts = list(e_in.correct_starts)
        _, _, per_child = evaluate(e_in.rule, g, starts)
        reach = _reach_by_start(e_in.rule, per_child)
        want = dict_forms[id(e_in)] = dict_reach_by_start(g, e_in.rule, starts)
        assert reach.keys() == want.keys()
        for path, at in reach.items():
            assert list(want[path]) == starts and len(at.offsets) == len(starts) + 1
            for k, s in enumerate(starts):
                lo, hi = at.offsets[k], at.offsets[k + 1]
                nodes = at.nodes[lo:hi]
                if len(path) == 1:
                    assert at.ways is None
                    assert nodes == per_child[path[0]][1][k]
                    ways = [1] * len(nodes)
                else:
                    ways = at.ways[lo:hi]
                assert list(zip(nodes, ways)) == list(want[path][s].items())
                seen.add((len(path), max(want[path][s].values())))
    for e_in, path, e_rt, composed, reach, bits_in, bits_rt in nest_bound_args(g, hosts, nested):
        args = bits_in, bits_rt, g
        bound = nest_bound(e_in, path, e_rt, composed, reach, *args)
        want = flat_reach(e_in.correct_starts, dict_forms[id(e_in)][path])
        assert bound == nest_bound(e_in, path, e_rt, composed, want, *args)
    return seen


def assert_early_stop_prunes_as_the_full_bound(g, pair, slack) -> bool:
    """Require ``nest_bound`` with ``slack`` to prune a pair (the arguments
    ``nest_bound_args`` yields) exactly when the full bound does, to equal
    the full bound when it does not prune, and to be at most the full bound.
    True when its value is not the full bound's."""
    e_in, e_rt = pair[0], pair[2]
    full = nest_bound(*pair, g)
    early = nest_bound(*pair, g, slack)
    if full is None:
        assert early is None
        return False
    pruned = full - e_in.model_bits - e_rt.model_bits > slack
    assert (early - e_in.model_bits - e_rt.model_bits > slack) == pruned
    assert early <= full
    if not pruned:
        assert early == full
    return early != full


def reach_case(seed, max_depth=3):
    """Random hosts up to ``max_depth - 1`` levels deep on a dense random
    graph, where several branches often reach one node, and the nested rules
    to pair them with: the hosts and the ranked candidates."""
    rng = random.Random(seed)
    g = random_kg(rng, max_nodes=9, max_labels=3, max_preds=2, edge_factor=2.5)
    rules = [canonicalize(random_rule(rng, g, max_depth=max_depth)) for _ in range(6)]
    # a rule has assertions only if some node carries all its root labels
    hosts = [RuleEntry.from_rule(r, g) for r in rules if g.nodes_with_labels(r.root_labels)]
    return g, hosts, hosts + rank(qualify_all(generate_candidates(g), g), g)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nest_bound_from_list_reach_equals_the_dict_form(seed):
    check_reach(*reach_case(seed))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-64.0, 64.0))
def test_early_stopped_nest_bound_prunes_as_the_full_bound(seed, offset):
    # slacks on both sides of each pair's prune threshold, and on it
    g, hosts, nested = reach_case(seed)
    for pair in nest_bound_args(g, hosts, nested):
        full = nest_bound(*pair, g)
        threshold = 0.0 if full is None else full - pair[0].model_bits - pair[2].model_bits
        for slack in (
            offset,
            threshold + offset,
            threshold,
            math.nextafter(threshold, -math.inf),
            math.nextafter(threshold, math.inf),
            threshold - (full or 0.0) / 2,
            NEST_PRUNE_MARGIN * abs(threshold),
        ):
            assert_early_stop_prunes_as_the_full_bound(g, pair, slack)


def test_early_stop_cases_return_partial_bounds():
    # with the slack half the bound below a pair's prune threshold, about 45%
    # of these pairs clear before the sum ends
    stopped = 0
    for seed in range(20):
        g, hosts, nested = reach_case(seed)
        for pair in nest_bound_args(g, hosts, nested):
            full = nest_bound(*pair, g)
            if full is not None:
                threshold = full - pair[0].model_bits - pair[2].model_bits
                stopped += assert_early_stop_prunes_as_the_full_bound(g, pair, threshold - full / 2)
    assert stopped >= 300


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["sparse", "nested"]), st.integers(0, 2**16))
def test_early_stopped_nest_bound_prunes_as_the_full_bound_on_bench_shaped_graphs(name, seed):
    # every pair refine_nest tries, at the slack it uses and on both sides of
    # the pair's prune threshold
    g = bench_kg(name, seed, scale=0.1)
    model = summarize(g, refine="merge")

    def checked(*args):
        *pair, g_, slack = args
        full = nest_bound(*pair, g_)
        threshold = 0.0 if full is None else full - pair[0].model_bits - pair[2].model_bits
        for s in (slack, threshold, math.nextafter(threshold, -math.inf), math.nextafter(threshold, math.inf)):
            assert_early_stop_prunes_as_the_full_bound(g_, pair, s)
        return nest_bound(*args)

    with mock.patch.object(miner, "nest_bound", checked):
        refine_nest(model, g)


def test_reach_cases_cover_both_depths_and_converging_branches():
    seen = set().union(*(check_reach(*reach_case(seed)) for seed in range(20)))
    assert (1, 1) in seen
    assert any(depth == 2 and ways > 1 for depth, ways in seen)
    # a third level sums the branch counts stored for the second
    seen = set().union(*(check_reach(*reach_case(seed, max_depth=4)) for seed in range(20)))
    assert any(depth == 3 and ways > 1 for depth, ways in seen)

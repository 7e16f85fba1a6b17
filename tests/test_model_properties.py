"""Property tests: the model invariants hold after every stage of the pipeline
on random graphs.  The coverage refcounts count each entry's coverage exactly,
an accepted merge covers exactly the union of its parts, a nesting
composition covers a subset of its parts' union and is priced exactly from
the ids it loses, the cost descends at every step, and a model file
re-applied to its graph serializes identically."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from kgsum.encoding import error_cost_counts
from kgsum.miner import (
    Model,
    RuleEntry,
    _modeled_after,
    _nest_rule,
    build_model,
    generate_candidates,
    model_from_dict,
    model_to_dict,
    qualify_all,
    rank,
    refine_merge,
    refine_nest,
    select,
)
from kgsum.rules import MAX_RULE_DEPTH, canonicalize, iter_positions

from synth import random_owned_kg


def assert_refcounts_exact(model):
    assert model.edge_refs == Counter(i for e in model.entries for i in e.covered_edge_ids)
    assert model.label_refs == Counter(c for e in model.entries for c in e.covered_label_codes)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_model_invariants_after_select_merge_and_nest(seed):
    g = random_owned_kg(random.Random(seed))
    model = select(g, rank(qualify_all(generate_candidates(g), g), g))
    assert_refcounts_exact(model)

    selected = list(model.entries)
    model = refine_merge(model, g)
    assert_refcounts_exact(model)
    for merged in model.entries:
        if any(merged is e for e in selected):
            continue
        key = (merged.rule.root_labels, merged.correct_starts)
        parts = [e for e in selected if (e.rule.root_labels, e.correct_starts) == key]
        assert len(parts) >= 2
        assert merged.covered_edge_ids == set().union(*(e.covered_edge_ids for e in parts))
        assert merged.covered_label_codes == set().union(*(e.covered_label_codes for e in parts))

    model = refine_nest(model, g)
    assert_refcounts_exact(model)

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


def assert_compositions_priced_from_the_ids_they_lose(model, g):
    for e_in, path, e_rt in nest_pairs(model):
        composed = RuleEntry.from_rule(canonicalize(_nest_rule(e_in.rule, path, e_rt.rule)), g)
        assert composed.covered_edge_ids <= e_in.covered_edge_ids | e_rt.covered_edge_ids
        assert composed.covered_label_codes <= e_in.covered_label_codes | e_rt.covered_label_codes
        moved = Model(g, edge_refs=dict(model.edge_refs), label_refs=dict(model.label_refs))
        moved._cov_remove(e_in)
        moved._cov_remove(e_rt)
        moved._cov_add(composed)
        parts = (e_in, e_rt, composed)
        labels = _modeled_after(model.label_refs, *(e.covered_label_codes for e in parts))
        edges = _modeled_after(model.edge_refs, *(e.covered_edge_ids for e in parts))
        assert (labels, edges) == (moved.num_modeled_labels, moved.num_modeled_edges)
        assert error_cost_counts(g, labels, edges) == moved.error_bits


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nest_compositions_are_priced_from_the_ids_they_lose(seed):
    g = random_owned_kg(random.Random(seed))
    ranked = rank(qualify_all(generate_candidates(g), g), g)
    # every ranked rule in one model, for many pairs with exceptions on both sides
    assert_compositions_priced_from_the_ids_they_lose(build_model(g, [c.rule for c in ranked]), g)
    model = refine_merge(select(g, ranked), g)
    assert_compositions_priced_from_the_ids_they_lose(model, g)
    # after nesting, the pairs include hosts that are themselves compositions
    assert_compositions_priced_from_the_ids_they_lose(refine_nest(model, g), g)

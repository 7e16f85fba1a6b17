"""Property tests: the model invariants hold after every stage of the pipeline
on random graphs.  The coverage refcounts count each entry's coverage exactly,
an accepted merge covers exactly the union of its parts, the cost descends at
every step, and a model file re-applied to its graph serializes identically."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from kgsum.miner import (
    generate_candidates,
    model_from_dict,
    model_to_dict,
    qualify_all,
    rank,
    refine_merge,
    refine_nest,
    select,
)

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

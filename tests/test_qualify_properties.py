"""Property test: ``qualify_all``, which intersects each distinct label set of
a candidate's correct starts once, keeps the same records in the same order
as candidates qualified by ``oracle_qualify``, one start at a time, and
deduplicated by canonical key; and ``rank``, which derives each candidate's
error reduction and root key where it sorts, orders them as a sort by the
stored ``(-gain, -num_correct, root_key, canon_key)`` key did.  On random
multi-label graphs, with and without a label cap."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kgsum.encoding import error_cost_counts
from kgsum.miner import generate_candidates, qualify_all, rank

from oracles import oracle_qualify
from synth import random_kg


def record(c) -> tuple:
    return c.rule, c.num_assertions, c.assertion_bits, c.canon_key


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.one_of(st.none(), st.integers(1, 4)))
def test_qualify_all_and_rank_equal_the_per_start_oracle(seed, label_cap):
    g = random_kg(random.Random(seed), max_nodes=10, max_labels=4, max_preds=2, edge_factor=2.0)
    got = qualify_all(generate_candidates(g, label_cap=label_cap), g)

    want: dict = {}
    for c in generate_candidates(g, label_cap=label_cap):
        oracle_qualify(c, g)
        want.setdefault(c.canon_key, c)
    assert [record(c) for c in got] == [record(c) for c in want.values()]

    err0 = error_cost_counts(g, 0, 0)

    def stored_key(c) -> tuple:
        gain = err0 - error_cost_counts(g, len(c.covered_label_ids), len(c.covered_edge_ids))
        root_key = ",".join(sorted(g.label_names[l] for l in c.rule.root_labels))
        return -gain, -c.num_correct, root_key, c.canon_key

    usable = [c for c in got if c.num_assertions >= 1 and c.correct_starts]
    assert [record(c) for c in rank(got, g)] == [record(c) for c in sorted(usable, key=stored_key)]

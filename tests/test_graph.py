import gc
import os
import statistics
import tracemalloc
import warnings
from pathlib import Path

import pytest

from kgsum.graph import (
    IN,
    OUT,
    GraphParseError,
    KnowledgeGraph,
    label_lines,
    load_graph,
    parse_graph,
    triple_lines,
)

from synth import bench_kg_lines, scaling_kg_lines


def labels_per_node(g):
    return [len(ls) for ls in g.node_labels]


def test_parse_graph_is_the_constructor():
    # a graph is built in one step, from its line streams
    assert parse_graph is KnowledgeGraph
    g = KnowledgeGraph(["a\tp\tb\n"], ["a\tX\n"], "T", "L")
    assert (g.num_nodes, g.num_edges, g.label_names) == (2, 1, ["X"])


def test_empty_files_give_empty_graph():
    g = parse_graph([], [])
    assert g.num_nodes == 0
    assert g.num_edges == 0
    assert g.num_labels == 0
    assert g.num_preds == 0
    assert g.num_label_assignments == 0
    assert g.node_labels == []


def test_three_line_example_counts():
    with pytest.warns(UserWarning, match="1 duplicate"):
        g = parse_graph(
            ["a\tp\tb\n", "a\tp\tb\n", "b\tq\ta\n"],
            ["a\tX\n", "b\tY\n"],
        )
    assert g.num_nodes == 2
    assert g.num_edges == 3  # multi-edge kept in the multiset
    assert g.num_distinct_edges == 2
    assert g.n_pred[g.pred_id("p")] == 2
    assert g.n_pred[g.pred_id("q")] == 1
    assert g.num_label_assignments == 2


def test_stats_three_line_example():
    with pytest.warns(UserWarning):
        g = parse_graph(["a\tp\tb\n", "a\tp\tb\n", "b\tq\ta\n"], ["a\tX\n", "b\tY\n"])
    assert labels_per_node(g) == [1, 1]
    assert g.num_label_assignments / g.num_nodes == 1.0


def test_stats_empty_graph_all_zero():
    g = parse_graph([], [])
    assert g.num_nodes == g.num_label_assignments == 0
    assert labels_per_node(g) == []


def test_malformed_triple_line_reports_line_number():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph(["a\tp\tb\n", "a\tp\n"], [])


def test_malformed_label_line_reports_line_number():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph([], ["a\tX\tExtra\n"])


def test_comments_and_blank_lines_skipped():
    g = parse_graph(
        ["# a comment\n", "\n", "a\tp\tb\n"],
        ["# labels\n", "a\tX\n", "\n"],
    )
    assert g.num_edges == 1
    assert g.num_label_assignments == 1


def test_duplicate_labels_deduplicated():
    g = parse_graph([], ["a\tX\n", "a\tX\n"])
    assert g.num_label_assignments == 1


def test_label_only_nodes_are_nodes():
    g = parse_graph(["a\tp\tb\n"], ["c\tX\n"])
    assert g.num_nodes == 3


def test_equal_label_sets_share_one_frozenset():
    g = parse_graph(
        ["a\tp\tb\n", "c\tp\td\n"],
        ["a\tX\n", "a\tY\n", "b\tY\n", "b\tX\n", "c\tX\n", "d\tX\n", "e\tY\n", "e\tX\n"],
    )
    a, b, c, d, e = (g.node_id(n) for n in "abcde")
    x, y = g.label_id("X"), g.label_id("Y")
    assert g.node_labels[a] == frozenset({x, y})
    # reached in either label order, {X, Y} is one object
    assert g.node_labels[a] is g.node_labels[b] is g.node_labels[e]
    assert g.node_labels[c] == frozenset({x})
    assert g.node_labels[c] is g.node_labels[d]
    # e appears only in the label file
    assert e == 4 and g.node_names[e] == "e"
    assert e in g.nodes_with_labels([x]) and e in g.nodes_with_labels([y])
    assert g.nodes_with_labels([g.num_labels]) == set()  # an unknown label id


def row(g, v, p, direction) -> list[int]:
    """Node ``v``'s ``p`` neighbours in ``direction``, read off the CSR columns."""
    offsets, preds, ends, _ = g.csr(direction)
    lo, hi = offsets[v], offsets[v + 1]
    return [w for q, w in zip(preds[lo:hi], ends[lo:hi]) if q == p]


def test_indexes_are_transposes_and_counts_consistent():
    g = parse_graph(
        ["a\tp\tb\n", "a\tp\tc\n", "c\tq\ta\n", "c\tq\ta\n", "b\tp\tb\n"],
        ["a\tX\n", "b\tX\n", "b\tY\n", "c\tZ\n"],
    )
    assert sum(g.n_pred) == g.num_edges
    assert sum(g.n_label) == g.num_label_assignments
    assert g.num_label_assignments == sum(len(s) for s in g.node_labels)
    for v in range(g.num_nodes):
        for p in range(g.num_preds):
            for o in row(g, v, p, OUT):
                assert v in row(g, o, p, IN)
            for s in row(g, v, p, IN):
                assert v in row(g, s, p, OUT)
    for s, p, o in g.edges:
        assert 0 <= s < g.num_nodes and 0 <= o < g.num_nodes
    assert max(labels_per_node(g)) == 2


def test_nell_snapshot_stats_if_available():
    base = Path(os.environ.get("KGSUM_NELL_DIR", Path(__file__).parent.parent / "data" / "nell"))
    triples, labels = base / "triples.tsv", base / "labels.tsv"
    if not (triples.exists() and labels.exists()):
        pytest.skip("NELL snapshot not available")
    g = load_graph(str(triples), str(labels))
    assert abs(g.num_nodes - 46_682) <= 0.02 * 46_682
    assert abs(g.num_edges - 231_634) <= 0.02 * 231_634
    assert abs(g.num_labels - 266) <= 0.02 * 266
    assert abs(g.num_preds - 821) <= 0.02 * 821
    assert abs(g.num_label_assignments / g.num_nodes - 1.53) <= 0.05
    assert statistics.median(labels_per_node(g)) == 1


def test_dbpedia_snapshot_stats_if_available():
    base = Path(os.environ.get("KGSUM_DBPEDIA_DIR", Path(__file__).parent.parent / "data" / "dbpedia"))
    triples, labels = base / "triples.tsv", base / "labels.tsv"
    if not (triples.exists() and labels.exists()):
        pytest.skip("DBpedia snapshot not available")
    g = load_graph(str(triples), str(labels))
    assert abs(g.num_label_assignments / g.num_nodes - 2.72) <= 0.05
    assert statistics.median(labels_per_node(g)) == 3


def test_round_trip_serialization():
    g = parse_graph(
        ["a\tp\tb\n", "b\tq\tc\n", "a\tp\tb\n"],
        ["a\tX\n", "b\tY\n", "b\tX\n"],
    )
    g2 = parse_graph(list(triple_lines(g)), list(label_lines(g)))

    def edge_names(graph):
        return sorted(
            (graph.node_names[s], graph.pred_names[p], graph.node_names[o])
            for s, p, o in graph.edges
        )

    def label_map(graph):
        return {
            graph.node_names[v]: sorted(graph.label_names[l] for l in ls)
            for v, ls in enumerate(graph.node_labels)
        }

    assert edge_names(g) == edge_names(g2)
    assert label_map(g) == label_map(g2)


def test_load_graph_ignores_byte_order_mark(tmp_path):
    triples, labels = tmp_path / "t.tsv", tmp_path / "l.tsv"
    triples.write_text("\ufeffa\tp\tb\n", encoding="utf-8")
    labels.write_text("\ufeffa\tX\nb\tY\n", encoding="utf-8")
    g = load_graph(str(triples), str(labels))
    assert g.node_names == ["a", "b"]
    assert g.label_names == ["X", "Y"]
    assert g.edge_index(g.node_id("a"), g.pred_id("p"), g.node_id("b")) == 0


def test_a_loaded_graph_holds_few_bytes_per_edge(tmp_path):
    # the id columns and the two CSR indexes, both built here, take 40 B per
    # distinct edge; the names, the label sets, the label index and the
    # interning dicts bring it to 88.2 B under Python 3.10.13, 84.3 under
    # 3.11.7 and 82.1 under 3.12.1.  The bound fails a label index of one
    # frozenset per label (95-101 B) and an index of one hash set per (node,
    # predicate) and direction (375-381 B).
    triples, labels = scaling_kg_lines(50_000)
    tp, lp = tmp_path / "t.tsv", tmp_path / "l.tsv"
    tp.write_text("".join(triples), encoding="utf-8")
    lp.write_text("".join(labels), encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planted graph repeats a few triples
            g = load_graph(str(tp), str(lp))
        g.csr(OUT), g.csr(IN)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_edge = held / g.num_distinct_edges
    assert per_edge <= 92, f"{per_edge:.1f} B per distinct edge"


def parse_peak_and_held(triples, labels) -> tuple[float, float]:
    """The tracemalloc peak of ``parse_graph``, the input lines excluded, and
    what the graph holds with both of its indexes built, in bytes per
    distinct edge."""
    gc.collect()
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the planted graphs repeat a few triples
            g = parse_graph(triples, labels)
        peak = tracemalloc.get_traced_memory()[1]
        g.csr(OUT), g.csr(IN)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return peak / g.num_distinct_edges, held / g.num_distinct_edges


def test_parsing_peaks_at_few_bytes_per_edge():
    # Each line's ids appended to three columns and one sort of the lines as
    # packed ints, the indexes left to their first read, peak at 89.7-95.5 B
    # per distinct edge under Python 3.10.13-3.12.1, 1.08-1.09 times the
    # 82-88 B held.  A dict from packed triple to edge id and both indexes
    # sorted at load peaked at 171.7-177.4 B, 2.0-2.1 times.
    per_edge, held = parse_peak_and_held(*scaling_kg_lines(50_000))
    assert per_edge <= 1.5 * held, f"{per_edge:.1f} B per distinct edge against {held:.1f} held"
    # node-heavy: the nested workload has about one labelled node per
    # distinct edge, four times as many as above.  Each node's first label
    # read into an array indexed by node id, the parse peaks at 0.88-0.89
    # times what the graph holds; into a dict from node id to first label, at
    # 1.06-1.07 times.
    per_edge, held = parse_peak_and_held(*bench_kg_lines("nested", 101))
    assert per_edge <= held, f"{per_edge:.1f} B per distinct edge against {held:.1f} held"


@pytest.mark.parametrize("first", [OUT, IN])
def test_building_an_index_peaks_at_few_bytes_per_edge(first):
    # an index is built on its first read from the kept (s, p, o) order, with
    # gathers and counting passes into arrays: the build peaks at 9.3 B per
    # distinct edge for OUT and 13.3 B for IN under Python 3.10.13-3.12.1,
    # either one first.  Sorting compact keys, as the parse once did for IN,
    # peaks at 94-99 B.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the planted graph repeats a few triples
        g = parse_graph(*scaling_kg_lines(50_000))
    peaks = []
    for direction in (first, 1 - first):
        gc.collect()
        tracemalloc.start()
        try:
            g.csr(direction)
            peaks.append(tracemalloc.get_traced_memory()[1] / g.num_distinct_edges)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 20, f"{peaks} B per distinct edge"


def test_each_index_is_built_once_on_its_first_read():
    # the columns handed out are one object on every read, and edge_index
    # answers from the IN index when only that one is built
    g = parse_graph(["a\tp\tb\n", "b\tp\tc\n", "a\tq\tc\n"], [])
    a, b, c = map(g.node_id, "abc")
    assert g._rows == [None, None]
    assert g.csr(IN)[3] is g.csr(IN)[3]
    assert g.edge_index(a, g.pred_id("q"), c) == 2 and g.edge_index(b, g.pred_id("q"), c) is None
    assert g._rows[OUT] is None
    assert g.csr(OUT)[3] is g.csr(OUT)[3]
    assert row(g, b, g.pred_id("p"), OUT) == [c] and g.edge_index(b, g.pred_id("p"), c) == 1

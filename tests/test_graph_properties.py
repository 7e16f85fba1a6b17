"""Property tests: ``parse_graph`` agrees with the straight-line
``oracle_parse`` on random line lists with duplicates, self-loops, comments,
blank lines, CRLF endings, multi-label and label-only nodes, repeated label
lines and the occasional malformed line; ``edge_index`` and
``nodes_with_labels`` agree with the oracle's edges and label sets, also for
ids the graph lacks; and each CSR index, built on its first read, holds the
oracle's distinct edges sorted, whichever read comes first."""

import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgsum.graph import IN, OUT, GraphParseError, parse_graph

from oracles import OracleParseError, oracle_parse

ENDINGS = st.sampled_from(["\n", "\r\n", ""])
SKIPPED = st.sampled_from(["\n", "\r\n", "   \n", "# comment\n", "#a\tp\tb\n"])
# triples name nodes a-d; labels also name e and f, which become label-only nodes
TRIPLE = st.builds(
    "{}\t{}\t{}{}".format,
    st.sampled_from("abcd"), st.sampled_from("pq"), st.sampled_from("abcd"), ENDINGS,
)
LABEL = st.builds("{}\t{}{}".format, st.sampled_from("abcdef"), st.sampled_from("XYZ"), ENDINGS)
BAD_TRIPLE = st.sampled_from(["a\tp\n", "a\t\tb\n", "a\tp\tb\tc\n", "\tp\tb\r\n"])
BAD_LABEL = st.sampled_from(["a\n", "a\tX\tY\n", "\tX\n", "a\t\r\n"])


@st.composite
def files(draw, line, bad):
    lines = draw(st.lists(st.one_of(line, line, line, SKIPPED), max_size=24))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    return lines


@settings(max_examples=400, deadline=None)
@given(files(TRIPLE, BAD_TRIPLE), files(LABEL, BAD_LABEL))
def test_parse_graph_equals_the_oracle(triple_lines, label_lines):
    try:
        want = oracle_parse(triple_lines, label_lines, "T", "L")
    except OracleParseError as bad:
        with pytest.raises(GraphParseError) as got:
            parse_graph(triple_lines, label_lines, "T", "L")
        assert (got.value.source, got.value.line_no) == bad.args
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = parse_graph(triple_lines, label_lines, "T", "L")

    assert g.node_names == want.node_names
    assert g.pred_names == want.pred_names
    assert g.label_names == want.label_names
    assert g.edges == want.edges
    assert g.distinct_edges == want.distinct_edges
    assert g.num_edges == len(want.edges)
    assert g.num_distinct_edges == len(want.distinct_edges)

    n, m = len(want.node_names), len(want.pred_names)
    for eid, e in enumerate(want.distinct_edges):
        assert g.edge_index(*e) == eid
    for s in range(n + 1):
        for p in range(m + 1):
            for o in range(n + 1):
                if (s, p, o) not in want.distinct_edges:
                    assert g.edge_index(s, p, o) is None
    # each direction's rows: the distinct edges by (node, predicate, neighbour)
    for direction in (OUT, IN):
        assert [list(column) for column in g.csr(direction)] == oracle_rows(want.distinct_edges, n, direction)

    assert g.node_labels == want.node_labels
    # equal label sets are one shared object
    assert len({id(ls) for ls in g.node_labels}) == len(set(g.node_labels))
    # each label's nodes, as an ascending array of ids
    assert all(a.typecode == "I" for a in g.label_index)
    assert [list(a) for a in g.label_index] == [
        [v for v, ls in enumerate(want.node_labels) if l in ls] for l in range(len(want.label_names))
    ]
    assert g.n_label == [sum(l in ls for ls in want.node_labels) for l in range(len(want.label_names))]
    assert g.num_label_assignments == sum(map(len, want.node_labels))
    assert g.n_pred == [sum(1 for _, q, _ in want.edges if q == p) for p in range(m)]
    assert g.has_self_loop == any(s == o for s, _, o in want.distinct_edges)
    assert g.duplicates_collapsed == len(want.edges) - len(want.distinct_edges)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(TRIPLE, max_size=12), st.lists(LABEL, max_size=24), st.lists(st.integers(-2, 4), max_size=4)
)
def test_nodes_with_labels_equal_the_oracle(triple_lines, label_lines, labels):
    # nodes carry up to three labels; ids 3 and 4 name no label, and no label
    # at all selects no node
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = parse_graph(triple_lines, label_lines)
    want = oracle_parse(triple_lines, label_lines).node_labels
    got = g.nodes_with_labels(labels)
    assert isinstance(got, set)
    assert got == ({v for v, ls in enumerate(want) if set(labels) <= ls} if labels else set())


IDS = st.integers(-2, 6) | st.sampled_from([2**32 - 1, 2**32, 2**40])


@settings(max_examples=300, deadline=None)
@given(st.lists(TRIPLE, max_size=24), st.lists(st.tuples(IDS, IDS, IDS), max_size=40), st.booleans())
def test_edge_index_equals_the_oracle(triple_lines, probes, in_first):
    # an absent edge and an id outside the graph, negative or too wide for a
    # column, are both None, also when the IN index alone answers
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = parse_graph(triple_lines, [])
    if in_first:
        g.csr(IN)
    want = {e: i for i, e in enumerate(oracle_parse(triple_lines, []).distinct_edges)}
    for e in [*want, *probes]:
        assert g.edge_index(*e) == want.get(e)


def oracle_rows(distinct_edges, num_nodes, direction):
    """One direction's CSR columns (offsets, predicates, neighbours, edge ids)
    read off the oracle's distinct edges, sorted by (node, predicate,
    neighbour)."""
    ends = [(s, p, o) if direction == OUT else (o, p, s) for s, p, o in distinct_edges]
    rows = sorted((*e, eid) for eid, e in enumerate(ends))
    offsets = [sum(row[0] < v for row in rows) for v in range(num_nodes + 1)]
    return [offsets, *([row[i] for row in rows] for i in (1, 2, 3))]


# a line list with no repeated triple, or one that may repeat any
LINES = st.lists(TRIPLE, max_size=24, unique_by=str.rstrip) | st.lists(TRIPLE, max_size=24)
READS = st.permutations(["out", "in", "edge_index"])


@settings(max_examples=400, deadline=None)
@given(LINES, READS)
@example(["a\tp\tb\n", "b\tq\ta\n", "c\tp\tc\r\n"], ["in", "edge_index", "out"])
@example(["a\tp\tb\n", "a\tp\tb\r\n", "b\tq\ta\n", "a\tp\tb", "b\tq\ta\n"], ["in", "edge_index", "out"])
def test_indexes_equal_the_oracles_sorted_rows_in_any_read_order(triple_lines, reads):
    # the repeated-triple path numbers the edges apart from the lines; the
    # edge_index read after IN alone answers from the IN index
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = parse_graph(triple_lines, [])
    want = oracle_parse(triple_lines, [])
    n, m = len(want.node_names), len(want.pred_names)
    ids = {e: eid for eid, e in enumerate(want.distinct_edges)}
    for read in reads:
        if read == "edge_index":
            for s in range(n + 1):
                for p in range(m + 1):
                    for o in range(n + 1):
                        assert g.edge_index(s, p, o) == ids.get((s, p, o))
            continue
        direction = OUT if read == "out" else IN
        assert [list(column) for column in g.csr(direction)] == oracle_rows(want.distinct_edges, n, direction)
    assert g.edges == want.edges
    assert g.duplicates_collapsed == len(want.edges) - len(want.distinct_edges)

"""Synthetic knowledge graphs for tests: small random graphs for property
checks and planted-pattern graphs for the desk-scale and scaling runs."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from kgsum.graph import KnowledgeGraph, parse_graph
from kgsum.rules import IN, OUT, Child, Rule


def random_kg(
    rng: random.Random,
    max_nodes: int = 8,
    max_labels: int = 3,
    max_preds: int = 2,
    edge_factor: float = 1.5,
    allow_self_loops: bool = False,
) -> KnowledgeGraph:
    num_nodes = rng.randint(2, max_nodes)
    num_labels = rng.randint(1, max_labels)
    num_preds = rng.randint(1, max_preds)
    nodes = [f"n{i}" for i in range(num_nodes)]
    labels = [f"L{i}" for i in range(num_labels)]
    preds = [f"p{i}" for i in range(num_preds)]

    label_rows = []
    for n in nodes:
        for l in labels:
            if rng.random() < 0.6:
                label_rows.append(f"{n}\t{l}\n")
    # every label must occur at least once so prefix codes are defined
    for i, l in enumerate(labels):
        label_rows.append(f"{nodes[i % num_nodes]}\t{l}\n")

    triple_rows = []
    for _ in range(int(edge_factor * num_nodes) + num_preds):
        s = rng.randrange(num_nodes)
        o = rng.randrange(num_nodes)
        if not allow_self_loops and s == o:
            o = (o + 1) % num_nodes
        p = rng.randrange(num_preds)
        triple_rows.append(f"{nodes[s]}\t{preds[p]}\t{nodes[o]}\n")
    # every predicate must occur at least once
    for i, p in enumerate(preds):
        s = i % num_nodes
        o = (i + 1) % num_nodes
        triple_rows.append(f"{nodes[s]}\t{p}\t{nodes[o]}\n")

    return parse_graph(triple_rows, label_rows)


def random_owned_kg(rng: random.Random, max_owners: int = 12) -> KnowledgeGraph:
    """A random ownership graph, on which rules get selected, merged and
    nested: every A node owns private children over one to three branches
    (predicate, child label, children per owner, grandchildren per child).  An
    owner owns nothing with probability 0.1 and skips a branch with
    probability 0.05, and up to three random edges are noise."""
    branches = {(rng.choice(("p0", "p1")), rng.choice("BCD")) for _ in range(rng.randint(1, 3))}
    shapes = [(p, label, rng.randint(1, 3), rng.randint(0, 2)) for p, label in sorted(branches)]
    triples, labels, nodes = [], [], []
    for i in range(rng.randint(3, max_owners)):
        a = f"a{i}"
        nodes.append(a)
        labels.append(f"{a}\tA\n")
        owns = rng.random() >= 0.1
        for j, (p, label, children, grandchildren) in enumerate(shapes):
            if not owns or rng.random() < 0.05:
                continue
            for k in range(children):
                b = f"{a}b{j}.{k}"
                nodes.append(b)
                labels.append(f"{b}\t{label}\n")
                triples.append(f"{a}\t{p}\t{b}\n")
                for m in range(grandchildren):
                    labels.append(f"{b}c{m}\tE\n")
                    triples.append(f"{b}\tq\t{b}c{m}\n")
    for _ in range(rng.randint(0, 3)):
        triples.append(f"{rng.choice(nodes)}\t{rng.choice(('p0', 'p1', 'q'))}\t{rng.choice(nodes)}\n")
    return parse_graph(triples, labels)


def random_rule(rng: random.Random, g: KnowledgeGraph, max_depth: int = 2, max_children: int = 2) -> Rule:
    """A random rule over labels/predicates that occur in ``g``."""
    root = frozenset(rng.sample(range(g.num_labels), rng.randint(1, min(2, g.num_labels))))
    children = []
    if max_depth > 1:
        for _ in range(rng.randint(0, max_children)):
            children.append(
                Child(
                    rng.randrange(g.num_preds),
                    rng.choice((OUT, IN)),
                    random_rule(rng, g, max_depth - 1, max_children),
                )
            )
    return Rule(root, tuple(children))


def atomic(root_label: int, predicate: int, direction: int, child_label: int) -> Rule:
    """The one-child rule ``root_label --predicate/direction--> child_label``."""
    return Rule(frozenset((root_label,)), (Child(predicate, direction, Rule(frozenset((child_label,)))),))


def model_rules(model) -> list[Rule]:
    """The model's rules, in entry order."""
    return [e.rule for e in model.entries]


def private_children_kg(n_roots: int = 20, degree: int = 3) -> KnowledgeGraph:
    """Each A node owns `degree` private B children (B in-degree exactly 1),
    so the A-rooted orientation is the compressible one."""
    triples, labels = [], []
    b = 0
    for i in range(n_roots):
        labels.append(f"a{i}\tA\n")
        for _ in range(degree):
            labels.append(f"b{b}\tB\n")
            triples.append(f"a{i}\tp\tb{b}\n")
            b += 1
    return parse_graph(triples, labels)


def two_branch_kg(n_roots: int = 25, d_p: int = 3, d_q: int = 3) -> KnowledgeGraph:
    """Every A node owns private B children via p and private C children via q;
    the two A-rooted rules share their correct-start set exactly."""
    triples, labels = [], []
    b = c = 0
    for i in range(n_roots):
        labels.append(f"a{i}\tA\n")
        for _ in range(d_p):
            labels.append(f"b{b}\tB\n")
            triples.append(f"a{i}\tp\tb{b}\n")
            b += 1
        for _ in range(d_q):
            labels.append(f"c{c}\tC\n")
            triples.append(f"a{i}\tq\tc{c}\n")
            c += 1
    return parse_graph(triples, labels)


def chained_ownership_kg(n_a: int = 20, d_a: int = 3, d_b: int = 4) -> KnowledgeGraph:
    """A owns private B children; each B owns private C children.  Both levels
    are compressible and the B level can be nested beneath A."""
    triples, labels = [], []
    b = c = 0
    for i in range(n_a):
        labels.append(f"a{i}\tA\n")
        for _ in range(d_a):
            name_b = f"b{b}"
            b += 1
            labels.append(f"{name_b}\tB\n")
            triples.append(f"a{i}\tp\t{name_b}\n")
            for _ in range(d_b):
                labels.append(f"c{c}\tC\n")
                triples.append(f"{name_b}\tq\tc{c}\n")
                c += 1
    return parse_graph(triples, labels)


def chain_kg(levels: str = "ABCD", fanout: int = 2) -> KnowledgeGraph:
    """Ownership chains one level per label (A -p0-> B -p1-> C ...), every
    node owning ``fanout`` private children, so nests compose past depth 2."""
    triples, labels = [], [f"{levels[0]}0\t{levels[0]}\n"]
    parents = [f"{levels[0]}0"]
    for depth, label in enumerate(levels[1:]):
        children = []
        for parent in parents:
            for _ in range(fanout):
                child = f"{label}{len(children)}"
                children.append(child)
                labels.append(f"{child}\t{label}\n")
                triples.append(f"{parent}\tp{depth}\t{child}\n")
        parents = children
    return parse_graph(triples, labels)


def symmetric_dominant_kg(n_core: int = 50, degree: int = 4, n_minor: int = 5, seed: int = 2) -> KnowledgeGraph:
    """One dominant symmetric pattern (A nodes densely p-linked both ways)
    plus a tiny minor pattern; both orientations of the dominant rule tie on
    every ranking criterion, so tie-breaking decides identically everywhere."""
    rng = random.Random(f"{seed}:sym")
    triples, labels = [], []
    for i in range(n_core):
        labels.append(f"a{i}\tA\n")
        for j in rng.sample([x for x in range(n_core) if x != i], degree):
            triples.append(f"a{i}\tp\ta{j}\n")
            triples.append(f"a{j}\tp\ta{i}\n")
    for i in range(n_minor):
        labels += [f"c{i}\tC\n", f"d{i}\tD\n"]
        triples.append(f"c{i}\tq\td{i}\n")
    return parse_graph(triples, labels)


def planted_desk_kg(seed: int = 7) -> KnowledgeGraph:
    """The 1,000-node / ~5,000-edge graph with five planted patterns used by
    the desk-scale acceptance runs.

    Four chain patterns T0 -p0-> T1 -p1-> T2 -p2-> T3 -p3-> T4 run along
    classes of strictly decreasing size, which concentrates in-degrees and
    makes the object-rooted orientation of every chain rule strictly cheaper
    (so each selected rule's exceptions sit on the surviving subject side,
    the side PCA removal perturbs).  A five-node guardian class G -p4-> T4
    with huge out-degree covers the chain's tail class the same way.
    """
    rng = random.Random(f"{seed}:desk")
    sizes = {"T0": 280, "T1": 250, "T2": 220, "T3": 190, "T4": 50, "G": 10}
    nodes: dict[str, list[str]] = {}
    start = 0
    label_rows = []
    for cls, size in sizes.items():
        nodes[cls] = [f"n{start + i:05d}" for i in range(size)]
        label_rows += [f"{n}\t{cls}\n" for n in nodes[cls]]
        start += size

    triple_rows = []
    chain = ["T0", "T1", "T2", "T3", "T4"]
    for i in range(4):
        src, dst = nodes[chain[i]], nodes[chain[i + 1]]
        for n in src:
            for j in rng.sample(range(len(dst)), rng.randint(4, 5)):
                triple_rows.append(f"{n}\tp{i}\t{dst[j]}\n")
    for n in nodes["G"]:
        for j in rng.sample(range(len(nodes["T4"])), 25):
            triple_rows.append(f"{n}\tp4\t{nodes['T4'][j]}\n")
    return parse_graph(triple_rows, label_rows)


def planted_cycle_kg(
    num_nodes: int = 1000,
    num_classes: int = 5,
    out_degree: tuple[int, int] = (4, 6),
    seed: int = 7,
    noise: float = 0.0,
) -> KnowledgeGraph:
    """Classes C0..C{k-1} arranged in a cycle: every node of class i links via
    predicate p{i} to several random nodes of class i+1.  Every planted
    pattern holds for every node, so the mined rules are exception-free on the
    clean graph.  ``noise`` adds that fraction of the planted edge count as
    random edges between random nodes, by random predicates."""
    rng = random.Random(f"{seed}:planted")
    class_of = [i % num_classes for i in range(num_nodes)]
    class_nodes: list[list[int]] = [[] for _ in range(num_classes)]
    for i, c in enumerate(class_of):
        class_nodes[c].append(i)

    label_rows = [f"n{i:05d}\tT{class_of[i]}\n" for i in range(num_nodes)]
    triple_rows = []
    for i in range(num_nodes):
        c = class_of[i]
        targets = class_nodes[(c + 1) % num_classes]
        for _ in range(rng.randint(*out_degree)):
            j = targets[rng.randrange(len(targets))]
            triple_rows.append(f"n{i:05d}\tp{c}\tn{j:05d}\n")
    for _ in range(int(noise * len(triple_rows))):
        i, j, c = rng.randrange(num_nodes), rng.randrange(num_nodes), rng.randrange(num_classes)
        triple_rows.append(f"n{i:05d}\tp{c}\tn{j:05d}\n")
    return parse_graph(triple_rows, label_rows)


def scaling_kg_lines(
    num_edges: int,
    num_labels: int = 300,
    num_preds: int = 50,
    out_degree: int = 4,
    seed: int = 11,
) -> tuple[list[str], list[str]]:
    """Planted-cycle graph sized by edge count with a fixed label alphabet;
    returns (triple lines, label lines) for writing to disk."""
    rng = random.Random(f"{seed}:scaling")
    num_nodes = num_edges // out_degree
    class_of = [i % num_labels for i in range(num_nodes)]
    class_nodes: list[list[int]] = [[] for _ in range(num_labels)]
    for i, c in enumerate(class_of):
        class_nodes[c].append(i)

    label_rows = [f"n{i:07d}\tL{class_of[i]:03d}\n" for i in range(num_nodes)]
    triple_rows = []
    for i in range(num_nodes):
        c = class_of[i]
        pred = f"p{c % num_preds:02d}"
        targets = class_nodes[(c + 1) % num_labels]
        name = f"n{i:07d}"
        for _ in range(out_degree):
            j = targets[rng.randrange(len(targets))]
            triple_rows.append(f"{name}\t{pred}\tn{j:07d}\n")
    return triple_rows, label_rows


def bench_kg_lines(name: str, seed: int, scale: float = 1.0) -> tuple[list[str], list[str]]:
    """The (triple lines, label lines) of the ``bench/workloads.py`` workload
    ``name`` at ``scale``.  That module imports no kgsum; it is loaded from
    its file once, as ``bench_workloads``."""
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    w = workloads.GENERATORS[name](seed, scale)
    return ["\t".join(t) + "\n" for t in w.triples], ["\t".join(l) + "\n" for l in w.labels]


def bench_kg(name: str, seed: int, scale: float = 1.0) -> KnowledgeGraph:
    """The graph of the ``bench/workloads.py`` workload ``name`` at ``scale``."""
    return parse_graph(*bench_kg_lines(name, seed, scale))

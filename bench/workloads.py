"""Seeded workload generators for the kgsum benchmark.

Each generator returns a ``Workload``: the triple and label lines the program
reads, the test edges ``score`` ranks, and the ground truth the benchmark keeps
to itself (planted noise edges and withheld facts).  The same seed and scale
give byte-identical files.  Nothing here imports kgsum or the test suite, so
neither can shift the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

Triple = tuple[str, str, str]


@dataclass
class Workload:
    triples: list[Triple]
    labels: list[tuple[str, str]]
    noise: list[Triple]  # planted random edges, present in ``triples``
    withheld: list[Triple]  # planted facts left out of ``triples``
    test_edges: list[Triple]  # every noise edge plus four times as many clean edges

    def write(self, directory: Path) -> dict[str, Path]:
        paths = {
            "graph": directory / "triples.tsv",
            "labels": directory / "labels.tsv",
            "test_edges": directory / "test_edges.tsv",
        }
        _write_rows(paths["graph"], self.triples)
        _write_rows(paths["labels"], self.labels)
        _write_rows(paths["test_edges"], self.test_edges)
        return paths


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


def _finish(rng, clean, labels, nodes, preds, n_noise, withheld) -> Workload:
    """Plant ``n_noise`` random edges among ``clean``; the test edges are all
    of them plus a sample of four clean edges per noise edge."""
    present = set(clean) | set(withheld)
    noise: list[Triple] = []
    while len(noise) < n_noise:
        edge = (rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
        if edge[0] != edge[2] and edge not in present:
            present.add(edge)
            noise.append(edge)
    triples = clean + noise
    rng.shuffle(triples)
    test_edges = noise + rng.sample(clean, min(len(clean), 4 * n_noise))
    rng.shuffle(test_edges)
    return Workload(triples, labels, noise, withheld, test_edges)


def sparse(seed: int, scale: float = 1.0) -> Workload:
    """Planted-cycle graph: 300 single-label classes in a cycle, class c links
    via predicate p{c mod 50} to four random nodes of class c+1.  Noise: 0.5%
    random edges.  Withheld: every in-edge of 0.2% of the nodes."""
    rng = random.Random(f"{seed}:sparse")
    num_labels, num_preds, degree = 300, 50, 4
    num_nodes = max(num_labels * (degree + 1), int(50_000 * scale) // degree)
    names = [f"n{i:07d}" for i in range(num_nodes)]
    by_class: list[list[str]] = [names[c::num_labels] for c in range(num_labels)]
    labels = [(names[i], f"L{i % num_labels:03d}") for i in range(num_nodes)]
    cut = set(rng.sample(names, max(1, num_nodes // 500)))
    clean: list[Triple] = []
    withheld: list[Triple] = []
    for i, name in enumerate(names):
        c = i % num_labels
        pred = f"p{c % num_preds:02d}"
        for o in rng.sample(by_class[(c + 1) % num_labels], degree):
            (withheld if o in cut else clean).append((name, pred, o))
    preds = [f"p{k:02d}" for k in range(num_preds)]
    return _finish(rng, clean, labels, names, preds, len(clean) // 200, withheld)


def nested(seed: int, scale: float = 1.0) -> Workload:
    """50 families of private-ownership chains: each of the 15-25 A{f} nodes
    owns three private B{f} nodes via ``owns``, each B{f} node owns 6-10
    private C{f} nodes via ``holds``.  Noise: 0.5% random edges.  Withheld:
    in half of the families, every ``holds`` edge of two B nodes."""
    rng = random.Random(f"{seed}:nested")
    families = max(4, int(50 * scale))
    labels: list[tuple[str, str]] = []
    clean: list[Triple] = []
    withheld: list[Triple] = []
    names: list[str] = []
    cut_families = set(rng.sample(range(families), families // 2))
    for f in range(families):
        b_nodes: list[list[Triple]] = []
        for a in range(15 + f % 11):
            name_a = f"f{f:03d}a{a:02d}"
            labels.append((name_a, f"A{f:03d}"))
            names.append(name_a)
            for b in range(3):
                name_b = f"{name_a}b{b}"
                labels.append((name_b, f"B{f:03d}"))
                names.append(name_b)
                clean.append((name_a, "owns", name_b))
                held = []
                for c in range(6 + (a + b) % 5):
                    name_c = f"{name_b}c{c}"
                    labels.append((name_c, f"C{f:03d}"))
                    names.append(name_c)
                    held.append((name_b, "holds", name_c))
                b_nodes.append(held)
        cut = rng.sample(range(len(b_nodes)), 2) if f in cut_families else []
        for k, held in enumerate(b_nodes):
            (withheld if k in cut else clean).extend(held)
    return _finish(rng, clean, labels, names, ["owns", "holds"], len(clean) // 200, withheld)


GENERATORS = {"sparse": sparse, "nested": nested}

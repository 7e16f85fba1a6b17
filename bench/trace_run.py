"""Traced in-process run of the kgsum pipeline: one span per public call, in
the order the CLI makes them (``summarize``, then ``score``).

    python bench/trace_run.py GRAPH LABELS TEST_EDGES MODEL_OUT

The caller puts the repository's ``src`` directory on ``PYTHONPATH``.  The
model is written to MODEL_OUT exactly as ``kgsum summarize`` writes it, so the
caller can compare the two byte for byte.  Standard output is one JSON object
with the finished spans and the per-layer metrics derived from them.

Each span records its name, parent, start and end (seconds since the tracer
started), CPU time, garbage-collector pause time (from ``gc.callbacks``) and
growth of the process's RSS high-water mark.  ``trace.overhead_s`` is the time
spent inside the tracer's own bookkeeping and GC callbacks.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from contextlib import contextmanager


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.open: list[dict] = []
        self.overhead_s = 0.0
        self._gc_started: float | None = None
        gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
        elif self._gc_started is not None:
            pause = now - self._gc_started
            for span in self.open:
                span["gc_s"] += pause
            self._gc_started = None
        self.overhead_s += time.perf_counter() - now

    @contextmanager
    def span(self, name: str):
        entered = time.perf_counter()
        rec = {
            "name": name,
            "parent": self.open[-1]["name"] if self.open else None,
            "gc_s": 0.0,
            "rss_kb": _maxrss_kb(),
        }
        self.open.append(rec)
        rec["cpu_s"] = time.process_time()
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - entered
        try:
            yield
        finally:
            end = time.perf_counter()
            rec["cpu_s"] = time.process_time() - rec["cpu_s"]
            rec["end"] = end
            rec["rss_kb"] = _maxrss_kb() - rec["rss_kb"]
            self.open.pop()
            self.spans.append(rec)
            self.overhead_s += time.perf_counter() - end

    def report(self) -> list[dict]:
        return [
            {**s, "start": s["start"] - self.origin, "end": s["end"] - self.origin}
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(graph: str, labels: str, test_edges: str, model_out: str) -> dict:
    from kgsum import miner
    from kgsum.anomaly import rank_edges
    from kgsum.encoding import assertions_cost
    from kgsum.graph import load_graph
    from kgsum.rules import match

    tr = Tracer()
    with tr.span("trace.summarize"):
        with tr.span("graph.load"):
            g = load_graph(graph, labels)
        with tr.span("miner.generate"):
            cands = miner.generate_candidates(g)
        generated = len(cands)
        with tr.span("miner.qualify"):
            cands = miner.qualify_all(cands, g)
        with tr.span("miner.rank"):
            ranked = miner.rank(cands, g)
        with tr.span("miner.select"):
            model = miner.select(g, ranked)
        selected = len(model.entries)
        with tr.span("miner.merge"):
            model = miner.refine_merge(model, g)
        with tr.span("miner.nest"):
            model = miner.refine_nest(model, g)
        with tr.span("miner.serialize"):
            doc = miner.model_to_dict(model)
        with open(model_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    with open(model_out, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(test_edges, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    with tr.span("trace.score"):
        with tr.span("miner.apply"):
            applied = miner.model_from_dict(doc, g)
        with tr.span("rules.match"):
            asets = [match(e.rule, g) for e in applied.entries]
        with tr.span("encoding.assertions_cost"):
            for aset in asets:
                assertions_cost(aset, g)
        edges = [(g.node_id(s), g.pred_id(p), g.node_id(o)) for s, p, o in rows]
        with tr.span("anomaly.rank_edges"):
            rank_edges(edges, applied)
    tr.close()

    spans = tr.report()
    metrics: dict[str, float] = {}
    for s in spans:
        metrics[f"{s['name']}_s"] = s["end"] - s["start"]
        metrics[f"{s['name']}.cpu_s"] = s["cpu_s"]
        metrics[f"{s['name']}.gc_s"] = s["gc_s"]
        metrics[f"{s['name']}.rss_mb"] = s["rss_kb"] / 1024.0
    phases = [h[0] for h in model.history]
    metrics.update(
        {
            "graph.gc_s": sum(s["gc_s"] for s in spans if s["name"].startswith("graph.")),
            "graph.bytes_per_edge": _ratio(metrics["graph.load.rss_mb"] * 2**20, g.num_edges),
            "miner.candidates": generated,
            "miner.kept_ratio": _ratio(len(cands), generated),
            "miner.select_accept_ratio": _ratio(selected, len(ranked)),
            "miner.merges": phases.count("merge"),
            "miner.nests": phases.count("nest"),
            "miner.nest_share": _ratio(metrics["miner.nest_s"], metrics["trace.summarize_s"]),
            "rules.rules_matched": len(asets),
            "anomaly.edges_scored": len(edges),
            "trace.overhead_s": tr.overhead_s,
        }
    )
    return {"spans": spans, "metrics": metrics}


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    print(json.dumps(main(*sys.argv[1:])))

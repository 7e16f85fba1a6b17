"""kgsum benchmark: seeded workloads, the real CLI timed end to end, and a
separate traced run for per-layer numbers.

    python3 bench/run.py --workload sparse --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

It uses the ``src`` directory of the checkout it sits in and writes only under
``.bench_work/`` there.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones in ``BENCHMARK.json``, with ``--trace 1``
the per-layer ones.  The line before it records the machine, the per-iteration
samples, the SHA-256 of every output file and, with ``--trace 1``, the spans.

``--trace 0`` repeats one iteration for ``--seconds``, at least twice, and
reports the mean of each timing's samples.  An iteration is a set-up child (import kgsum, load the
graph), then ``kgsum summarize --refine nest``, ``score`` and ``complete``:
each a fresh child process, one at a time, and each repeated until its runs
in the iteration add up to a second.  ``--trace 1`` runs the CLI once,
then repeats ``trace_run.py`` in a child for ``--seconds``, at least once.
Every command and every correctness check is one operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_BUDGET_S = 170.0  # every run must end within 180 s
MIN_ITERATIONS = 2  # outputs of two iterations are compared byte for byte
SETUP_SAMPLES = 3
# a command shorter than this is repeated within an iteration, so that short
# commands get more samples
SAMPLE_S = 1.0
# far above float rounding, far below one bit of any real change in cost
ROUNDTRIP_REL_TOL = 1e-12
OUTPUTS = ("model.json", "ranking.tsv", "missing.json")
SETUP_CODE = "import sys\nfrom kgsum.graph import load_graph\nload_graph(sys.argv[1], sys.argv[2])"
SMOKE_SCALE = 0.03


class Ops:
    """Operations attempted and failed; each failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Children:
    """Runs one child process at a time, each through ``spawn.py``."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        # hash randomization stays on, so every run also checks determinism across hash seeds
        self.env.pop("PYTHONHASHSEED", None)
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
        self.count = 0

    def run(self, argv: list[str]) -> tuple[int, float, float, Path]:
        """Runs ``python argv``; returns (exit code, wall s, peak RSS MB, stdout path)."""
        self.count += 1
        out = self.workdir / f"child{self.count}.out"
        err = self.workdir / f"child{self.count}.err"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            print(f"no time left for child {argv[:3]}", file=sys.stderr)
            return -1, 0.0, 0.0, out
        spawn = [sys.executable, str(BENCH / "spawn.py"), str(timeout), str(out), str(err)]
        try:
            proc = subprocess.run(
                [*spawn, sys.executable, *argv],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout + 5,
            )
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(spawn, -1, "", "timed out")
        if proc.returncode != 0:
            print(f"spawn.py failed: {proc.stderr}", file=sys.stderr)
            return -1, 0.0, 0.0, out
        got = json.loads(proc.stdout)
        if got["code"] != 0:
            print(f"child {argv[:3]} exited {got['code']}; stderr in {err}", file=sys.stderr)
        return got["code"], got["wall_s"], got["maxrss_kb"] / 1024.0, out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _auc(scores: list[float], positive: list[bool]) -> float:
    """Probability that a positive outscores a negative, ties counting half."""
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = sum(positive)
    n_neg = len(positive) - n_pos
    if not n_pos or not n_neg:
        return 0.0
    pos_ranks = sum(r for r, p in zip(ranks, positive) if p)
    return (pos_ranks - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, seconds: float, scale: float) -> None:
        self.started = time.monotonic()
        self.seconds = seconds
        self.ops = Ops()
        self.work = WORK / f"{name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.workload = workloads.GENERATORS[name](seed, scale)
        self.inputs = {k: str(v) for k, v in self.workload.write(self.work).items()}
        self.children = Children(self.work, self.started + RUN_BUDGET_S)
        self.hashes: list[dict[str, str]] = []
        self.samples: dict[str, list[float]] = {}
        self.roundtrip_bits: float | None = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def timed(self, what: str, argv: list[str]) -> list[tuple[float, float]] | None:
        """Runs one command until its runs add up to SAMPLE_S; (wall s, peak MB) of each."""
        runs: list[tuple[float, float]] = []
        while not runs or sum(wall for wall, _ in runs) < SAMPLE_S:
            code, wall, rss, _ = self.children.run(argv)
            if not self.ops.check(code == 0, f"{what} exited 0"):
                return None
            runs.append((wall, rss))
        return runs

    def setup(self) -> list[float] | None:
        graph, labels = self.inputs["graph"], self.inputs["labels"]
        runs = self.timed("set-up child", ["-c", SETUP_CODE, graph, labels])
        return None if runs is None else [wall for wall, _ in runs]

    def commands(self, out: Path) -> dict[str, list[tuple[float, float]]] | None:
        """``summarize``, ``score`` and ``complete``; (wall s, peak MB) of each run."""
        out.mkdir()
        graph = ["--graph", self.inputs["graph"], "--labels", self.inputs["labels"]]
        model = str(out / "model.json")
        argvs = {
            "summarize": ["summarize", *graph, "--out", model, "--refine", "nest"],
            "score": [
                "score", *graph, "--model", model,
                "--test-edges", self.inputs["test_edges"], "--out", str(out / "ranking.tsv"),
            ],
            "complete": ["complete", *graph, "--model", model, "--out", str(out / "missing.json")],
        }
        measured = {}
        for cmd, argv in argvs.items():
            runs = self.timed(f"kgsum {cmd}", ["-m", "kgsum", *argv])
            if runs is None:
                return None
            measured[cmd] = runs
        self.hashes.append({name: _sha256(out / name) for name in OUTPUTS})
        self.ops.check(self.hashes[-1] == self.hashes[0], "outputs byte-identical across iterations")
        return measured

    def check_outputs(self, out: Path) -> dict[str, float]:
        """Correctness checks on one iteration's outputs; returns the quality metrics."""
        doc = json.loads((out / "model.json").read_text(encoding="utf-8"))
        self.ops.check(
            doc["L_total_bits"] == doc["L_model_bits"] + doc["L_error_bits"],
            "model.json: L_total_bits == L_model_bits + L_error_bits",
        )
        sys.path.insert(0, str(SRC))
        from kgsum.graph import load_graph
        from kgsum.miner import model_from_dict, model_to_dict

        g = load_graph(self.inputs["graph"], self.inputs["labels"])
        again = model_to_dict(model_from_dict(doc, g))
        # Mining and re-applying a model sum the same costs in different orders,
        # so the totals may differ in the last bits; the difference is recorded.
        self.roundtrip_bits = again["L_total_bits"] - doc["L_total_bits"]
        counts = [[(r["num_correct"], r["num_exceptions"]) for r in d["rules"]] for d in (doc, again)]
        self.ops.check(
            counts[0] == counts[1]
            and abs(self.roundtrip_bits) <= ROUNDTRIP_REL_TOL * doc["L_total_bits"],
            "model_from_dict recomputes the assertions and L_total_bits",
        )

        text = (out / "ranking.tsv").read_text(encoding="utf-8")
        rows = [line.split("\t") for line in text.splitlines()]
        scores = [float(r[3]) for r in rows]
        edges = [tuple(r[:3]) for r in rows]
        self.ops.check(
            sorted(edges) == sorted(self.workload.test_edges)
            and all(a >= b for a, b in zip(scores, scores[1:])),
            "ranking.tsv: one row per test edge, sorted by descending score",
        )

        noise = set(self.workload.noise)
        reports = json.loads((out / "missing.json").read_text(encoding="utf-8"))["missing"]
        found = {(r["node"], r["predicate"], r["direction"]) for r in reports}
        withheld = self.workload.withheld
        recalled = sum((s, p, "out") in found or (o, p, "in") in found for s, p, o in withheld)
        return {
            "pct_bits_vs_empty": doc["pct_bits_vs_empty"],
            "auc": _auc(scores, [e in noise for e in edges]),
            "missing_recall": recalled / len(withheld) if withheld else 0.0,
        }

    def end_to_end(self) -> dict[str, float]:
        samples = self.samples = {"setup_s": [], "summarize_s": [], "score_s": [], "complete_s": []}
        peak = 0.0
        per_iteration = 0.0
        while len(self.hashes) < MIN_ITERATIONS or self.elapsed() + per_iteration <= self.seconds:
            began = self.elapsed()
            setup = self.setup()
            if setup is None:
                return {}
            measured = self.commands(self.work / f"iter{len(self.hashes)}")
            if measured is None:
                return {}
            samples["setup_s"] += setup
            for cmd, runs in measured.items():
                samples[f"{cmd}_s"] += [wall for wall, _ in runs]
                peak = max([peak] + [rss for _, rss in runs])
            per_iteration = max(per_iteration, self.elapsed() - began)
        while len(samples["setup_s"]) < SETUP_SAMPLES:
            setup = self.setup()
            if setup is None:
                return {}
            samples["setup_s"] += setup
        # On a shared virtual machine the CPU can alternate between a fast and a
        # slow state, so a command's samples are bimodal: their median jumps from
        # one mode to the other between runs, their mean only moves with the share
        # of time spent in each.
        metrics = {name: statistics.mean(values) for name, values in samples.items()}
        metrics["peak_rss_mb"] = peak
        metrics.update(self.check_outputs(self.work / "iter0"))
        return metrics

    def per_layer(self) -> tuple[dict[str, float], list[dict]]:
        out = self.work / "iter0"
        if self.commands(out) is None:
            return {}, []
        self.check_outputs(out)
        runs: list[dict] = []
        per_trace = 0.0
        while not runs or self.elapsed() + per_trace <= self.seconds:
            began = self.elapsed()
            traced_model = self.work / f"traced{len(runs)}.json"
            argv = [str(BENCH / "trace_run.py"), self.inputs["graph"], self.inputs["labels"]]
            code, _, _, stdout = self.children.run([*argv, self.inputs["test_edges"], str(traced_model)])
            if not self.ops.check(code == 0, "traced run exited 0"):
                return {}, []
            self.ops.check(
                traced_model.read_bytes() == (out / "model.json").read_bytes(),
                "traced model_to_dict output byte-identical to the CLI's model.json",
            )
            runs.append(json.loads(stdout.read_text(encoding="utf-8")))
            per_trace = max(per_trace, self.elapsed() - began)
        metrics = {n: statistics.median(r["metrics"][n] for r in runs) for n in runs[0]["metrics"]}
        return metrics, runs[0]["spans"]


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def _declared() -> dict[int, dict[str, str]]:
    """Metric name -> unit for each trace mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(name: str, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    """One benchmark run; prints the record line and returns the result object."""
    units = _declared()[trace]
    bench = Run(name, seed, seconds, scale)
    record = {"workload": name, "seed": seed, "trace": trace, "machine": _machine()}
    if trace:
        metrics, record["spans"] = bench.per_layer()
    else:
        metrics = bench.end_to_end()
    record["samples"] = bench.samples
    record["sha256"] = bench.hashes
    record["L_total_bits_roundtrip_diff"] = bench.roundtrip_bits
    print(json.dumps(record))
    if metrics and not bench.ops.check(set(metrics) == set(units), "every declared metric measured"):
        print(f"metric names differ: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
    result = {
        "correct": bool(metrics) and bench.ops.failed == 0,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }
    if result["correct"]:
        shutil.rmtree(bench.work, ignore_errors=True)
    else:
        print(f"outputs kept in {bench.work}", file=sys.stderr)
    return result


def smoke() -> list[str]:
    """Every workload once at tiny scale in both modes; returns the problems found."""
    problems = []
    for trace, units in _declared().items():
        for name in workloads.GENERATORS:
            result = run(name, seed=0, seconds=0, trace=trace, scale=SMOKE_SCALE)
            where = f"{name} --trace {trace}"
            if not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{where}: metrics {sorted(set(got.items()) ^ set(units.items()))}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once at tiny scale")
    args = parser.parse_args(argv)
    if not (SRC / "kgsum" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a kgsum checkout (needs src/kgsum and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    if args.smoke:
        problems = smoke()
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

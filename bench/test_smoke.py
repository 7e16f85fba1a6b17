"""Smoke test for the benchmark: every workload runs once at tiny scale in
both modes and reports every metric ``BENCHMARK.json`` declares, with its unit.

    python3 -m pytest bench/test_smoke.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_smoke_reports_every_declared_metric():
    assert run.smoke() == []

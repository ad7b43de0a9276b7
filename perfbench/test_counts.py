"""Traced runs repeat their exact counts across runs and hash seeds.

Each workload is traced twice, under two ``PYTHONHASHSEED`` values;
every count and count ratio (unit ``count`` or ``ratio``) must be
identical.  Run with ``python -m pytest perfbench/test_counts.py`` from
the root of the repository (about three minutes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced_run(workload: str, hash_seed: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["report_cold", "report_warm",
                                      "promise_heavy", "serve_dup"])
def test_counts_repeat(workload):
    first = traced_run(workload, "1")
    second = traced_run(workload, "4242")
    assert first["correct"] and second["correct"]
    counts = {name for name, m in first["metrics"].items()
              if m["unit"] in ("count", "ratio")}
    assert counts
    differ = {name: (first["metrics"][name]["value"],
                     second["metrics"][name]["value"])
              for name in counts
              if first["metrics"][name] != second["metrics"][name]}
    assert not differ

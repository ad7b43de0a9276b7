"""The reference checks are not vacuous: a corrupted reference, or a
missing answer, raises the failed count.

Run with ``python -m pytest perfbench/test_checks.py`` from the root of
the repository (a few seconds).
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from workloads import GOLDEN_REPORT  # noqa: E402


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXPLORE_CACHE_DIR", str(tmp_path))


def _failed(count):
    return count[1]


def test_report_text_against_golden():
    with open(GOLDEN_REPORT, encoding="utf-8") as fh:
        golden = fh.read()
    corrupted = golden.replace("verified", "REJECTED", 1)
    assert corrupted != golden
    assert _failed(checks.check_text(golden, golden)) == 0
    assert _failed(checks.check_text(golden, corrupted)) == 1


def test_litmus_postconditions():
    from repro.litmus import full_corpus, run_corpus

    tests = full_corpus()[:4]
    outcomes = run_corpus(tests)
    assert checks.check_litmus(outcomes, 4) == (4, 0)
    flipped = dataclasses.replace(
        outcomes[0].test, allowed_rm=not outcomes[0].test.allowed_rm)
    corrupted = [dataclasses.replace(outcomes[0], test=flipped)] + outcomes[1:]
    assert _failed(checks.check_litmus(corrupted, 4)) == 1
    assert _failed(checks.check_litmus(outcomes[1:], 4)) == 1


def test_sekvm_should_verify():
    from repro.sekvm import verify_sekvm

    outcome = verify_sekvm(include_buggy=True)
    n = len(outcome.outcomes)
    assert checks.check_sekvm(outcome, n) == (n, 0)
    first = outcome.outcomes[0]
    case = dataclasses.replace(first.case,
                               should_verify=not first.case.should_verify)
    outcome.outcomes[0] = dataclasses.replace(first, case=case)
    assert _failed(checks.check_sekvm(outcome, n)) == 1


def test_sync_expectations():
    from repro.sync import all_primitives
    from repro.sync.verify import verify_primitive

    results = [verify_primitive(all_primitives()[0])]
    assert checks.check_sync(results, 1) == (1, 0)
    prim = dataclasses.replace(results[0].primitive,
                               correct=not results[0].primitive.correct)
    corrupted = [dataclasses.replace(results[0], primitive=prim)]
    assert _failed(checks.check_sync(corrupted, 1)) == 1
    assert _failed(checks.check_sync([], 1)) == 1


def test_behaviors_against_axiomatic_model():
    from repro.litmus import full_corpus
    from repro.memory import PROMISING_ARM, explore
    from repro.memory.axiomatic import axiomatic_outcomes, eligible

    program = next(t.program for t in full_corpus() if eligible(t.program))
    result = explore(program, PROMISING_ARM)
    reference = axiomatic_outcomes(program)
    assert _failed(checks.check_behaviors(result, reference)) == 0
    dropped = set(reference)
    dropped.pop()
    assert _failed(checks.check_behaviors(result, dropped)) == 1
    incomplete = dataclasses.replace(result, complete=False)
    assert _failed(checks.check_behaviors(incomplete, reference)) == 1


def test_served_digests_against_direct_answers():
    from repro.serve.jobs import execute_job, parse_job
    from repro.serve.traffic import synthetic_workload

    job = synthetic_workload(n_jobs=1, unique=1, seed=3)[0]
    doc = execute_job(parse_job(job).payload)
    reference = {"k": doc["behavior_digest"]}
    good = [(200, {"result": doc})]
    assert checks.check_served(good, ["k"], reference) == (1, 0)
    assert _failed(checks.check_served(good, ["k"], {"k": "0" * 64})) == 1
    assert _failed(checks.check_served([(500, {})], ["k"], reference)) == 1
    assert _failed(checks.check_served([], ["k"], reference)) == 1

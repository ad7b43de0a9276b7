"""Reference checks behind ``attempted`` / ``failed``.

Every answer a workload produces is compared with a reference that does
not come from the code path being timed: the litmus catalog's pinned
postconditions, the hand-written ``should_verify`` / ``correct``
expectations, a report text pinned from a known-good commit, the
axiomatic Arm model, and direct library calls for served jobs.  Each
check returns ``(attempted, failed)``: answers checked and answers that
were wrong or missing.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

Count = Tuple[int, int]


def check_expected(answers: Sequence, expected_len: int, ok) -> Count:
    """``ok(answer)`` per answer; answers short of *expected_len* are
    missing and count as failed."""
    failed = sum(1 for a in answers if not ok(a))
    missing = max(0, expected_len - len(answers))
    return max(expected_len, len(answers)), failed + missing


def check_litmus(outcomes: Optional[Sequence], n_tests: int) -> Count:
    """Each litmus outcome against its catalog postconditions."""
    return check_expected(outcomes or (), n_tests, lambda o: o.passed)


def check_sekvm(version_outcome, n_cases: int) -> Count:
    """Each SeKVM case verdict against its ``should_verify``."""
    outcomes = version_outcome.outcomes if version_outcome else ()
    return check_expected(outcomes, n_cases, lambda o: o.as_expected)


def check_sync(results: Optional[Sequence], n_primitives: int) -> Count:
    """Each synchronization primitive against its ``correct`` flag."""
    return check_expected(results or (), n_primitives,
                          lambda r: r.as_expected)


def check_text(text: str, golden: str) -> Count:
    """The whole report text against the pinned golden copy."""
    return 1, int(text != golden)


def check_behaviors(result, reference: Iterable) -> Count:
    """An exploration's behaviors against axiomatic outcomes.

    One answer per outcome in either set, plus one for completeness;
    an outcome in only one of the sets, a fault, a panic, or an
    incomplete search is a failure.
    """
    got = set()
    bad = 0
    for b in result.behaviors:
        got.add((b.registers, b.memory))
        bad += int(bool(b.faults) or b.panic is not None)
    ref = set(reference)
    return len(got | ref) + 1, len(got ^ ref) + bad + int(not result.complete)


def check_served(responses: Sequence[Tuple[int, Optional[dict]]],
                 keys: Sequence[str],
                 reference: Mapping[str, str]) -> Count:
    """Served ``behavior_digest`` values against direct ``execute_job``
    answers; a non-200 response or a missing digest is a failure."""
    failed = 0
    for (status, body), key in zip(responses, keys):
        digest = None
        if status == 200 and isinstance(body, dict):
            digest = (body.get("result") or {}).get("behavior_digest")
        failed += int(digest is None or digest != reference.get(key))
    failed += max(0, len(keys) - len(responses))
    return len(keys), failed


def add(*counts: Count) -> Count:
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def report_counts(
    text: str,
    golden: str,
    phases: Dict[str, object],
    sizes: Dict[str, int],
) -> Count:
    """All reference checks of one ``repro report`` run."""
    return add(
        check_text(text, golden),
        check_litmus(phases.get("litmus"), sizes["litmus"]),
        check_sekvm(phases.get("sekvm"), sizes["sekvm"]),
        check_sync(phases.get("sync"), sizes["sync"]),
    )

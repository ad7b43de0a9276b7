"""Admission control: per-tenant token budgets and a bounded queue.

Under overload a verification server has exactly two honest options:
make a client wait, or tell it *no* in a way it can act on.  This
module implements the second.  Two independent gates run before a cold
job may queue:

1. **Per-tenant token buckets** — each tenant (the ``X-Repro-Tenant``
   header, default ``"default"``) gets ``rate`` tokens/second with a
   ``burst`` ceiling; a cold job spends one token.  A drained bucket
   yields a typed 429 (``tenant_budget_exhausted``) with a
   ``retry_after_seconds`` hint.
2. **A bounded global queue** — when the queue is full the *oldest*
   queued job is shed (its waiters get the typed 429) in favor of the
   newcomer.  Shed-oldest beats reject-newest here because the oldest
   entry has the worst remaining-latency prospects anyway, and the
   policy keeps admission latency flat under a flood.

Cache and coalesce hits bypass both gates entirely — *warm-cache
admission control*: traffic the server can answer from memory is never
the traffic that overloads it, so it is never shed.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

#: Error type strings clients switch on (the ``error.type`` field of a
#: 429 body; see docs/SERVING.md).
TENANT_BUDGET_EXHAUSTED = "tenant_budget_exhausted"
QUEUE_SHED = "queue_shed"


class TokenBucket:
    """The classic leaky-bucket rate limiter, injectable clock for tests."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def try_take(self, amount: float = 1.0) -> bool:
        """Spend *amount* tokens if available; False means throttled."""
        self._refill()
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def retry_after(self, amount: float = 1.0) -> float:
        """Seconds until *amount* tokens will have accumulated."""
        self._refill()
        missing = amount - self._tokens
        if missing <= 0 or self.rate <= 0:
            return 0.0
        return missing / self.rate


class AdmissionControl:
    """Tenant budgets for the serving layer.

    ``rate <= 0`` disables throttling (every tenant always admitted) —
    the test and smoke-test configuration, where the traffic source is
    trusted and the measurement wants the queue, not the limiter, to be
    the bottleneck.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self._clock = clock
        self._tenants: Dict[str, TokenBucket] = {}
        self.admitted = 0
        self.throttled = 0

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._tenants.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
            self._tenants[tenant] = bucket
        return bucket

    def admit(self, tenant: str) -> Optional[Dict[str, Any]]:
        """Charge *tenant* for one cold job.

        Returns ``None`` on admission, or the JSON error body for a
        typed 429 when the tenant's budget is exhausted.
        """
        if self.rate <= 0:
            self.admitted += 1
            return None
        bucket = self._bucket(tenant)
        if bucket.try_take():
            self.admitted += 1
            return None
        self.throttled += 1
        return {
            "error": {
                "type": TENANT_BUDGET_EXHAUSTED,
                "tenant": tenant,
                "retry_after_seconds": round(bucket.retry_after(), 3),
            }
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "tenants": len(self._tenants),
            "admitted": self.admitted,
            "throttled": self.throttled,
        }


def shed_error(key: str) -> Dict[str, Any]:
    """The typed 429 body a shed job's waiters receive."""
    return {
        "error": {
            "type": QUEUE_SHED,
            "key": key,
            "retry_after_seconds": 1.0,
        }
    }

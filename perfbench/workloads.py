"""The four benchmark workloads.

Each workload follows one protocol, driven by ``run.py``:

* ``setup()`` imports ``repro`` afresh and builds the inputs (timed,
  several times per run; ``discard()`` drops a set-up that is not kept);
* ``prepare()`` does untimed preparation (references, warm caches);
* ``iteration()`` does one timed unit of work and returns an
  :class:`Iteration`;
* ``finish()`` runs checks deferred past the timed loop;
* ``traced()`` runs one more unit with the per-layer wrappers installed;
* ``close()`` stops every process the workload started.

The workload seed is a benchmark argument: ``serve_dup`` draws its
request names from it; the other inputs are fixed (see ``POOL_SEED``).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import checks
import layers
from tracing import Patches, Spans

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_REPORT = os.path.join(HERE, "golden", "report.txt")


@dataclass
class Iteration:
    """One timed unit of work."""

    wall: float
    latencies: List[float]
    attempted: int = 0
    failed: int = 0


@dataclass
class Traced:
    """The traced unit: its wall time and per-layer metrics."""

    wall: float
    metrics: Dict[str, Tuple[float, str]]
    violations: List[str] = field(default_factory=list)


class Scratch:
    """Temporary directories inside the checkout, removed on cleanup."""

    def __init__(self, root: str) -> None:
        self.base = os.path.join(root, ".perfbench-run")
        os.makedirs(os.path.join(self.base, "tmp"), exist_ok=True)
        self.run_dir = tempfile.mkdtemp(
            prefix=f"run{os.getpid()}-", dir=os.path.join(self.base, "tmp"))

    def fresh(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=label + "-", dir=self.run_dir)

    def out_path(self, name: str) -> str:
        folder = os.path.join(self.base, "out")
        os.makedirs(folder, exist_ok=True)
        return os.path.join(folder, name)

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def import_repro(modules) -> Dict[str, object]:
    """Import *modules* from source as a new process would: every
    ``repro`` module already loaded is dropped first."""
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(name) for name in modules}
    cache = importlib.import_module("repro.memory.cache")
    cache.code_fingerprint()
    cache.monitor_code_fingerprint()
    return mods


def set_cache_dir(path: str) -> None:
    os.environ["REPRO_EXPLORE_CACHE_DIR"] = path


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set size of one process (``VmHWM``), in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Every live process below *pid*, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def subprocess_env(root: str, cache_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_EXPLORE_CACHE_DIR"] = cache_dir
    return env


class Workload:
    """Shared plumbing; subclasses implement the protocol above."""

    name = ""

    def __init__(self, root: str, scratch: Scratch, seed: int) -> None:
        self.root = root
        self.scratch = scratch
        self.seed = seed
        self.violations: List[str] = []

    def discard(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def finish(self) -> Tuple[int, int]:
        return 0, 0

    def peak_rss_mb(self) -> float:
        return vm_hwm_kb(os.getpid()) / 1024.0

    def close(self) -> None:
        pass

    def traced(self) -> Traced:
        """One more unit of work under the per-layer wrappers."""
        spans, patches = Spans(), Patches()
        totals = layers.EngineTotals()
        cache = importlib.import_module("repro.memory.cache")
        violations = layers.install(spans, patches, totals)
        cache.reset_lookup_stats()
        try:
            unit = self.iteration()
        finally:
            patches.restore()
        if unit.failed:
            violations.append(f"{unit.failed} of {unit.attempted} traced "
                              "answers wrong")
        lookups = cache.lookup_stats()
        disk = cache.disk_stats()["engine"]
        spans.write(self.scratch.out_path(f"spans-{self.name}.bin"))
        metrics, calls = layers.per_layer_metrics(spans, totals, lookups,
                                                  disk)
        metrics["trace.spans"] = (len(spans), "count")
        violations += layers.wrapper_violations(self.name, calls)
        if self.name == "report_cold":
            misses = (lookups["misses"].get("explore", 0)
                      + lookups["misses"].get("monitored", 0))
            if calls.get("explore", 0) != misses:
                violations.append(
                    f"explore ran {calls.get('explore', 0)} times but the "
                    f"engine cache missed {misses} times")
        return Traced(unit.wall, metrics, violations)


# ---------------------------------------------------------------------------
# repro report, cold and warm

REPORT_MODULES = (
    "repro.cli", "repro.litmus", "repro.perf", "repro.perf.contention",
    "repro.report", "repro.sekvm", "repro.sync",
)


class ReportWorkload(Workload):
    """The seven-section ``repro report``, run in-process and serially."""

    def setup(self) -> None:
        mods = import_repro(REPORT_MODULES)
        self.cli = mods["repro.cli"]
        self.cache = importlib.import_module("repro.memory.cache")
        sekvm = mods["repro.sekvm"]
        levels = sekvm.default_version().s2_levels
        self.sizes = {
            "litmus": len(mods["repro.litmus"].full_corpus()),
            "sekvm": len(list(sekvm.kcore_verified_cases(levels)))
            + len(list(sekvm.kcore_buggy_cases(levels))),
            "sync": len(mods["repro.sync"].all_primitives()),
        }
        with open(GOLDEN_REPORT, encoding="utf-8") as fh:
            self.golden = fh.read()
        # Capture each section's structured answer for the reference
        # checks; eight calls per report, so the cost is nil.
        self.phases: Dict[str, object] = {}
        patches = Patches()
        for name, module, attr in layers.PHASES:
            patches.function(module, attr,
                             lambda fn, n=name: self._capture(fn, n), name)

    def _capture(self, fn, name):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.phases[name] = result
            return result
        return wrapper

    def _cache_dir(self) -> str:
        """A fresh engine cache directory for one report run."""
        raise NotImplementedError

    def iteration(self) -> Iteration:
        set_cache_dir(self._cache_dir())
        self.cache.clear_memory_cache()
        self.cache.reset_lookup_stats()
        self.phases.clear()
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["report"])
        wall = time.perf_counter() - start
        attempted, failed = checks.report_counts(
            out.getvalue(), self.golden, self.phases, self.sizes)
        failed += int(code != 0)
        self._check_lookups(self.cache.lookup_stats())
        return Iteration(wall, [wall], attempted, failed)

    def _check_lookups(self, lookups) -> None:
        raise NotImplementedError


class ReportCold(ReportWorkload):
    """Every exploration computed; every result written to disk."""

    name = "report_cold"

    def _cache_dir(self) -> str:
        return self.scratch.fresh("cold")

    def _check_lookups(self, lookups) -> None:
        if lookups["hits"].get("disk", 0):
            self.violations.append(
                f"report_cold read {lookups['hits']['disk']} disk entries")


class ReportWarm(ReportWorkload):
    """Every exploration answered from a disk cache a cold pass filled."""

    name = "report_warm"

    def prepare(self) -> None:
        """Fill (once per checkout and engine version) a warm cache.

        The preparation is a cold ``repro report`` in a child process,
        keyed by the engine's code fingerprints so an edited engine never
        replays stale entries.  Each iteration copies it into a fresh
        directory.
        """
        key = hashlib.sha256("\0".join((
            self.cache.code_fingerprint(),
            self.cache.monitor_code_fingerprint(),
            self.cache.smt_code_fingerprint(),
            sys.version,
        )).encode()).hexdigest()[:24]
        warm_root = os.path.join(self.scratch.base, "warm")
        self.warm = os.path.join(warm_root, key)
        if not os.path.isdir(self.warm):
            os.makedirs(warm_root, exist_ok=True)
            staging = tempfile.mkdtemp(prefix="staging-", dir=warm_root)
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "report"], cwd=self.root,
                env=subprocess_env(self.root, staging),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=150,
            )
            if proc.returncode != 0 or proc.stdout != self.golden:
                shutil.rmtree(staging, ignore_errors=True)
                raise RuntimeError(
                    "warm-cache preparation report failed or differs from "
                    "the golden report:\n" + proc.stderr[-2000:])
            try:
                os.rename(staging, self.warm)
            except OSError:  # published concurrently by another run
                shutil.rmtree(staging, ignore_errors=True)
        self.entries = sorted(n for n in os.listdir(self.warm)
                              if n.endswith(".pkl"))

    def _cache_dir(self) -> str:
        folder = self.scratch.fresh("warm")
        for name in self.entries:
            shutil.copyfile(os.path.join(self.warm, name),
                            os.path.join(folder, name))
        return folder

    def _check_lookups(self, lookups) -> None:
        computed = sum(lookups["misses"].values())
        disk = lookups["hits"].get("disk", 0)
        if computed or disk != len(self.entries):
            self.violations.append(
                f"report_warm computed {computed} results and read {disk} "
                f"of {len(self.entries)} disk entries")


# ---------------------------------------------------------------------------
# one deep promise-certification exploration

class PromiseHeavy(Workload):
    """``promise_heavy_program()`` on Promising Arm, three promises per
    thread, POR on (the default)."""

    name = "promise_heavy"

    def setup(self) -> None:
        mods = import_repro((
            "repro.memory.exploration", "repro.memory.semantics",
            "repro.memory.axiomatic", "repro.parallel.bench",
        ))
        self.exploration = mods["repro.memory.exploration"]
        self.axiomatic = mods["repro.memory.axiomatic"]
        self.program = mods["repro.parallel.bench"].promise_heavy_program()
        self.cfg = mods["repro.memory.semantics"].ModelConfig(
            relaxed=True, max_promises_per_thread=3)
        set_cache_dir(self.scratch.fresh("engine"))

    def prepare(self) -> None:
        self.reference = self.axiomatic.axiomatic_outcomes(self.program)

    def iteration(self) -> Iteration:
        start = time.perf_counter()
        result = self.exploration.explore(self.program, self.cfg)
        wall = time.perf_counter() - start
        attempted, failed = checks.check_behaviors(result, self.reference)
        return Iteration(wall, [wall], attempted, failed)


# ---------------------------------------------------------------------------
# repro serve under duplicate-heavy closed-loop traffic

#: Closed loop: each client submits its next job only after the reply.
CLIENTS = 2
JOBS_PER_ROUND = 400
UNIQUE_PER_ROUND = 40
#: Every round sends the same traffic: ``synthetic_workload`` with its
#: own default seed, in its own order.  Per-genome cost is heavy-tailed
#: (median about 20 ms, p99 about 2 s on a 2-CPU host) and the single
#: worker queues cold jobs, so drawing the genomes from the run seed
#: moved the compute cost of 40 genomes between 1.8 and 7.9 s, and
#: drawing only their order moved p95 latency between 82 and 157 ms.
#: The run seed draws the request names, which dedup must see through.
POOL_SEED = 0


class Server:
    """One ``python -m repro serve`` child with its own cache dir."""

    def __init__(self, root: str, cache_dir: str) -> None:
        self.log_path = os.path.join(cache_dir, "serve.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=subprocess_env(root, cache_dir),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + 60
        marker = "listening on http://127.0.0.1:"
        while time.monotonic() < deadline:
            with open(self.log_path) as fh:
                text = fh.read()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve did not start:\n" + text[-2000:])

    def peak_rss_kb(self) -> int:
        pids = [self.proc.pid] + descendants(self.proc.pid)
        return sum(vm_hwm_kb(pid) for pid in pids)

    def stop(self) -> None:
        """Interrupt the server, then make sure its workers are gone."""
        workers = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in workers:
            if _alive(pid):
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 20
        while workers and time.monotonic() < deadline:
            workers = [p for p in workers if _alive(p)]
            time.sleep(0.01)
        self._log.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class ServeDup(Workload):
    """Default-config ``repro serve`` (one forked worker, hot tier and
    disk on) under duplicate-heavy traffic from two closed-loop clients.

    One round is 400 requests over 40 distinct genomes against a fresh
    server and cache directory.  Each block of 40 requests holds every
    genome once in the same order, so a repeat always trails its first
    request by 40 and is served from the hot tier.
    """

    name = "serve_dup"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.server: Optional[Server] = None
        self.replies: List[List[Optional[Tuple[int, dict]]]] = []
        self.reference: Dict[str, str] = {}
        self.peak_kb = 0

    def setup(self) -> None:
        mods = import_repro(("repro.serve.traffic", "repro.serve.client",
                             "repro.serve.jobs"))
        self.client = mods["repro.serve.client"]
        self.jobs_mod = mods["repro.serve.jobs"]
        self.jobs = self._traffic(mods["repro.serve.traffic"])
        self.server = Server(self.root, self.scratch.fresh("serve"))

    def _traffic(self, traffic) -> List[dict]:
        jobs = traffic.synthetic_workload(
            n_jobs=JOBS_PER_ROUND, unique=UNIQUE_PER_ROUND, seed=POOL_SEED)
        for i, job in enumerate(jobs):
            job["genome"]["name"] = f"traffic-s{self.seed}-req{i}"
        return jobs

    def _stop_server(self) -> None:
        if self.server is not None:
            self.peak_kb = max(self.peak_kb, self.server.peak_rss_kb())
            self.server.stop()
            self.server = None

    def discard(self) -> None:
        self._stop_server()

    async def _closed_loop(self, port: int):
        jobs = self.jobs
        replies: List[Optional[Tuple[int, dict]]] = [None] * len(jobs)
        latencies = [0.0] * len(jobs)
        order = iter(range(len(jobs)))

        async def client() -> None:
            for i in order:
                begin = time.perf_counter()
                try:
                    replies[i] = await self.client.submit_job(
                        "127.0.0.1", port, jobs[i], wait=True)
                except (OSError, ValueError, IndexError):
                    replies[i] = (0, None)
                latencies[i] = time.perf_counter() - begin

        begin = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(CLIENTS)))
        return time.perf_counter() - begin, latencies, replies

    def _round(self, label: str):
        """One round on a fresh server (started and stopped untimed);
        returns its wall time, latencies, replies and the server's
        ``/v1/stats`` counters, which cover exactly this round."""
        if self.server is None:
            self.server = Server(self.root, self.scratch.fresh(label))
        port = self.server.port
        wall, latencies, replies = asyncio.run(self._closed_loop(port))
        counters = asyncio.run(self.client.get_stats("127.0.0.1", port))[
            "counters"]
        self._stop_server()
        self.replies.append(replies)
        return wall, latencies, replies, counters

    def iteration(self) -> Iteration:
        wall, latencies, _, _ = self._round("serve")
        return Iteration(wall, latencies)

    def peak_rss_mb(self) -> float:
        return (vm_hwm_kb(os.getpid()) + self.peak_kb) / 1024.0

    def finish(self) -> Tuple[int, int]:
        """Check every served digest against direct ``execute_job``
        answers, computed once per run with a cache of their own."""
        if not self.reference:
            set_cache_dir(self.scratch.fresh("reference"))
            self.keys = [self._reference_key(job, self.reference)
                         for job in self.jobs]
        total = (0, 0)
        for replies in self.replies:
            total = checks.add(total, checks.check_served(
                [r or (0, None) for r in replies], self.keys,
                self.reference))
        self.replies.clear()
        return total

    def _reference_key(self, job: dict, reference: Dict[str, str]) -> str:
        """Content identity of *job* (its display name dropped) and its
        directly computed digest."""
        content = dict(job, genome=dict(job["genome"], name=""))
        key = json.dumps(content, sort_keys=True)
        if key not in reference:
            payload = self.jobs_mod.parse_job(job).payload
            reference[key] = self.jobs_mod.execute_job(payload)[
                "behavior_digest"]
        return key

    def traced(self) -> Traced:
        """One more round, latency split by the response ``source``."""
        wall, latencies, replies, counters = self._round("traced")
        by_source: Dict[str, List[float]] = {}
        for latency, reply in zip(latencies, replies):
            if reply and reply[0] == 200:
                by_source.setdefault(reply[1].get("source"), []).append(
                    latency)
        attempted, failed = self.finish()
        metrics = layers.serve_metrics(counters, by_source)
        violations = [f"{failed} of {attempted} traced answers wrong"] \
            if failed else []
        violations += [f"serve.{name} is 0 on serve_dup"
                       for name in ("hot_hits", "computed")
                       if not metrics[f"serve.{name}"][0]]
        return Traced(wall, metrics, violations)

    def close(self) -> None:
        self._stop_server()


WORKLOADS = {w.name: w for w in (ReportCold, ReportWarm, PromiseHeavy,
                                 ServeDup)}

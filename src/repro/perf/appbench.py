"""Figure 8 harness: single-VM application performance vs native.

For each (application, machine, hypervisor, Linux version), compute
normalized performance — the paper plots throughput/runtime normalized
to native execution.  The model:

``overhead = sum(rate_i * cost_i) / cpu_hz`` where the rates come from
the workload profile (Table 4) and the per-event costs from the
operation simulator (the same costs that produce Table 3).  Normalized
performance is ``(1 - base_virt_tax) / (1 + io_bound * overhead)``.

Reproduction targets from the paper's text: SeKVM within 10% of
unmodified KVM for every workload on both machines, and no substantial
change between 2-vCPU and 4-vCPU VM configurations or kernel versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf.hypersim import Hypervisor, SimConfig, simulate_operation
from repro.perf.machine import M400, SEATTLE, MachineModel
from repro.perf.workloads import APP_WORKLOADS, AppWorkload


@dataclass(frozen=True)
class AppBenchResult:
    workload: str
    machine: str
    hypervisor: str
    linux: str
    vcpus: int
    normalized_perf: float      # 1.0 == native


def event_costs(cfg: SimConfig) -> Dict[str, float]:
    """Per-event cycle costs for one configuration.

    Each call re-runs the operation simulator; a sweep over one
    configuration computes the costs once and passes them as ``costs=``
    (see :func:`run_figure8` and :func:`repro.perf.scaling.run_figure9`).
    """
    return {
        "hypercall": simulate_operation(cfg, "Hypercall"),
        "io_kernel": simulate_operation(cfg, "I/O Kernel"),
        "io_user": simulate_operation(cfg, "I/O User"),
        "ipi": simulate_operation(cfg, "Virtual IPI"),
    }


def normalized_performance(
    workload: AppWorkload,
    cfg: SimConfig,
    vcpus: int = 2,
    costs: Optional[Dict[str, float]] = None,
) -> float:
    """Normalized (to native) performance of *workload* under *cfg*."""
    if costs is None:
        costs = event_costs(cfg)
    # More vCPUs -> slightly more cross-vCPU IPIs per unit of work.
    ipi_scale = 1.0 + 0.15 * max(0, vcpus - 2)
    cycles_per_sec = (
        workload.hypercall_rate * costs["hypercall"]
        + workload.io_kernel_rate * costs["io_kernel"]
        + workload.io_user_rate * costs["io_user"]
        + workload.ipi_rate * ipi_scale * costs["ipi"]
    )
    cpu_hz = cfg.machine.freq_ghz * 1e9
    overhead = cycles_per_sec / cpu_hz
    return (1.0 - workload.base_virt_tax) / (1.0 + workload.io_bound * overhead)


def run_figure8(
    machines: Sequence[MachineModel] = (M400, SEATTLE),
    linux_versions: Sequence[str] = ("4.18", "5.4"),
) -> List[AppBenchResult]:
    """All Figure 8 series: app x machine x hypervisor x kernel."""
    results: List[AppBenchResult] = []
    for machine in machines:
        vcpus = 2 if machine.name == "m400" else 4
        for linux in linux_versions:
            for hypervisor in (Hypervisor.KVM, Hypervisor.SEKVM):
                cfg = SimConfig(
                    machine=machine, hypervisor=hypervisor, linux=linux
                )
                costs = event_costs(cfg)
                for workload in APP_WORKLOADS:
                    perf = normalized_performance(
                        workload, cfg, vcpus=vcpus, costs=costs
                    )
                    results.append(
                        AppBenchResult(
                            workload=workload.name,
                            machine=machine.name,
                            hypervisor=hypervisor.value,
                            linux=linux,
                            vcpus=vcpus,
                            normalized_perf=perf,
                        )
                    )
    return results


def sekvm_vs_kvm_overhead(
    results: Sequence[AppBenchResult],
) -> Dict[Tuple[str, str, str], float]:
    """Per (workload, machine, linux): 1 - SeKVM/KVM, the paper's
    '<10% worst-case overhead' quantity."""
    table: Dict[Tuple[str, str, str, str], float] = {}
    for r in results:
        table[(r.workload, r.machine, r.linux, r.hypervisor)] = r.normalized_perf
    out: Dict[Tuple[str, str, str], float] = {}
    for (workload, machine, linux, hyp), perf in table.items():
        if hyp != "SeKVM":
            continue
        kvm = table[(workload, machine, linux, "KVM")]
        out[(workload, machine, linux)] = 1.0 - perf / kvm
    return out


def format_figure8(results: Sequence[AppBenchResult]) -> str:
    lines = [
        "Figure 8. Single-VM application benchmark performance "
        "(normalized to native; higher is better)",
        f"{'workload':<10} {'machine':<8} {'linux':<6} "
        f"{'KVM':>6} {'SeKVM':>7} {'overhead':>9}",
    ]
    by_key: Dict[Tuple[str, str, str, str], float] = {
        (r.workload, r.machine, r.linux, r.hypervisor): r.normalized_perf
        for r in results
    }
    seen = []
    for r in results:
        key = (r.workload, r.machine, r.linux)
        if key in seen:
            continue
        seen.append(key)
        kvm = by_key[key + ("KVM",)]
        sekvm = by_key[key + ("SeKVM",)]
        lines.append(
            f"{r.workload:<10} {r.machine:<8} {r.linux:<6} "
            f"{kvm:>6.2f} {sekvm:>7.2f} {1 - sekvm / kvm:>8.1%}"
        )
    return "\n".join(lines)

"""Figure 9 harness: multi-VM scalability on the m400 (Linux 4.18).

Runs 1..32 two-vCPU VM instances of each Table-4 application on the
8-core m400 model under KVM and SeKVM, using the discrete-event
scheduler of :mod:`repro.perf.events`.  Performance is normalized to
native execution of one workload instance, matching the paper's plots.

Reproduction targets: throughput per VM decays as instances contend for
CPUs (beyond 4 VMs the machine is oversubscribed) and the I/O backend;
KVM and SeKVM decay *together*, with SeKVM no more than ~10% behind at
every point — the paper's scalability-parity result.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf.appbench import event_costs
from repro.perf.events import MultiVMSimulator, VCpuTask
from repro.perf.hypersim import Hypervisor, SimConfig
from repro.perf.machine import M400, MachineModel
from repro.perf.workloads import APP_WORKLOADS, AppWorkload, workload_by_name

#: VM counts plotted in Figure 9.
VM_COUNTS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class ScalingPoint:
    workload: str
    hypervisor: str
    vms: int
    normalized_perf: float      # native single-instance == 1.0


def _per_io_overhead_seconds(
    workload: AppWorkload, cfg: SimConfig, costs: Dict[str, float]
) -> Tuple[float, float]:
    """(io_interval, exit_overhead) per I/O event for the DES.

    All event types are folded into one aggregate I/O event stream with
    a weighted-average exit cost.
    """
    rates = {
        "hypercall": workload.hypercall_rate,
        "io_kernel": workload.io_kernel_rate,
        "io_user": workload.io_user_rate,
        "ipi": workload.ipi_rate,
    }
    total_rate = sum(rates.values())
    if total_rate == 0:
        return float("inf"), 0.0
    avg_cost_cycles = (
        sum(rates[k] * costs[k] for k in rates) / total_rate
    )
    cpu_hz = cfg.machine.freq_ghz * 1e9
    io_interval = 1.0 / total_rate          # seconds of work per event
    exit_overhead = avg_cost_cycles / cpu_hz
    return io_interval, exit_overhead


def simulate_scaling(
    workload: AppWorkload,
    cfg: SimConfig,
    n_vms: int,
    vcpus_per_vm: int = 2,
    native_seconds: float = 1.0,
    io_service: float = 5e-7,
    batch: int = 200,
    costs: Optional[Dict[str, float]] = None,
) -> float:
    """Normalized per-VM performance with *n_vms* concurrent instances.

    ``batch`` coalesces that many hypervisor events into one simulated
    I/O operation (scaling interval, exit overhead, and backend service
    together), keeping the event count tractable without changing the
    utilization arithmetic.  ``costs`` defaults to ``event_costs(cfg)``.
    """
    if costs is None:
        costs = event_costs(cfg)
    io_interval, exit_overhead = _per_io_overhead_seconds(workload, cfg, costs)
    io_interval *= batch
    exit_overhead *= batch
    sim = MultiVMSimulator(cpus=cfg.machine.cpus, io_servers=2)
    work_per_vcpu = (
        native_seconds * (1.0 + workload.base_virt_tax) / vcpus_per_vm
    )
    for vm_id in range(n_vms):
        for vcpu_id in range(vcpus_per_vm):
            sim.add_task(
                VCpuTask(
                    vm_id=vm_id,
                    vcpu_id=vcpu_id,
                    cpu_work=work_per_vcpu,
                    io_interval=io_interval,
                    exit_overhead=exit_overhead * workload.io_bound,
                    io_service=io_service * batch,
                )
            )
    sim.run()
    completions = sim.vm_completion_times()
    avg_completion = mean(completions.values())
    # Native runs the same work on dedicated cores with no exits or
    # backend contention: its completion is work_per_vcpu without the
    # virtualization tax.
    native_completion = native_seconds / vcpus_per_vm
    return native_completion / avg_completion


def run_figure9(
    workloads: Optional[Sequence[AppWorkload]] = None,
    vm_counts: Sequence[int] = VM_COUNTS,
    machine: MachineModel = M400,
    linux: str = "4.18",
) -> List[ScalingPoint]:
    """All Figure 9 series (m400, Linux 4.18, 1..32 VMs)."""
    workloads = list(workloads or APP_WORKLOADS)
    points: List[ScalingPoint] = []
    for hypervisor in (Hypervisor.KVM, Hypervisor.SEKVM):
        cfg = SimConfig(machine=machine, hypervisor=hypervisor, linux=linux)
        costs = event_costs(cfg)
        for workload in workloads:
            for n in vm_counts:
                perf = simulate_scaling(workload, cfg, n, costs=costs)
                points.append(
                    ScalingPoint(
                        workload=workload.name,
                        hypervisor=hypervisor.value,
                        vms=n,
                        normalized_perf=perf,
                    )
                )
    return points


def format_figure9(points: Sequence[ScalingPoint]) -> str:
    lines = [
        "Figure 9. Multi-VM application benchmark performance "
        "(m400, normalized to 1 native instance)",
        f"{'workload':<10} {'hyp':<6} "
        + " ".join(f"{n:>6}VM" for n in VM_COUNTS),
    ]
    keys = sorted({(p.workload, p.hypervisor) for p in points})
    table = {(p.workload, p.hypervisor, p.vms): p.normalized_perf for p in points}
    for workload, hyp in keys:
        row = " ".join(
            f"{table[(workload, hyp, n)]:>8.2f}"
            for n in VM_COUNTS
            if (workload, hyp, n) in table
        )
        lines.append(f"{workload:<10} {hyp:<6} {row}")
    return "\n".join(lines)

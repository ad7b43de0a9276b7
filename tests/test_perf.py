"""Tests for the evaluation substrate: machines, operation simulation,
workloads, and the Table 3 / Figure 8 / Figure 9 harnesses.

The quantitative assertions encode the paper's *shapes*: who wins, by
roughly what factor, and where the machine-dependent gaps appear.
"""

import pytest

from repro.perf import (
    APP_WORKLOADS,
    Hypervisor,
    M400,
    MICROBENCHMARKS,
    MultiVMSimulator,
    PAPER_TABLE3,
    SEATTLE,
    SimConfig,
    VCpuTask,
    VM_COUNTS,
    describe_table2,
    describe_table4,
    normalized_performance,
    overhead_ratio,
    run_figure8,
    run_figure9,
    run_table3,
    sekvm_vs_kvm_overhead,
    simulate_operation,
    simulate_scaling,
    workload_by_name,
)


class TestMachineModels:
    def test_m400_tlb_much_smaller(self):
        assert M400.tlb_entries * 4 <= SEATTLE.tlb_entries

    def test_nested_walk_costs_more_than_host(self):
        for machine in (M400, SEATTLE):
            assert machine.nested_miss_cost(4) > machine.host_miss_cost()

    def test_fewer_s2_levels_cheaper_refills(self):
        assert M400.nested_miss_cost(3) < M400.nested_miss_cost(4)


class TestOperationSimulation:
    @pytest.mark.parametrize("machine", [M400, SEATTLE], ids=lambda m: m.name)
    @pytest.mark.parametrize("op", [m.name for m in MICROBENCHMARKS])
    def test_sekvm_costs_more_than_kvm(self, machine, op):
        kvm = simulate_operation(
            SimConfig(machine=machine, hypervisor=Hypervisor.KVM), op
        )
        sekvm = simulate_operation(
            SimConfig(machine=machine, hypervisor=Hypervisor.SEKVM), op
        )
        assert sekvm > kvm

    def test_unknown_operation_rejected(self):
        from repro.errors import ReproError

        cfg = SimConfig(machine=M400, hypervisor=Hypervisor.KVM)
        with pytest.raises(ReproError):
            simulate_operation(cfg, "Bogus")

    def test_deterministic(self):
        cfg = SimConfig(machine=M400, hypervisor=Hypervisor.SEKVM)
        a = simulate_operation(cfg, "Hypercall")
        b = simulate_operation(cfg, "Hypercall")
        assert a == b


class TestTable3:
    CELLS = run_table3()

    def test_all_cells_present(self):
        assert len(self.CELLS) == 16

    def test_within_25_percent_of_paper(self):
        for cell in self.CELLS:
            assert 0.75 <= cell.ratio_to_paper <= 1.25, (
                f"{cell.operation}/{cell.machine}/{cell.hypervisor}: "
                f"{cell.cycles:.0f} vs paper {cell.paper_cycles}"
            )

    def test_m400_overhead_much_larger_than_seattle(self):
        """The paper's headline Table 3 observation: the tiny-TLB m400
        suffers ~2x SeKVM overhead; Seattle only ~1.2-1.3x."""
        for op in ("Hypercall", "I/O Kernel"):
            m400_ratio = overhead_ratio(self.CELLS, op, "m400")
            seattle_ratio = overhead_ratio(self.CELLS, op, "seattle")
            assert m400_ratio > 1.7, f"{op} m400 ratio {m400_ratio:.2f}"
            assert 1.1 < seattle_ratio < 1.45, (
                f"{op} seattle ratio {seattle_ratio:.2f}"
            )
            assert m400_ratio > seattle_ratio

    def test_format_contains_all_ops(self):
        from repro.perf import format_table3

        text = format_table3(self.CELLS)
        for op in ("Hypercall", "I/O Kernel", "I/O User", "Virtual IPI"):
            assert op in text


class TestFigure8:
    RESULTS = run_figure8()

    def test_all_series_present(self):
        # 5 workloads x 2 machines x 2 kernels x 2 hypervisors
        assert len(self.RESULTS) == 40

    def test_normalized_perf_below_native(self):
        for r in self.RESULTS:
            assert 0.5 < r.normalized_perf < 1.0

    def test_sekvm_within_10_percent_of_kvm(self):
        overheads = sekvm_vs_kvm_overhead(self.RESULTS)
        assert max(overheads.values()) < 0.10

    def test_compute_bound_beats_io_bound(self):
        perfs = {
            (r.workload, r.hypervisor): r.normalized_perf
            for r in self.RESULTS
            if r.machine == "m400" and r.linux == "4.18"
        }
        assert perfs[("Kernbench", "SeKVM")] > perfs[("Apache", "SeKVM")]

    def test_no_substantial_change_across_kernel_versions(self):
        perfs = {}
        for r in self.RESULTS:
            perfs[(r.workload, r.machine, r.hypervisor, r.linux)] = (
                r.normalized_perf
            )
        for (w, m, h, linux), perf in perfs.items():
            if linux != "4.18":
                continue
            other = perfs[(w, m, h, "5.4")]
            assert abs(perf - other) < 0.05


class TestDiscreteEventSimulator:
    def test_single_task_runs_to_completion(self):
        sim = MultiVMSimulator(cpus=1)
        sim.add_task(VCpuTask(0, 0, cpu_work=0.1, io_interval=0.02,
                              exit_overhead=0.0, io_service=0.0))
        makespan = sim.run()
        assert makespan == pytest.approx(0.1, rel=1e-6)

    def test_io_service_adds_wait(self):
        sim = MultiVMSimulator(cpus=1)
        sim.add_task(VCpuTask(0, 0, cpu_work=0.1, io_interval=0.02,
                              exit_overhead=0.0, io_service=0.01))
        makespan = sim.run()
        assert makespan > 0.1

    def test_exit_overhead_charged(self):
        def run(exit_overhead):
            sim = MultiVMSimulator(cpus=1)
            sim.add_task(VCpuTask(0, 0, cpu_work=0.1, io_interval=0.02,
                                  exit_overhead=exit_overhead, io_service=0.0))
            return sim.run()

        assert run(0.001) > run(0.0)

    def test_cpu_contention_slows_everyone(self):
        def makespan(tasks):
            sim = MultiVMSimulator(cpus=2)
            for i in range(tasks):
                sim.add_task(VCpuTask(i, 0, cpu_work=0.05, io_interval=0.01,
                                      exit_overhead=0.0, io_service=0.0))
            sim.run()
            return max(sim.vm_completion_times().values())

        assert makespan(4) > makespan(2) * 1.5

    def test_vm_completion_times_tracked_per_vm(self):
        sim = MultiVMSimulator(cpus=4)
        for vm in range(2):
            for vcpu in range(2):
                sim.add_task(VCpuTask(vm, vcpu, cpu_work=0.02,
                                      io_interval=0.01, exit_overhead=0.0,
                                      io_service=0.0))
        sim.run()
        assert set(sim.vm_completion_times()) == {0, 1}


class TestFigure9:
    POINTS = run_figure9(vm_counts=(1, 4, 16))

    def test_perf_decays_with_oversubscription(self):
        table = {
            (p.workload, p.hypervisor, p.vms): p.normalized_perf
            for p in self.POINTS
        }
        for workload in ("Apache", "Kernbench"):
            assert table[(workload, "KVM", 16)] < table[(workload, "KVM", 4)]
            # Oversubscription is ~proportional: 16 VMs on 8 cores get
            # roughly 1/4 the CPU of 4 VMs.
            ratio = table[(workload, "KVM", 16)] / table[(workload, "KVM", 4)]
            assert 0.15 < ratio < 0.45

    def test_sekvm_tracks_kvm_at_every_point(self):
        table = {
            (p.workload, p.hypervisor, p.vms): p.normalized_perf
            for p in self.POINTS
        }
        for (workload, hyp, n), perf in table.items():
            if hyp != "SeKVM":
                continue
            gap = 1 - perf / table[(workload, "KVM", n)]
            assert gap < 0.10, f"{workload}@{n}VMs gap {gap:.1%}"

    def test_costs_computed_once_per_hypervisor(self, monkeypatch):
        """``run_figure9`` simulates each event cost once per hypervisor
        (2 x 4 operations) and returns the per-point path's results."""
        import repro.perf.appbench as appbench

        calls = []
        real = appbench.simulate_operation

        def counting(cfg, op):
            calls.append(op)
            return real(cfg, op)

        monkeypatch.setattr(appbench, "simulate_operation", counting)
        points = run_figure9(vm_counts=(1, 4, 16))
        assert len(calls) <= 8
        for p in points:
            cfg = SimConfig(machine=M400, hypervisor=Hypervisor(p.hypervisor))
            workload = workload_by_name(p.workload)
            assert p.normalized_perf == simulate_scaling(workload, cfg, p.vms)

    def test_one_vm_matches_figure8_closely(self):
        cfg = SimConfig(machine=M400, hypervisor=Hypervisor.KVM)
        for workload in APP_WORKLOADS:
            f9 = simulate_scaling(workload, cfg, n_vms=1)
            f8 = normalized_performance(workload, cfg, vcpus=2)
            assert abs(f9 - f8) < 0.06, workload.name


class TestWorkloadTables:
    def test_table2_describes_all_microbenchmarks(self):
        text = describe_table2()
        for mb in MICROBENCHMARKS:
            assert mb.name in text

    def test_table4_describes_all_apps(self):
        text = describe_table4()
        for wl in APP_WORKLOADS:
            assert wl.name in text

    def test_workload_lookup(self):
        assert workload_by_name("redis").name == "Redis"
        with pytest.raises(KeyError):
            workload_by_name("nope")


class TestModernMachinePrediction:
    """The paper's forward-looking claim: newer Arm CPUs (bigger TLBs)
    narrow the SeKVM gap further than Seattle already does."""

    def test_overhead_shrinks_with_modern_tlbs(self):
        from repro.perf import MODERN

        def ratio(machine):
            kvm = simulate_operation(
                SimConfig(machine=machine, hypervisor=Hypervisor.KVM),
                "Hypercall",
            )
            sekvm = simulate_operation(
                SimConfig(machine=machine, hypervisor=Hypervisor.SEKVM),
                "Hypercall",
            )
            return sekvm / kvm

        assert ratio(MODERN) <= ratio(SEATTLE) < ratio(M400)

    def test_modern_machine_is_registered(self):
        from repro.perf import MACHINES, MODERN

        assert MACHINES["modern"] is MODERN
        assert MODERN.tlb_entries > SEATTLE.tlb_entries

"""``promise_heavy_program``: the workload ``perfbench/workloads.py`` imports."""


def promise_heavy_program():
    """A workload dominated by promise certification: one thread issues
    three promisable stores, the other reads them all."""
    from repro.ir import ThreadBuilder, build_program

    x, y, z, w = 0x10, 0x20, 0x30, 0x40
    t0 = ThreadBuilder(0)
    t0.store(x, 1).store(y, 1).store(z, 1).load("r0", w)
    t1 = ThreadBuilder(1)
    t1.store(w, 1).load("a", x).load("b", y).load("c", z)
    return build_program(
        [t0, t1],
        observed={0: ["r0"], 1: ["a", "b", "c"]},
        initial_memory={x: 0, y: 0, z: 0, w: 0},
    )

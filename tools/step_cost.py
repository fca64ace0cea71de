"""The fixed cost of a coarse step, and the parts of a fine one.

The coarse case runs 2-1 LWR (v = 1, 1, 2) on 3 x 25 cells at dx = 1/25,
CFL 0.9, to t = 1 (112 computed steps, one junction solve each, no hold),
from linspace(0.1, 0.9), linspace(0.8, 0.2) and linspace(0.3, 0.6), and
prints:

- the time of a ``run`` step (``run`` marches a batch of one), and of a
  run-step of the same run marched by ``run_batch`` as a batch of 10 (the
  batch's step time over its runs);
- the one warm certificate (``kernels.warm_roots``) on one row, as a
  ``solve_junction`` hinted with the active set of the state before, and
  stacked over 10 rows, as the batch of 10 runs it
  (``junction._solve_stack``, each state stacked 10 times, per row), over
  the run's junction states and hints; and a cold ``solve_junction``;
- ``scheme._update`` over the run's buffers;
- Python calls per computed step: cProfile's call count of the run to
  t = 1 less that to t = 0.5, over the difference in steps;
- the time of one held run and its ledger: a 200-step lean run on 50-cell
  roads of the 2-3 LWR network of ``held_ensemble`` (the benchmark's
  ``well_balance`` networks), from a road-wise constant equilibrium, which
  the march holds after its first step, and ``scheme.mass_ledger`` of it.

The fine case runs the same junction and data shapes on 3 x 4000 cells
(the speeds, CFL and horizon of the benchmark's ``fine_run``: dx = 1/4000,
t = 0.25, 4445 steps) as a lean run with 15 snapshots, and prints the time
of a step and of the parts of a step, each per computed level and timed
inside the march (``timed_parts``), on the buffers and the heap the march
has: the junction solve (``junction._solve_stack`` on the run's one row,
warm, and ``solve_junction``, cold, where the stack leaves it), the ring
write (``scheme._update`` of a level into its row of a block; its Godunov
sweeps also shown alone), the block guard (``scheme._guard``) and the
block flush (``kernels.row_sums``). They add up to the step but for the
march's own bookkeeping and the timers; a line says where they miss it
by more than 15%. Its last two lines are the fine run's memory, as
tracemalloc traces it (``lean_peak``): its peak in KB, and the growth of
that peak in bytes per step from the run to t = 0.125 to the one to
t = 0.25, without snapshots (``peak_growth``). Both repeat to within a
few bytes from process to process, so each is one run's.

Each step line, and the held run's, is the median of 3 fresh processes,
each the best of 7 repeats of 5 passes (a coarse step or a held run) or
of 3 runs (the fine step): one process alone reads a sustained slowdown
of a shared machine as the step's cost. The other lines are the best of
7 repeats of 5 passes in this process, or of 3 runs (the fine parts).
Usage, from the repository root::

    PYTHONPATH=src python3 tools/step_cost.py
"""

from __future__ import annotations

import cProfile
import math
import pstats
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from junctionflow import (JunctionSpec, NetworkMesh, RunConfig,
                          custom_polynomial, quadratic_lwr,
                          symmetric_quadratic, tabulated)
from junctionflow import kernels, scheme
from junctionflow.junction import _solve_stack, solve_junction
from junctionflow.verify import germ_sampler

REPEATS, PASSES = 7, 5
FINE_CELLS, FINE_T, FINE_SNAPSHOTS = 4000, 0.25, 16
HELD_CELLS, HELD_STEPS = 50, 200
BATCH = 10
PROCESSES = 3
# the fine parts should add up to the step within this share of it
PARTS_SLACK = 0.15


def baseline(t_final: float = 1.0, cells: int = 25,
             snapshot_times=()):
    """(config, initial data) of the baseline run to t_final on roads of
    ``cells`` cells of width 1/cells."""
    spec = JunctionSpec(2, 1, [quadratic_lwr(1.0), quadratic_lwr(1.0),
                               quadratic_lwr(2.0)])
    mesh = NetworkMesh(spec, 1.0 / cells, np.full(3, cells))
    data = [np.linspace(0.1, 0.9, cells), np.linspace(0.8, 0.2, cells),
            np.linspace(0.3, 0.6, cells)]
    return RunConfig(mesh, 0.9, t_final, snapshot_times=snapshot_times), data


def fine_baseline():
    """(config, initial data) of the fine lean run, with 15 snapshots
    between its ends."""
    return baseline(FINE_T, FINE_CELLS, tuple(
        np.linspace(0.0, FINE_T, FINE_SNAPSHOTS + 1)[1:-1].tolist()))


def lean_peak(config, data) -> tuple[int, int]:
    """(tracemalloc's peak in bytes during one lean run, its computed
    steps), after an untraced run has warmed every cache."""
    scheme.run(config, data, keep_states=False)
    tracemalloc.start()
    try:
        steps = len(scheme.run(config, data, keep_states=False).dts)
        return tracemalloc.get_traced_memory()[1], steps
    finally:
        tracemalloc.stop()


def peak_growth(cells: int, short: float, long: float) -> tuple[int, int]:
    """(the growth of ``lean_peak`` in bytes, the steps added) from the
    lean baseline run to ``short`` to the one to ``long``, on roads of
    ``cells`` cells."""
    (low, s_short), (high, s_long) = (lean_peak(*baseline(t, cells))
                                      for t in (short, long))
    return high - low, s_long - s_short


def held_ensemble(per_network: int = 3, seed: int = 0):
    """[(label, config, equilibria)] of held runs on the four networks of
    the benchmark's ``well_balance`` (1-1 and 2-3 LWR, 2-1 symmetric
    quadratic, and 1-2 with LWR, cubic and tabulated roads): 50-cell roads,
    CFL 0.9, 200 steps, and ``per_network`` seeded equilibria each."""
    cubic = custom_polynomial([0.0, 1.0, 0.0, -1.0], 0.0, 1.0,
                              1.0 / math.sqrt(3.0))
    table = tabulated(np.linspace(0.0, 1.0, 9),
                      [0.0, 0.22, 0.38, 0.47, 0.5, 0.44, 0.33, 0.18, 0.0])
    networks = (
        ("1-1", JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr()))),
        ("2-1-symq", JunctionSpec(2, 1, tuple(map(symmetric_quadratic,
                                                  (1.0, 2.0, 3.0))))),
        ("2-3", JunctionSpec(2, 3, tuple(map(quadratic_lwr, (
            1.0, 1.5, 1.0, 0.75, 1.25))))),
        ("1-2-mixed", JunctionSpec(1, 2, (quadratic_lwr(), cubic, table))))
    out = []
    for label, spec in networks:
        mesh = NetworkMesh(spec, 1.0 / HELD_CELLS,
                           np.full(spec.m + spec.n, HELD_CELLS))
        config = RunConfig(mesh, 0.9,
                           HELD_STEPS * scheme.cfl_timestep(mesh, 0.9))
        out.append((label, config, germ_sampler(spec, per_network, seed)))
    return out


def best_us(fn, count: int, repeats: int = REPEATS,
            passes: int = PASSES) -> float:
    """Best of ``repeats`` timings of ``passes`` calls of fn, in µs per
    item of the count fn works through."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(passes):
            fn()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / (passes * count)


def calls(t_final: float) -> tuple[int, int]:
    """(Python calls, computed steps) of one baseline run to t_final."""
    config, data = baseline(t_final)
    scheme.run(config, data)  # warm every cache before counting
    prof = cProfile.Profile()
    prof.enable()
    traj = scheme.run(config, data)
    prof.disable()
    return pstats.Stats(prof).total_calls, len(traj.dts)


def calls_per_step() -> float:
    (c_half, s_half), (c_full, s_full) = calls(0.5), calls(1.0)
    return (c_full - c_half) / (s_full - s_half)


def step_us(name: str) -> float:
    """One process's time of the step line ``name``, in µs per step."""
    if name == "fine":
        config, data = fine_baseline()
        steps = len(scheme.run(config, data, keep_states=False).dts)
        return best_us(lambda: scheme.run(config, data, keep_states=False),
                       steps, 3, 1)
    config, data = baseline()
    steps = len(scheme.run(config, data).dts)
    if name == "run":
        return best_us(lambda: scheme.run(config, data), steps)
    if name == "held":  # µs per run
        _, config, (k,) = held_ensemble(1)[2]  # the 2-3 network
        return best_us(lambda: scheme.mass_ledger(
            scheme.run(config, k, keep_states=False)), 1)
    runs = int(name.removeprefix("batch"))  # "batch10"
    return best_us(lambda: scheme.run_batch(config, [data] * runs),
                   runs * steps)


def median_step_us(name: str) -> float:
    """The median of ``step_us(name)`` over fresh processes, which
    inherit this one's environment and directory."""
    return statistics.median(float(subprocess.run(
        [sys.executable, __file__, "--step", name], capture_output=True,
        text=True, check=True).stdout) for _ in range(PROCESSES))


# the parts of a fine step: (owner, the name the march calls, label); a
# run solves its junction stacked, and cold where the stack leaves a row
PARTS = ((scheme, "_solve_stack", "junction solve (us)"),
         (scheme, "solve_junction", "junction solve (us)"),
         (scheme, "_update", "ring write (us)"),
         (scheme, "_guard", "block guard (us)"),
         (kernels, "row_sums", "block flush (us)"),
         (kernels, "interface_fluxes", "  of the write, sweeps (us)"))


def timed_parts(config, data) -> dict[str, float]:
    """The time one lean run spends in each part, in µs per computed
    level, read by wrapping each function at the name the march calls it
    by; the run with the least time in its parts, of 3."""
    best = None
    for _ in range(3):
        spent = {label: 0.0 for _, _, label in PARTS}
        real = [getattr(owner, name) for owner, name, _ in PARTS]

        def timer(fn, label):
            def timed(*args):
                start = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    spent[label] += time.perf_counter() - start
            return timed

        for (owner, name, label), fn in zip(PARTS, real):
            setattr(owner, name, timer(fn, label))
        try:
            steps = len(scheme.run(config, data, keep_states=False).dts)
        finally:
            for (owner, name, _), fn in zip(PARTS, real):
                setattr(owner, name, fn)
        got = {label: 1e6 * t / steps for label, t in spent.items()}
        if best is None or sum(got.values()) < sum(best.values()):
            best = got
    return best


def fine() -> None:
    config, data = fine_baseline()
    traj = scheme.run(config, data, keep_states=False)
    step = median_step_us("fine")
    parts = timed_parts(config, data)
    print(f"2-1 LWR, 3 x {FINE_CELLS} cells, CFL 0.9, t = {FINE_T}: "
          f"{len(traj.dts)} steps, {traj.junction_solves} junction solves")
    for name, value in {"run step (us)": step, **parts}.items():
        print(f"{name:<28} {value:8.2f}")
    share = sum(list(parts.values())[:-1]) / step  # the sweeps are written
    print(f"{'parts / step':<28} {share:8.2f}"
          + ("" if abs(share - 1.0) <= PARTS_SLACK else
             f"   the parts miss the step by more than "
             f"{PARTS_SLACK:.0%}"))
    growth, added = peak_growth(FINE_CELLS, FINE_T / 2, FINE_T)
    print(f"{'traced peak (KB)':<28} {lean_peak(config, data)[0] / 1024:8.2f}")
    print(f"{'traced growth (B/step)':<28} {growth / added:8.2f}")


def coarse() -> None:
    config, data = baseline()
    mesh = config.mesh
    traj = scheme.run(config, data)
    steps = len(traj.dts)
    spec, adj = mesh.spec, mesh._layout.adj
    states = [u[adj] for u in traj.buffers[:-1]]
    hints = [None] + [solve_junction(spec, s).active for s in states[:-1]]
    outs = [np.empty_like(u) for u in traj.buffers[:-1]]
    updates = list(zip(traj.buffers[:-1], (traj.dts / mesh.dx).tolist(),
                       [solve_junction(spec, s).fluxes for s in states],
                       outs))
    # the batch's stacks: every state but the first has a hint
    stacks = [(np.tile(s, (BATCH, 1)), [h] * BATCH)
              for s, h in zip(states[1:], hints[1:])]

    figures = {
        "run step (us)": median_step_us("run"),
        f"batch of {BATCH}, run-step (us)": median_step_us(f"batch{BATCH}"),
        "held run (us)": median_step_us("held"),
        "warm solve_junction (us)": best_us(
            lambda: [solve_junction(spec, s, h)
                     for s, h in zip(states, hints)], steps),
        f"stacked warm x{BATCH} (us/row)": best_us(
            lambda: [_solve_stack(spec, *stack) for stack in stacks],
            BATCH * len(stacks)),
        "cold solve_junction (us)": best_us(
            lambda: [solve_junction(spec, s) for s in states], steps),
        "_update (us)": best_us(
            lambda: [scheme._update(u, mesh, lam, g, out)
                     for u, lam, g, out in updates], steps),
        "python calls per step": calls_per_step(),
    }
    print(f"2-1 LWR, 3 x 25 cells, CFL 0.9, t = 1: {steps} steps, "
          f"{traj.junction_solves} junction solves")
    for name, value in figures.items():
        print(f"{name:<28} {value:8.2f}")


def main() -> None:
    if sys.argv[1:2] == ["--step"]:
        print(step_us(sys.argv[2]))
        return
    coarse()
    fine()


if __name__ == "__main__":
    main()

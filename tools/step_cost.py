"""The fixed cost of a coarse step, and the parts of a fine one.

The coarse case runs 2-1 LWR (v = 1, 1, 2) on 3 x 25 cells at dx = 1/25,
CFL 0.9, to t = 1 (112 computed steps, one junction solve each, no hold),
from linspace(0.1, 0.9), linspace(0.8, 0.2) and linspace(0.3, 0.6), and
prints:

- the time of a ``run`` step, and of a run-step of the same run marched
  as a batch of 10 by ``run_batch`` (the batch's step time over 10);
- the one warm certificate (``kernels.warm_roots``) on one row, as a
  ``solve_junction`` hinted with the active set of the state before, and
  stacked over 10 rows, as the batch of 10 runs it
  (``junction._solve_stack``, each state stacked 10 times, per row), over
  the run's junction states and hints; and a cold ``solve_junction``;
- ``scheme._update`` over the run's buffers;
- Python calls per computed step: cProfile's call count of the run to
  t = 1 less that to t = 0.5, over the difference in steps.

Times are the best of 7 repeats of 5 passes.

The fine case runs the same junction and data shapes on 3 x 4000 cells
(the speeds, CFL and horizon of the benchmark's ``fine_run``: dx = 1/4000,
t = 0.25, 4445 steps) as a lean run, and prints the time of a step and of
its parts: the Godunov sweeps, the whole ``_update``, the march's min/max
guard and mass flush (a level's copy into the mass block and its
``kernels.row_sums``), each over 16 buffers of the run, and a warm
``solve_junction`` over every junction solve the run makes, hinted with
the active set of the state before. Steps are the best of 3 runs, parts the best of 5 repeats of
5 passes. Usage, from the repository root::

    PYTHONPATH=src python3 tools/step_cost.py
"""

from __future__ import annotations

import cProfile
import pstats
import time

import numpy as np

from junctionflow import JunctionSpec, NetworkMesh, RunConfig, quadratic_lwr
from junctionflow import kernels, scheme
from junctionflow.junction import _solve_stack, solve_junction

REPEATS, PASSES = 7, 5
FINE_CELLS, FINE_T, FINE_SAMPLES = 4000, 0.25, 16
BATCH = 10


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


def solved_states(config, data) -> list[np.ndarray]:
    """The junction state of every junction solve a lean run makes, in
    order, read by wrapping the solve the march calls."""
    states = []

    def record(spec, state, hint=None):
        states.append(state.copy())
        return solve_junction(spec, state, hint)

    scheme.solve_junction = record
    try:
        scheme.run(config, data, keep_states=False)
    finally:
        scheme.solve_junction = solve_junction
    return states


def fine() -> None:
    config, data = baseline(FINE_T, FINE_CELLS, tuple(
        np.linspace(0.0, FINE_T, FINE_SAMPLES + 1)[1:-1].tolist()))
    mesh = config.mesh
    spec, layout = mesh.spec, mesh._layout
    traj = scheme.run(config, data, keep_states=False)
    steps = len(traj.dts)
    buffers = traj.buffers[:FINE_SAMPLES]
    dt = float(traj.dts[0])
    gstars = [solve_junction(spec, u[layout.adj]).fluxes for u in buffers]
    tops = [max(-float(u.min()), float(u.max())) for u in buffers]
    fgrid = np.empty(layout.slots - 1)
    block = np.empty((1, layout.slots))

    def sweeps():
        for u in buffers:
            for first, stop, code, par, crit, fcrit in layout.sweeps:
                kernels.interface_fluxes(code, par, crit, fcrit,
                                         u[first:stop], fgrid[first:stop - 1])

    def guard():
        for u in buffers:
            float(np.minimum.reduce(u)), float(np.maximum.reduce(u))

    def flush():  # the guard's bound is the block's top, as in the march
        for u, top in zip(buffers, tops):
            block[0] = u
            block[:, layout.ghosts] = -0.0
            block[:, layout.pad] = -0.0
            kernels.row_sums(block, [top])

    states = solved_states(config, data)
    hints = [None] + [solve_junction(spec, s).active for s in states[:-1]]
    count = len(buffers)
    figures = {
        "run step (us)": best_us(
            lambda: scheme.run(config, data, keep_states=False), steps, 3, 1),
        "sweeps (us)": best_us(sweeps, count, 5),
        "_update (us)": best_us(
            lambda: [scheme._update(u, mesh, dt, g)
                     for u, g in zip(buffers, gstars)], count, 5),
        "guard (us)": best_us(guard, count, 5),
        "mass flush (us)": best_us(flush, count, 5),
        "warm solve_junction (us)": best_us(
            lambda: [solve_junction(spec, s, h)
                     for s, h in zip(states, hints)], len(states), 5),
    }
    print(f"2-1 LWR, 3 x {FINE_CELLS} cells, CFL 0.9, t = {FINE_T}: "
          f"{steps} steps, {traj.junction_solves} junction solves")
    for name, value in figures.items():
        print(f"{name:<28} {value:8.2f}")


def coarse() -> None:
    config, data = baseline()
    mesh = config.mesh
    traj = scheme.run(config, data)
    steps = len(traj.dts)
    spec, adj = mesh.spec, mesh._layout.adj
    states = [u[adj] for u in traj.buffers[:-1]]
    hints = [None] + [solve_junction(spec, s).active for s in states[:-1]]
    pairs = list(zip(traj.buffers[:-1], traj.dts.tolist(),
                     [solve_junction(spec, s).fluxes for s in states]))
    # the batch's stacks: every state but the first has a hint
    stacks = [(np.tile(s, (BATCH, 1)), [h] * BATCH)
              for s, h in zip(states[1:], hints[1:])]

    figures = {
        "run step (us)": best_us(lambda: scheme.run(config, data), steps),
        f"batch of {BATCH}, run-step (us)": best_us(
            lambda: scheme.run_batch(config, [data] * BATCH), BATCH * steps),
        "warm solve_junction (us)": best_us(
            lambda: [solve_junction(spec, s, h)
                     for s, h in zip(states, hints)], steps),
        f"stacked warm x{BATCH} (us/row)": best_us(
            lambda: [_solve_stack(spec, *stack) for stack in stacks],
            BATCH * len(stacks)),
        "cold solve_junction (us)": best_us(
            lambda: [solve_junction(spec, s) for s in states], steps),
        "_update (us)": best_us(
            lambda: [scheme._update(u, mesh, dt, g) for u, dt, g in pairs],
            steps),
        "python calls per step": calls_per_step(),
    }
    print(f"2-1 LWR, 3 x 25 cells, CFL 0.9, t = 1: {steps} steps, "
          f"{traj.junction_solves} junction solves")
    for name, value in figures.items():
        print(f"{name:<28} {value:8.2f}")


def main() -> None:
    coarse()
    fine()


if __name__ == "__main__":
    main()

"""The fixed cost of a coarse step, layer by layer.

Runs 2-1 LWR (v = 1, 1, 2) on 3 x 25 cells at dx = 1/25, CFL 0.9, to
t = 1 (112 computed steps, one junction solve each, no hold), from
linspace(0.1, 0.9), linspace(0.8, 0.2) and linspace(0.3, 0.6), and prints:

- the time of a ``run`` step;
- a warm ``solve_junction`` (hinted with the active set of the state
  before) and a cold one, over the run's junction states;
- ``scheme._update`` over the run's buffers;
- Python calls per computed step: cProfile's call count of the run to
  t = 1 less that to t = 0.5, over the difference in steps.

Times are the best of 7 repeats of 5 passes. Usage, from the repository
root::

    PYTHONPATH=src python3 tools/step_cost.py
"""

from __future__ import annotations

import cProfile
import pstats
import time

import numpy as np

from junctionflow import JunctionSpec, NetworkMesh, RunConfig, quadratic_lwr
from junctionflow import scheme
from junctionflow.junction import solve_junction

REPEATS, PASSES = 7, 5


def baseline(t_final: float = 1.0):
    """(config, initial data) of the baseline run to t_final."""
    spec = JunctionSpec(2, 1, [quadratic_lwr(1.0), quadratic_lwr(1.0),
                               quadratic_lwr(2.0)])
    mesh = NetworkMesh(spec, 1.0 / 25, np.full(3, 25))
    data = [np.linspace(0.1, 0.9, 25), np.linspace(0.8, 0.2, 25),
            np.linspace(0.3, 0.6, 25)]
    return RunConfig(mesh, 0.9, t_final), data


def best_us(fn, count: int) -> float:
    """Best of REPEATS timings of PASSES calls of fn, in µs per item of
    the count fn works through."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(PASSES):
            fn()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / (PASSES * count)


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


def main() -> None:
    config, data = baseline()
    mesh = config.mesh
    traj = scheme.run(config, data)
    steps = len(traj.dts)
    spec, adj = mesh.spec, mesh._layout.adj
    states = [u[adj] for u in traj.buffers[:-1]]
    hints = [None] + [solve_junction(spec, s).active for s in states[:-1]]
    pairs = list(zip(traj.buffers[:-1], traj.dts.tolist(),
                     [solve_junction(spec, s).fluxes for s in states]))

    figures = {
        "run step (us)": best_us(lambda: scheme.run(config, data), steps),
        "warm solve_junction (us)": best_us(
            lambda: [solve_junction(spec, s, h)
                     for s, h in zip(states, hints)], steps),
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


if __name__ == "__main__":
    main()

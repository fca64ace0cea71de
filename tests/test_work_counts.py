"""Work counts that repeat exactly, so that a change in the cost of a step
shows without a timer.

The baseline run of ``tools/step_cost.py`` (2-1 LWR, v = 1, 1, 2, on
3 x 25 cells, CFL 0.9, to t = 1) makes a fixed number of junction solves
and a fixed number of Python calls per computed step, as cProfile counts
them: the calls of the run to t = 1 less those of the run to t = 0.5, over
the difference in steps. Each count is taken twice in each of two fresh
interpreters with different ``PYTHONHASHSEED`` values; all must agree with
the pins. A change that moves a count updates its pin and says why.

A batch of R baseline runs (``scheme.run_batch``) makes R junction solves
per step, one per run, as ``Trajectory.junction_solves`` counts them, and
one conservative update per step for all R, as a spy on ``scheme._update``
counts it. The solves are the rows that the stacked warm solve
(``junction._solve_stack``) certifies and the solves one by one
(``scheme.solve_junction``) that take the rest: in the batch of 10, the
first step's 10, which have no hint, go one by one, and every later row is
stacked, in both interpreters.

A lean run writes every computed level into a row of the march's block,
and flushes a pinned number of blocks (one ``kernels.row_sums`` call and
one range guard, ``scheme._guard``, each), as spies count them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from junctionflow import (JunctionSpec, NetworkMesh, kernels, quadratic_lwr,
                          scheme, viscous)

ROOT = Path(__file__).resolve().parent.parent

# the run to t = 1 makes 112 steps and the run to t = 0.5 makes 56
STEPS_BETWEEN = 56
# 48.34 Python calls per computed step: the step writes its level into a
# row of the march's block (no np.empty), the range guard's reductions run
# once per block, not once per step, the junction records and the kept
# GridStates fill lists made up front (no append), and the block's height
# is one number (no len); the flux grid's allocator is chosen by the
# number of sweeps (one len)
CALLS_BETWEEN = 2707
JUNCTION_SOLVES = 112
BATCH = 10
BATCH_SPLIT = {"scalar": 10, "stacked": 1110}  # of 10 x 112 solves

COUNT = """
import json
import step_cost
from junctionflow import scheme
config, data = step_cost.baseline()
split = {"scalar": 0, "stacked": 0}
solve, stack = scheme.solve_junction, scheme._solve_stack
def scalar(*args):
    split["scalar"] += 1
    return solve(*args)
def stacked(spec, states, hints):
    sols = stack(spec, states, hints)
    split["stacked"] += sum(sol is not None for sol in sols)
    return sols
calls = [[*step_cost.calls(0.5), *step_cost.calls(1.0)] for _ in range(2)]
solves = scheme.run(config, data).junction_solves
scheme.solve_junction, scheme._solve_stack = scalar, stacked
scheme.run_batch(config, [data] * %d)
print(json.dumps({"calls": calls, "solves": solves, "split": split}))
""" % BATCH


def _counts(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "tools")]))
    done = subprocess.run([sys.executable, "-c", COUNT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_a_coarse_step_makes_a_pinned_number_of_calls_and_solves():
    for hash_seed in (0, 4099):
        got = _counts(hash_seed)
        assert got["solves"] == JUNCTION_SOLVES
        assert got["split"] == BATCH_SPLIT
        for c_half, s_half, c_full, s_full in got["calls"]:
            assert (c_full - c_half, s_full - s_half) == (CALLS_BETWEEN,
                                                         STEPS_BETWEEN)
    assert CALLS_BETWEEN <= 60 * STEPS_BETWEEN


@pytest.mark.parametrize("runs", [1, 3, 10])
def test_a_batch_makes_one_update_per_step_and_a_solve_per_run(monkeypatch,
                                                                runs):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import step_cost

    config, data = step_cost.baseline()
    updates = []
    real = scheme._update
    monkeypatch.setattr(scheme, "_update",
                        lambda *args: updates.append(1) or real(*args))
    trajs = scheme.run_batch(config, [data] * runs)
    steps = 112  # none of them held: each solves a new junction state
    assert [len(traj.dts) for traj in trajs] == [steps] * runs
    assert [traj.junction_solves for traj in trajs] == [JUNCTION_SOLVES] * runs
    assert len(updates) == steps


def _spy_ring(monkeypatch):
    """The march's ring, seen by spies: the buffer that ``scheme._update``
    writes each computed level into, each block whose masses
    ``kernels.row_sums`` takes, and the levels of each ``scheme._guard``
    call, which makes two reductions."""
    outs, blocks, guards = [], [], []
    update, row_sums, guard = scheme._update, kernels.row_sums, scheme._guard

    def spy_update(u, mesh, lam, gstar, out, *rest, **kwargs):
        outs.append(out)
        return update(u, mesh, lam, gstar, out, *rest, **kwargs)

    def spy_sums(block, tops, skip):
        blocks.append(block)
        return row_sums(block, tops, skip)

    def spy_guard(mesh, levels, step):
        guards.append(len(levels))
        return guard(mesh, levels, step)

    for module in (scheme, viscous):  # the parabolic step calls its own
        monkeypatch.setattr(module, "_update", spy_update)
    monkeypatch.setattr(kernels, "row_sums", spy_sums)
    monkeypatch.setattr(scheme, "_guard", spy_guard)
    return outs, blocks, guards


def _assert_written_into_the_ring(outs, blocks, steps):
    # every computed level is written into a row of a block that the
    # march flushes, and each row is flushed once
    assert len(outs) == sum(map(len, blocks)) == steps
    bases = {id(block.base) for block in blocks}
    assert all(out.shape == out.base.shape[1:] and id(out.base) in bases
               for out in outs)


@pytest.mark.parametrize("case", ["parabolic", "fine"])
def test_a_lean_run_flushes_a_pinned_number_of_blocks(monkeypatch, case):
    # the blocks of a lean run: each holds 64 levels or 1 MB of them,
    # whichever is fewer, and at least 2. A 600-step parabolic run on
    # 2 x 100 cells flushes nine times 64 and 24 levels; the 4445-step fine
    # run of tools/step_cost.py (3 x 4000 cells, 96 KB a level) 444 times
    # 10, and 5. Each flush is one row_sums call and one guard call, two
    # reductions
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import step_cost

    outs, blocks, guards = _spy_ring(monkeypatch)
    if case == "parabolic":
        spec = JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr(1.5)))
        mesh = NetworkMesh(spec, 0.01, np.array([100, 100]))
        steps = len(viscous.run_parabolic(mesh, 0.02, [0.3, 0.6], 599.5 * (
            viscous.parabolic_timestep(mesh, 0.02))).dts)
        heights = [64] * 9 + [24]
    else:
        config, data = step_cost.fine_baseline()
        steps = len(scheme.run(config, data, keep_states=False).dts)
        heights = [10] * 444 + [5]
    assert steps == sum(heights)
    assert [len(block) for block in blocks] == guards == heights
    _assert_written_into_the_ring(outs, blocks, steps)

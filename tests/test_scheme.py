"""Network marching: discretization, CFL guard, conservation, monotonicity."""

import cProfile
import functools
import hashlib
import math
import pstats
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junctionflow import (
    ConfigError,
    ConsistencyError,
    GridState,
    JunctionSpec,
    NetworkMesh,
    RunConfig,
    cfl_timestep,
    custom_polynomial,
    discretize_initial,
    mass_ledger,
    quadratic_lwr,
    run,
    run_parabolic,
    solve_junction,
    step,
    symmetric_quadratic,
    tabulated,
)
from junctionflow import kernels, scheme, viscous
from junctionflow.junction import JunctionSolution
from junctionflow.scheme import Trajectory
from junctionflow.verify import germ_sampler
from junctionflow.viscous import parabolic_step, parabolic_timestep
from test_junction import random_junction
from test_viscous import keep_every_level

RNG = np.random.default_rng(2718)

LWR11 = JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr(1.5)))
SYMQ21 = JunctionSpec(2, 1, (symmetric_quadratic(1), symmetric_quadratic(2),
                             symmetric_quadratic(3)))


def small_mesh(spec=LWR11, dx=0.02, cells=50):
    return NetworkMesh(spec, dx, np.full(spec.m + spec.n, cells))


# ---------------------------------------------------------------------------
# mesh and discretization

def test_mesh_centers_orientation():
    mesh = small_mesh(cells=4)
    np.testing.assert_allclose(mesh.centers(0), [-0.07, -0.05, -0.03, -0.01])
    np.testing.assert_allclose(mesh.centers(1), [0.01, 0.03, 0.05, 0.07])
    assert mesh.road_length(0) == pytest.approx(0.08)
    # a road outside range(m + n) is refused by name: -1 once read as an
    # incoming road, with negative coordinates on an outgoing one
    spec = JunctionSpec(1, 2, (quadratic_lwr(), quadratic_lwr(),
                               quadratic_lwr(2.0)))
    mesh = NetworkMesh(spec, 0.25, 4)
    assert mesh.centers(2).tolist() == [0.125, 0.375, 0.625, 0.875]
    for bad in (-1, 3):
        message = rf"^road must be in range\(3\), got {bad}$"
        with pytest.raises(ValueError, match=message):
            mesh.centers(bad)
        with pytest.raises(ValueError, match=message):
            mesh.road_length(bad)


def test_mesh_validation():
    with pytest.raises(ValueError):
        NetworkMesh(LWR11, 0.0, np.array([4, 4]))
    with pytest.raises(ValueError):
        NetworkMesh(LWR11, 0.1, np.array([4]))
    with pytest.raises(ValueError):
        NetworkMesh(LWR11, 0.1, np.array([4, 0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            NetworkMesh(LWR11, bad, np.array([4, 4]))
    # a fractional or NaN count is rejected, never truncated to a count;
    # the error names the first entry that is no count
    for bad, first in (([2.5, 3.9], "2.5"), (3.7, "3.7"),
                       ([math.nan, 4], "nan"),
                       (np.array([4.0, math.nan]), r"np.float64\(4.0\)")):
        with pytest.raises(ValueError, match="^cells_per_road must be a "
                                             f"positive integer, got {first}$"):
            NetworkMesh(LWR11, 0.1, bad)


def test_run_sizes_beyond_2_53_are_rejected_where_they_enter():
    # counts past int64 and cell or step counts of 2**53 or more raise
    # ValueError before anything of that size is allocated
    for counts in (np.array([10**300, 4], dtype=object), [2**63, 4],
                   [2**62, 2**62], [2**52, 2**52]):
        with pytest.raises(ValueError, match="fewer than 2"):
            NetworkMesh(LWR11, 0.1, counts)
    with pytest.raises(ValueError, match="fewer than 2"):
        NetworkMesh(LWR11, 0.1, 2**53)
    mesh = small_mesh()
    dt0 = cfl_timestep(mesh, 0.9)
    for t_final in (1e308, 2.0**53 * dt0):  # t_final / dt0 overflows, 2**53
        with pytest.raises(ValueError, match="2\\*\\*53 or more steps"):
            RunConfig(mesh, 0.9, t_final)
    RunConfig(mesh, 0.9, 2.0**52 * dt0)  # a count, never a buffer
    with pytest.raises(ValueError, match="2\\*\\*53 or more steps"):
        run_parabolic(mesh, 0.02, [0.3, 0.6], 1e308)


def test_step_that_underflows_to_zero_is_too_many_steps():
    # a step of 0 (dx subnormal, or epsilon / dx^2 overflowing the bound)
    # takes 2**53 or more steps to reach any t_final > 0, and 0 steps to
    # reach t_final = 0; none of these divides by it
    tiny = NetworkMesh(LWR11, 5e-324, [3, 3])
    assert cfl_timestep(tiny, 0.9) == 0.0
    with pytest.raises(ValueError, match="2\\*\\*53 or more steps"):
        RunConfig(tiny, 0.9, 0.1)
    assert RunConfig(tiny, 0.9, 0.0).t_final == 0.0
    mesh = NetworkMesh(LWR11, 0.01, [3, 3])
    for mesh, eps in ((mesh, 1e308), (NetworkMesh(LWR11, 1e-160, [3, 3]),
                                      0.02)):
        assert parabolic_timestep(mesh, eps) == 0.0
        with pytest.raises(ValueError, match="2\\*\\*53 or more steps"):
            run_parabolic(mesh, eps, [0.3, 0.6], 0.1)
        traj = run_parabolic(mesh, eps, [0.3, 0.6], 0.0)
        assert len(traj.dts) == 0 and traj.final.time == 0.0


def test_discretize_scalar_and_array():
    mesh = small_mesh(cells=8)
    state = discretize_initial(mesh, [0.3, np.linspace(0.1, 0.8, 8)])
    assert state.time == 0.0 and state.time_step == 0
    np.testing.assert_array_equal(state.values[0], np.full(8, 0.3))
    np.testing.assert_array_equal(state.values[1], np.linspace(0.1, 0.8, 8))


def test_discretize_callable_exact_for_quadratics():
    # 3-point Gauss averaging integrates polynomials up to degree 5 exactly
    mesh = small_mesh(cells=8)
    state = discretize_initial(mesh, [lambda x: 0.5 + 0.4 * x + 0.3 * x * x,
                                      0.0])
    dx = mesh.dx
    lo = mesh.centers(0) - dx / 2
    hi = mesh.centers(0) + dx / 2
    exact = (0.5 * (hi - lo) + 0.2 * (hi**2 - lo**2)
             + 0.1 * (hi**3 - lo**3)) / dx
    np.testing.assert_allclose(state.values[0], exact, rtol=1e-14)


def test_discretize_piecewise_constant_exact():
    mesh = small_mesh(cells=5, dx=0.1)
    # jump at -0.25: cell [-0.3, -0.2] averages to (0.05*1 + 0.05*3)/0.1 = 2
    state = discretize_initial(mesh, [(np.array([-0.25]), np.array([1.0, 3.0]) / 4),
                                      0.0])
    np.testing.assert_allclose(state.values[0],
                               np.array([1.0, 1.0, 2.0, 3.0, 3.0]) / 4,
                               rtol=1e-15)


def test_discretize_validation():
    mesh = small_mesh(cells=8)
    with pytest.raises(ValueError):
        discretize_initial(mesh, [0.3])  # missing a road
    with pytest.raises(ValueError):
        discretize_initial(mesh, [1.7, 0.3])  # out of range
    with pytest.raises(ValueError):
        discretize_initial(mesh, [np.zeros(7), 0.3])  # wrong cell count
    with pytest.raises(ValueError):
        discretize_initial(mesh, [(np.array([0.1, 0.0]), np.array([0, 0, 0])),
                                  0.3])  # unsorted breakpoints
    cells = np.full(8, 0.3)
    cells[3] = math.nan
    with pytest.raises(ValueError):
        discretize_initial(mesh, [cells, 0.3])  # a NaN cell
    with pytest.raises(ValueError):
        discretize_initial(mesh, [math.nan, 0.3])


# ---------------------------------------------------------------------------
# stepping

def test_cfl_timestep_value():
    mesh = small_mesh()  # dx = 0.02, max Lipschitz = 1.5
    assert cfl_timestep(mesh, 1.0) == pytest.approx(0.02 / 3.0)
    assert cfl_timestep(mesh, 0.5) == pytest.approx(0.01 / 3.0)
    with pytest.raises(ValueError):
        cfl_timestep(mesh, 0.0)


def test_step_rejects_cfl_violation():
    mesh = small_mesh()
    state = discretize_initial(mesh, [0.3, 0.6])
    with pytest.raises(ConfigError) as err:
        step(state, mesh, 1.01 * cfl_timestep(mesh, 1.0))
    assert err.value.kind == "cfl"
    # at the limit it is accepted
    out = step(state, mesh, cfl_timestep(mesh, 1.0))
    assert out.time_step == 1
    with pytest.raises(ValueError):
        step(state, mesh, math.nan)


def _bad_states():
    nan_cell = np.full(50, 0.3)
    nan_cell[10] = math.nan
    high_cell = np.full(50, 0.3)
    high_cell[10] = 1.5
    return {"nan": (nan_cell, np.full(50, 0.6)),
            "outside": (high_cell, np.full(50, 0.6)),
            "short": (np.full(49, 0.3), np.full(50, 0.6))}


@pytest.mark.parametrize("case", ["nan", "outside", "short"])
@pytest.mark.parametrize("advance", ["step", "parabolic_step"])
def test_single_step_rejects_invalid_states(case, advance):
    # the single-step API validates its state as run validates initial data
    mesh = small_mesh()
    state = GridState(0, 0.0, _bad_states()[case])
    with pytest.raises(ValueError, match="^road 0: "):
        if advance == "step":
            step(state, mesh, cfl_timestep(mesh, 0.9))
        else:
            parabolic_step(state, mesh, 0.02,
                           parabolic_timestep(mesh, 0.02))


def test_step_conserves_mass_with_boundary_accounting():
    mesh = small_mesh()
    vals = [RNG.uniform(0, 1, 50), RNG.uniform(0, 1, 50)]
    state = discretize_initial(mesh, vals)
    dt = cfl_timestep(mesh, 0.9)
    nxt = step(state, mesh, dt)
    flux_in = LWR11.fluxes[0].eval(vals[0][0])     # absorbing inflow
    flux_out = LWR11.fluxes[1].eval(vals[1][-1])   # absorbing outflow
    expect = state.total_mass(mesh.dx) + dt * (flux_in - flux_out)
    assert nxt.total_mass(mesh.dx) == pytest.approx(expect, abs=1e-14)


def test_max_principle_random_data():
    for spec in (LWR11, SYMQ21):
        mesh = small_mesh(spec)
        lo, hi = spec.rho_min, spec.rho_max
        vals = [lo + (hi - lo) * RNG.random(50) for _ in range(spec.m + spec.n)]
        cfg = RunConfig(mesh, 1.0, 60 * cfl_timestep(mesh, 1.0))
        traj = run(cfg, vals)
        for st in traj.states:
            for v in st.values:
                assert v.min() >= lo - 1e-14
                assert v.max() <= hi + 1e-14


def test_order_preservation():
    # monotone scheme: componentwise-ordered data stays ordered
    mesh = small_mesh()
    a = [RNG.uniform(0.0, 0.5, 50), RNG.uniform(0.0, 0.5, 50)]
    b = [x + RNG.uniform(0.0, 0.5, 50) for x in a]
    cfg = RunConfig(mesh, 0.9, 40 * cfl_timestep(mesh, 0.9))
    ta = run(cfg, a)
    tb = run(cfg, b)
    for sa, sb in zip(ta.states, tb.states):
        for va, vb in zip(sa.values, sb.values):
            assert (vb - va).min() >= -1e-14


def test_held_equilibria_do_not_drift():
    for spec in (LWR11, SYMQ21):
        mesh = small_mesh(spec)
        cfg = RunConfig(mesh, 0.9, 200 * cfl_timestep(mesh, 0.9))
        for k in germ_sampler(spec, 5, seed=13):
            traj = run(cfg, list(k))
            drift = max(np.abs(v - k[h]).max()
                        for h, v in enumerate(traj.final.values))
            assert drift <= 1e-12


def test_finite_speed_of_influence():
    # data differing only in the 10 junction-adjacent cells agree bitwise
    # outside the discrete influence cone (one cell per step)
    mesh = small_mesh(cells=60)
    base = [RNG.uniform(0, 1, 60), RNG.uniform(0, 1, 60)]
    pert = [v.copy() for v in base]
    pert[0][-10:] = RNG.uniform(0, 1, 10)
    pert[1][:10] = RNG.uniform(0, 1, 10)
    dt = cfl_timestep(mesh, 0.9)
    steps = 25
    cfg = RunConfig(mesh, 0.9, steps * dt)
    ta = run(cfg, base)
    tb = run(cfg, pert)
    reach = 10 + steps  # initial support plus one cell per step
    assert (ta.final.values[0][:-reach] == tb.final.values[0][:-reach]).all()
    assert (ta.final.values[1][reach:] == tb.final.values[1][reach:]).all()


def test_dirichlet_boundary_feeds_inflow():
    mesh = small_mesh()
    cfg = RunConfig(mesh, 0.9, 0.5, dirichlet_values=np.array([0.4, 0.1]))
    traj = run(cfg, [0.0, 0.0])
    # inflow at density 0.4: the outer cell relaxes onto the boundary datum
    # and the front has entered the road (characteristic speed f'(0.4) = 0.2)
    assert traj.final.values[0][0] == pytest.approx(0.4, abs=1e-3)
    assert traj.final.values[0][:5].min() > 0.3
    # absorbing comparison run stays empty
    empty = run(RunConfig(mesh, 0.9, 0.5), [0.0, 0.0])
    assert empty.final.values[0].max() == 0.0


def test_dirichlet_requires_values():
    # Dirichlet values given are checked, by a run and by a single step:
    # one finite value per road in [A, B]
    mesh = small_mesh()
    state = discretize_initial(mesh, [0.3, 0.6])
    dt = cfl_timestep(mesh, 0.9)
    for bad in ([math.nan, 0.1], [0.4, math.inf], [-0.1, 0.1], [0.4, 1.5],
                [0.4], [0.4, 0.1, 0.2]):
        with pytest.raises(ValueError):
            RunConfig(mesh, 0.9, 0.1, dirichlet_values=np.array(bad))
        with pytest.raises(ValueError):
            step(state, mesh, dt, dirichlet_values=np.array(bad))
    assert RunConfig(mesh, 0.9, 0.1).dirichlet_values is None
    np.testing.assert_array_equal(
        RunConfig(mesh, 0.9, 0.1, dirichlet_values=[0.4, 0.1]).dirichlet_values,
        [0.4, 0.1])
    with pytest.raises(ValueError):
        RunConfig(mesh, 1.5, 0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            RunConfig(mesh, 0.9, bad)
        with pytest.raises(ValueError):
            RunConfig(mesh, 0.9, 0.1, snapshot_times=(bad,))
    # outside [0, t_final] a snapshot time would snap to t = 0 or t_final
    for times in ((-5.0, 7.0), (-1e-3,), (0.1 + 1e-9,)):
        with pytest.raises(ValueError):
            RunConfig(mesh, 0.9, 0.1, snapshot_times=times)
    assert RunConfig(mesh, 0.9, 0.1,
                     snapshot_times=(0.0, 0.1)).snapshot_times == (0.0, 0.1)


# ---------------------------------------------------------------------------
# full runs

def test_run_lands_exactly_on_t_final():
    mesh = small_mesh()
    cfg = RunConfig(mesh, 0.9, 0.123)
    traj = run(cfg, [0.3, 0.6])
    assert traj.final.time == pytest.approx(0.123, abs=1e-15)
    assert traj.times[-1] == traj.final.time
    assert len(traj.states) == len(traj.times)
    assert traj.dts.sum() == pytest.approx(0.123, abs=1e-13)


def test_run_zero_horizon_returns_initial():
    mesh = small_mesh()
    cfg = RunConfig(mesh, 0.9, 0.0)
    traj = run(cfg, [0.3, 0.6])
    assert len(traj.states) == 1
    np.testing.assert_array_equal(traj.final.values[0], np.full(50, 0.3))


def test_run_snapshots_and_memory_mode_agree():
    # a lean run keeps, in order and each once, the full run's levels
    # nearest t = 0, the snapshot times and t_final, bit for bit, with the
    # buffers they view; a snapshot at 0 or t_final adds no level
    mesh = small_mesh()
    init = [RNG.uniform(0, 1, 50), RNG.uniform(0, 1, 50)]
    for snaps, want in (((0.05, 0.11), (0.0, 0.05, 0.11, 0.2)),
                        ((0.2, 0.0, 0.11), (0.0, 0.11, 0.2)),
                        ((0.0,), (0.0, 0.2))):
        cfg = RunConfig(mesh, 0.9, 0.2, snapshot_times=snaps)
        full = run(cfg, [v.copy() for v in init], keep_states=True)
        lean = run(cfg, [v.copy() for v in init], keep_states=False)
        levels = [int(np.abs(full.times - t).argmin()) for t in want]
        assert len(set(levels)) == len(levels) == len(lean.buffers)
        assert [kept.time_step for kept in lean.states] == levels
        for s, kept, buffer in zip(levels, lean.states, lean.buffers):
            assert kept.time == full.states[s].time
            assert buffer.tobytes() == full.buffers[s].tobytes()
            for vf, vl in zip(full.states[s].values, kept.values):
                assert vf.tobytes() == vl.tobytes()
                assert np.shares_memory(vl, buffer)
        # junction log is complete in both modes
        assert (full.p_min == lean.p_min).all()
    zero = run(RunConfig(mesh, 0.9, 0.0, snapshot_times=(0.0,)), init,
               keep_states=False)
    assert len(zero.states) == len(zero.buffers) == 1
    assert (full.totals == lean.totals).all()


def test_run_accepts_grid_state():
    mesh = small_mesh()
    state = discretize_initial(mesh, [0.3, 0.6])
    traj = run(RunConfig(mesh, 0.9, 0.05), state)
    assert traj.final.time == pytest.approx(0.05)
    assert run_parabolic(mesh, 0.02, state, 0.05).final.time == \
        pytest.approx(0.05)
    # a GridState is initial data like any other: shape, finiteness, range
    nan_cell = np.full(50, 0.3)
    nan_cell[7] = math.nan
    for values in ((np.full(7, 0.3), np.full(3, 0.6)),
                   (nan_cell, np.full(50, 0.6)),
                   (np.full(50, 0.3), np.full(50, 1.2))):
        bad = GridState(0, 0.0, values)
        with pytest.raises(ValueError):
            run(RunConfig(mesh, 0.9, 0.1), bad)
        with pytest.raises(ValueError):
            run_parabolic(mesh, 0.02, bad, 0.1)


def test_mass_ledger_closes():
    for spec in (LWR11, SYMQ21):
        mesh = small_mesh(spec)
        lo, hi = spec.rho_min, spec.rho_max
        init = [lo + (hi - lo) * RNG.random(50) for _ in range(spec.m + spec.n)]
        traj = run(RunConfig(mesh, 0.9, 0.25), init)
        led = mass_ledger(traj)
        assert led.max_abs_defect <= 1e-12
        assert len(led.defects) == len(traj.dts) + 1  # one per time level
        assert led.defects[0] == 0.0


def test_junction_log_shapes():
    mesh = small_mesh(SYMQ21)
    traj = run(RunConfig(mesh, 0.9, 0.05), [-0.5, 0.25, 0.4])
    n = len(traj.dts)
    assert traj.p_min.shape == traj.p_max.shape == (n,)
    assert traj.junction_fluxes.shape == (n, 3)
    assert traj.totals.shape == (n,)
    balance = traj.junction_fluxes[:, :2].sum(axis=1) - traj.junction_fluxes[:, 2]
    assert np.abs(balance).max() <= 1e-12


def test_nan_cell_fails_the_ledger():
    # a NaN cell is rejected where it enters; should a NaN mass reach a
    # trajectory, it must not read as conserved
    mesh = small_mesh()
    values = [np.full(50, 0.3), np.full(50, 0.6)]
    values[0][0] = math.nan
    config = RunConfig(mesh, 0.9, 0.1)
    with pytest.raises(ValueError):
        run(config, GridState(0, 0.0, tuple(values)))
    good = run(config, [0.3, 0.6])
    masses = good.masses.copy()
    masses[-1] = math.nan
    traj = Trajectory(config, good.states, good.buffers, good.times, good.dts, good.p_min, good.p_max,
                      good.junction_fluxes, good.totals, good.boundary_net,
                      masses, good.junction_solves)
    assert mass_ledger(traj).max_abs_defect == math.inf


def test_non_finite_mass_stops_the_run(monkeypatch):
    # a NaN that appears mid-run stops it at the step that produced it,
    # in the hyperbolic and the parabolic scheme alike
    mesh = small_mesh()
    real = kernels.interface_fluxes
    for march in (lambda: run(RunConfig(mesh, 0.9, 0.1), [0.3, 0.6]),
                  lambda: run_parabolic(mesh, 0.02, [0.3, 0.6], 0.1)):
        calls = []

        def poisoned(code, par, crit, fcrit, u_ext, out):
            real(code, par, crit, fcrit, u_ext, out)
            calls.append(1)
            if len(calls) == 5:  # both LWR roads share one sweep per step
                out[3] = math.nan  # between cells 2 and 3 of road 0

        monkeypatch.setattr(kernels, "interface_fluxes", poisoned)
        with pytest.raises(ConsistencyError, match=r"^step 5: "):
            march()


def test_step_above_the_stability_bound_stops_the_run(monkeypatch):
    # three times the stable step on 1-1 LWR of equal speeds, with traffic
    # at 0.5 running into queues at 0.9 and 0.95 on either side of the
    # node: the update is no longer monotone, a queue overshoots 1 within a
    # few steps, and the march's range guard stops the run, naming that
    # step and the road. The steps computed from the bad levels before the
    # guard runs overflow, silently; the parabolic march keeps the same
    # guard
    mesh = small_mesh(JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr())))
    init = [np.repeat([0.5, 0.9], 25), np.repeat([0.95, 0.1], 25)]
    cfl, parabolic = scheme.cfl_timestep, viscous.parabolic_timestep
    monkeypatch.setattr(scheme, "cfl_timestep",
                        lambda mesh, number: 3.0 * cfl(mesh, number))
    monkeypatch.setattr(viscous, "parabolic_timestep",
                        lambda mesh, eps: 3.0 * parabolic(mesh, eps))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConsistencyError,
                           match=r"^step 3: road 0 cell 47 holds 1\.009"):
            run(RunConfig(mesh, 1.0, 0.5), init)
        with pytest.raises(ConsistencyError,
                           match=r"^step 2: road 0 cell 25 holds 1\.076"):
            run_parabolic(mesh, 0.02, init, 0.5)
    assert caught == []


def _road_by_road_update(values, mesh, dt, gstar, ghosts=None, eps=0.0):
    """The conservative update as it was written before the network buffer:
    one ghost-extended array and one Godunov sweep per road."""
    lam = dt / mesh.dx
    new_values = []
    boundary = np.empty(len(values))
    for h, flux in enumerate(mesh.spec.fluxes):
        a = values[h]
        cells = a.shape[0]
        fgrid = np.empty(cells + 1)
        u_ext = np.empty(cells + 1)
        if h < mesh.spec.m:
            u_ext[0] = a[0] if ghosts is None else ghosts[h]
            u_ext[1:] = a
            road, node, end = fgrid[:cells], cells, 0
        else:
            u_ext[:cells] = a
            u_ext[cells] = a[-1] if ghosts is None else ghosts[h]
            road, node, end = fgrid[1:], 0, cells
        f = kernels.flux_array(flux.code, flux.params, u_ext)
        d = np.where(u_ext[:-1] <= flux.rho_crit, f[:-1], flux.flux_max)
        s = np.where(u_ext[1:] >= flux.rho_crit, f[1:], flux.flux_max)
        np.minimum(d, s, out=road)
        if eps > 0:
            road -= eps * np.diff(u_ext) / mesh.dx
        fgrid[node] = gstar[h]
        boundary[h] = fgrid[end]
        new_values.append(a - lam * (fgrid[1:] - fgrid[:-1]))
    return tuple(new_values), boundary


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
       symmetric=st.booleans(), dirichlet=st.booleans(),
       eps=st.sampled_from([0.0, 1e-3, 0.05]))
def test_network_update_matches_road_by_road(seed, m, n, symmetric,
                                             dirichlet, eps):
    # LWR of several speeds, cubics and tables side by side, or symmetric
    # quadratics; roads of 1 to 6 cells
    rng = np.random.default_rng(seed)
    if symmetric:
        spec = JunctionSpec(m, n, tuple(
            symmetric_quadratic(float(rng.uniform(0.25, 3.0)))
            for _ in range(m + n)))
    else:
        spec = random_junction(seed, m, n)[0]
    lo, hi = spec.rho_min, spec.rho_max
    mesh = NetworkMesh(spec, float(rng.uniform(0.01, 0.1)),
                       rng.integers(1, 7, m + n))
    values = tuple(rng.uniform(lo, hi, c) for c in mesh.cells_per_road)
    ghosts = rng.uniform(lo, hi, m + n) if dirichlet else None
    gstar = rng.uniform(0.0, 1.0, m + n) * np.array(
        [r[3] for r in spec._roads])
    dt = 0.9 * cfl_timestep(mesh, 1.0)
    packed = scheme._pack(mesh, values, ghosts)
    u, boundary = scheme._update(packed, mesh, dt / mesh.dx, gstar,
                                 np.empty_like(packed), ghosts, eps)
    want, want_boundary = _road_by_road_update(values, mesh, dt, gstar,
                                               ghosts, eps)
    for got, ref in zip(mesh._layout.views(u), want):
        assert got.tobytes() == ref.tobytes()
    assert boundary.tobytes() == want_boundary.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 5),
       m=st.integers(1, 3), n=st.integers(1, 3),
       family=st.sampled_from(["lwr", "symq", "cubic", "table"]),
       dirichlet=st.booleans(), eps=st.sampled_from([0.0, 1e-3, 0.05]))
@example(seed=5, runs=3, m=2, n=2, family="table", dirichlet=True, eps=0.05)
def test_runs_end_to_end_update_as_separate_buffers(seed, runs, m, n, family,
                                                    dirichlet, eps):
    # R network buffers laid end to end (``_Layout.runs``) take one update
    # that equals R updates of one buffer each, byte for byte: each run's
    # new level, ghosts and pad, and its boundary fluxes. LWR roads of
    # several speeds, or symmetric quadratics, make one sweep over all R
    # runs; a cubic or a table road among LWR ones makes several sweeps, a
    # call per run and sweep. The output starts as NaN, so every slot of
    # it is written
    rng = np.random.default_rng(seed)
    roads = m + n
    if family == "symq":
        fluxes = [symmetric_quadratic(float(rng.uniform(0.25, 3.0)))
                  for _ in range(roads)]
    else:
        fluxes = [quadratic_lwr(float(rng.uniform(0.25, 2.0)))
                  for _ in range(roads)]
        if family == "cubic":
            fluxes[rng.integers(roads)] = custom_polynomial(
                [0.0, 1.0, 0.0, -1.0], 0.0, 1.0, 1 / math.sqrt(3))
        elif family == "table":
            fluxes[rng.integers(roads)] = MIXED_TOPOLOGIES[
                "1-2-mixed"].fluxes[2]
    spec = JunctionSpec(m, n, tuple(fluxes))
    lo, hi = spec.rho_min, spec.rho_max
    mesh = NetworkMesh(spec, float(rng.uniform(0.01, 0.1)),
                       rng.integers(1, 7, roads))
    one, layout = mesh._layout, mesh._layout.runs(runs)
    assert (layout is one) == (runs == 1)
    assert len(layout.sweeps) == (1 if family in ("lwr", "symq")
                                  else runs * len(one.sweeps))
    ghosts = rng.uniform(lo, hi, roads) if dirichlet else None
    packed = [scheme._pack(mesh, tuple(rng.uniform(lo, hi, c)
                                       for c in mesh.cells_per_road), ghosts)
              for _ in range(runs)]
    gstar = rng.uniform(0.0, 1.0, (runs, roads)) * np.array(
        [r[3] for r in spec._roads])
    lam = 0.9 * cfl_timestep(mesh, 1.0) / mesh.dx
    u = np.concatenate(packed)
    out = np.full(u.shape, math.nan)
    got, boundary = scheme._update(u, mesh, lam, gstar, out, ghosts, eps,
                                   layout)
    assert got is out and boundary.shape == (runs * roads,)
    # the interface between two runs, which nothing reads, is never left
    # unwritten: one sweep computes it from their ghosts, and under several
    # it starts at zero, less the viscous term
    seams = np.arange(one.slots - 1, u.size - 1, one.slots)
    if len(layout.sweeps) > 1:
        grad = (u[seams + 1] - u[seams]) * eps / mesh.dx
        assert (scheme._flux_grid(u, mesh, gstar, eps, layout)[seams].tobytes()
                == (0.0 - grad).tobytes())
    for r, buffer in enumerate(packed):
        want, want_boundary = scheme._update(
            buffer, mesh, lam, gstar[r], np.full(buffer.shape, math.nan),
            ghosts, eps)
        at = r * one.slots
        assert got[at:at + one.slots].tobytes() == want.tobytes()
        assert (boundary[r * roads:(r + 1) * roads].tobytes()
                == want_boundary.tobytes())


@pytest.mark.parametrize("bc", ["absorbing", "dirichlet", "parabolic"])
def test_single_steps_replay_the_run(monkeypatch, bc):
    # step by step, the single-step API gives every level of a run bitwise;
    # the levels a run keeps are views into per-step buffers (levels held at
    # a bitwise fixed point share one), so checking them only after the run
    # ends shows that no later step wrote into them
    spec = MIXED_TOPOLOGIES["1-2-mixed"]
    mesh = small_mesh(spec, dx=0.05, cells=20)
    rng = np.random.default_rng(7)
    init = [rng.uniform(0.0, 1.0, 20) for _ in range(3)]
    if bc == "parabolic":
        keep_every_level(monkeypatch)
        traj = run_parabolic(mesh, 0.02, init,
                             25.5 * parabolic_timestep(mesh, 0.02))
        advance = lambda state, dt: parabolic_step(state, mesh, 0.02, dt)
    else:
        extra = ({} if bc == "absorbing" else
                 {"dirichlet_values": np.array([0.8, 0.05, 0.9])})
        traj = run(RunConfig(mesh, 0.9, 25.5 * cfl_timestep(mesh, 0.9),
                             **extra), init)
        advance = lambda state, dt: step(state, mesh, dt, **extra)
    assert len(traj.dts) == 26
    state = discretize_initial(mesh, init)
    replay = [[v.copy() for v in state.values]]
    for dt in traj.dts:
        state = advance(state, dt)
        replay.append([v.copy() for v in state.values])
    assert len(traj.states) == len(replay)
    for kept, want in zip(traj.states, replay):
        for got, ref in zip(kept.values, want):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("label,sweeps", [("2-3", 1), ("1-2-mixed", 3),
                                          ("2-1-symq", 1)])
def test_one_sweep_per_family_run(monkeypatch, label, sweeps):
    # neighbouring LWR (or symmetric-quadratic) roads share one Godunov
    # sweep per step; a polynomial or tabulated road has its own
    spec = MIXED_TOPOLOGIES[label]
    mesh = small_mesh(spec, dx=0.05, cells=20)
    real = kernels.interface_fluxes
    calls = []

    def counted(*args):
        calls.append(args[5].shape[0])  # ``out`` stays the sixth argument
        real(*args)

    monkeypatch.setattr(kernels, "interface_fluxes", counted)
    traj = run(RunConfig(mesh, 0.9, 10 * cfl_timestep(mesh, 0.9)),
               [spec.rho_min + 0.3 * spec.span] * (spec.m + spec.n))
    assert len(calls) == sweeps * len(traj.dts)
    # every interface but the ones between two sweeps is swept once
    assert sum(calls) == (mesh._layout.slots - sweeps) * len(traj.dts)


# SHA-256 of a Dirichlet run's outputs, recorded before the hyperbolic and
# parabolic schemes came to share one time loop and one road update
PINNED_DIRICHLET = {
    "final": "b7dcc9876c0ec5019d6fbb49f08e68569f359fae215567cb1ce7921ab3f48303",
    "masses": "2292c55997f372b05236017c439fdcd11549ee1e471c4df83565ea11be0009a2",
    "junction_fluxes":
        "84293892d5548413bda968e455315d0e1ebce92dd55f3b04cceac56f6afb46cc",
}


def _sha(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float)
                          .tobytes()).hexdigest()


def test_dirichlet_run_bit_identical():
    cfg = RunConfig(small_mesh(), 0.9, 0.1,
                    dirichlet_values=np.array([0.4, 0.1]))
    traj = run(cfg, [np.where(np.arange(50) < 25, 0.2, 0.7), 0.6])
    assert len(traj.dts) == 17
    assert _sha(np.concatenate(traj.final.values)) == PINNED_DIRICHLET["final"]
    assert _sha(traj.masses) == PINNED_DIRICHLET["masses"]
    assert _sha(traj.junction_fluxes) == PINNED_DIRICHLET["junction_fluxes"]


# The well-balance ensemble's four topologies: quadratic, polynomial and
# tabulated fluxes, one to five roads
MIXED_TOPOLOGIES = {
    "1-1": JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr())),
    "2-1-symq": SYMQ21,
    "2-3": JunctionSpec(2, 3, tuple(quadratic_lwr(v)
                                    for v in (1.0, 1.5, 1.0, 0.75, 1.25))),
    "1-2-mixed": JunctionSpec(1, 2, (
        quadratic_lwr(),
        custom_polynomial([0.0, 1.0, 0.0, -1.0], 0.0, 1.0, 1 / math.sqrt(3)),
        tabulated(np.linspace(0.0, 1.0, 9),
                  [0.0, 0.22, 0.38, 0.47, 0.5, 0.44, 0.33, 0.18, 0.0]))),
}

# SHA-256 over p_min, p_max, junction fluxes, masses and final values of a
# 30-step run from seeded random data, recorded before the junction kernels
# moved from numpy scalars to Python floats
PINNED_MIXED = {
    "1-1":
        "5a7b482ed34b47a26413a6692a7d2b8635a59f8e0d6c6876289b89e82e43f42a",
    "2-1-symq":
        "307292922232ae12d52262951dc0b856662909a03c0b1e47ec838b78e0405166",
    "2-3":
        "7ab8f2fc768226003af888d8b39b9ad2474e67d62545a1f497b5af92db22beaa",
    "1-2-mixed":
        "59c5d2850f6e21e45b647221b5f13932f3e4d0163861a87745827bec8d9b930a",
}


@pytest.mark.parametrize("label", sorted(PINNED_MIXED))
def test_mixed_family_run_bit_identical(label):
    spec = MIXED_TOPOLOGIES[label]
    mesh = small_mesh(spec, dx=0.05, cells=20)
    rng = np.random.default_rng(sorted(PINNED_MIXED).index(label))
    traj = run(RunConfig(mesh, 0.9, 30 * cfl_timestep(mesh, 0.9)),
               [rng.uniform(spec.rho_min, spec.rho_max, 20)
                for _ in range(spec.m + spec.n)])
    assert len(traj.dts) == 30
    digest = hashlib.sha256()
    for array in (traj.p_min, traj.p_max, traj.junction_fluxes, traj.masses,
                  *traj.final.values):
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    assert digest.hexdigest() == PINNED_MIXED[label]


# ---------------------------------------------------------------------------
# reuse of the junction solution

def _spy_solves(monkeypatch):
    """Record the state of every junction solve the march makes: one by
    one, or as a row that a batch's stacked solve certifies."""
    real, real_stack = scheme.solve_junction, scheme._solve_stack
    calls = []

    def spy(spec, u, *hint):
        calls.append(np.array(u, dtype=float))
        return real(spec, u, *hint)

    def spy_stack(spec, states, hints):
        sols = real_stack(spec, states, hints)
        calls.extend(np.array(u, dtype=float)
                     for u, sol in zip(states, sols) if sol is not None)
        return sols

    monkeypatch.setattr(scheme, "solve_junction", spy)
    monkeypatch.setattr(scheme, "_solve_stack", spy_stack)
    return calls


@pytest.mark.parametrize("label", ["2-3", "2-1-symq", "1-2-mixed"])
def test_held_equilibrium_solves_the_junction_once(monkeypatch, label):
    # a held equilibrium repeats its junction state bitwise at every step;
    # each run solves it once, and a second run of it solves it again
    spec = MIXED_TOPOLOGIES[label]
    mesh = small_mesh(spec)
    config = RunConfig(mesh, 0.9, 200 * cfl_timestep(mesh, 0.9))
    states = germ_sampler(spec, 3, seed=29)
    calls = _spy_solves(monkeypatch)
    for k in [states[0], *states]:
        calls.clear()
        traj = run(config, list(k), keep_states=False)
        assert len(traj.dts) == 200
        assert traj.junction_solves == len(calls) == 1
        fluxes = solve_junction(spec, k).fluxes
        assert (traj.junction_fluxes == fluxes).all()


@pytest.mark.parametrize("bc", ["absorbing", "dirichlet"])
@pytest.mark.parametrize("label", sorted(MIXED_TOPOLOGIES))
def test_run_solves_each_new_junction_state(monkeypatch, bc, label):
    # an equilibrium near the node and random data further out: the
    # junction state repeats until the waves arrive, then changes; a step
    # solves exactly when its state differs bytewise from the last step's,
    # and every logged flux is that of a fresh solve
    spec = MIXED_TOPOLOGIES[label]
    roads = spec.m + spec.n
    mesh = small_mesh(spec, dx=0.05, cells=20)
    rng = np.random.default_rng(sorted(MIXED_TOPOLOGIES).index(label))
    init = [np.full(20, kh) for kh in germ_sampler(spec, 1, seed=3)[0]]
    for h, v in enumerate(init):  # the outer 8 of 20 cells
        v[slice(0, 8) if h < spec.m else slice(12, 20)] = rng.uniform(
            spec.rho_min, spec.rho_max, 8)
    extra = ({} if bc == "absorbing" else
             {"dirichlet_values": rng.uniform(spec.rho_min, spec.rho_max,
                                              roads)})
    calls = _spy_solves(monkeypatch)
    traj = run(RunConfig(mesh, 0.9, 40 * cfl_timestep(mesh, 0.9), **extra),
               init)
    before = [scheme._pack(mesh, state)[mesh._layout.adj]
              for state in traj.states[:-1]]
    new = [0] + [s for s in range(1, len(before))
                 if before[s].tobytes() != before[s - 1].tobytes()]
    assert 1 < len(new) < len(traj.dts)
    assert traj.junction_solves == len(calls) == len(new)
    for call, s in zip(calls, new):
        assert call.tobytes() == before[s].tobytes()
    for s, k in enumerate(before):
        assert (traj.junction_fluxes[s].tobytes()
                == solve_junction(spec, k).fluxes.tobytes())


def test_moving_run_warm_starts_the_junction_bracket(monkeypatch):
    # a 2-1 LWR run whose junction state moves at every step: the first
    # step, which has no hint, solves cold with no stacked solve; every
    # later step offers the stack the last active set found as its hint,
    # and solves its piece with no gap evaluation, where a cold solve (of
    # the first step, or of a row the stack leaves) takes m + n + 2 = 5
    spec = JunctionSpec(2, 1, (quadratic_lwr(), quadratic_lwr(),
                               quadratic_lwr(2.0)))
    mesh = NetworkMesh(spec, 1.0 / 200, 200)
    rng = np.random.default_rng(5)
    init = [np.repeat(rng.random(10), 20) for _ in range(3)]
    gaps, per_solve, offered, actives = [0], [], [], []
    real_gap = kernels.balance_gap
    real_solve, real_stack = scheme.solve_junction, scheme._solve_stack

    def gap(*args):
        gaps[0] += 1
        return real_gap(*args)

    def solved(sol, before):
        per_solve.append(gaps[0] - before)
        actives.append(sol.active)
        return sol

    def stack(spec, states, hints):
        assert len(states) == len(hints) == 1  # one run, one row a step
        offered.extend(hints)
        before = gaps[0]
        sols = real_stack(spec, states, hints)
        return [sol and solved(sol, before) for sol in sols]

    def solve(*args):
        before = gaps[0]
        return solved(real_solve(*args), before)

    monkeypatch.setattr(kernels, "balance_gap", gap)
    monkeypatch.setattr(scheme, "solve_junction", solve)
    monkeypatch.setattr(scheme, "_solve_stack", stack)
    traj = run(RunConfig(mesh, 0.9, 0.25), init, keep_states=False)
    assert traj.junction_solves == len(per_solve) == len(offered) + 1 > 100
    last = None  # the last active set found before each step
    for hint, active in zip([None, *offered], actives):
        assert hint is last
        last = active or last
    assert per_solve[0] > 0 and None not in offered
    assert sum(k == 0 for k in per_solve) >= 0.95 * len(per_solve)


def test_a_plateau_keeps_the_last_active_set_as_the_hint(monkeypatch):
    # a solve on a plateau (or a kink, or an end) finds no active set. The
    # runs of the test above reach none, so every 10th solution here has
    # its set taken away, as a plateau's would be; the solve after it
    # still starts from the last set found, and only the first solve of
    # each run is cold (kernels.coupling_interval), alone and in a batch.
    # A hint never changes a result
    spec = JunctionSpec(2, 1, (quadratic_lwr(), quadratic_lwr(),
                               quadratic_lwr(2.0)))
    config = RunConfig(NetworkMesh(spec, 1.0 / 200, 200), 0.9, 0.1)
    initials = [[np.repeat(rng.random(10), 20) for _ in range(3)]
                for rng in map(np.random.default_rng, (5, 6))]
    want = [run(config, init) for init in initials]
    real_solve, real_stack = scheme.solve_junction, scheme._solve_stack
    real_interval = kernels.coupling_interval
    solves, cold = [], []

    def flat(sol):
        if sol is None:  # a row the stack leaves to the solve one by one
            return sol
        solves.append(sol)
        if len(solves) % 10:
            return sol
        return JunctionSolution(sol.p_min, sol.p_max, sol.fluxes, sol.total)

    def interval(*args):
        cold.append(1)
        return real_interval(*args)

    monkeypatch.setattr(scheme, "solve_junction",
                        lambda *args: flat(real_solve(*args)))
    monkeypatch.setattr(scheme, "_solve_stack",
                        lambda *args: list(map(flat, real_stack(*args))))
    monkeypatch.setattr(kernels, "coupling_interval", interval)
    for init, ref in zip(initials, want):
        solves.clear(), cold.clear()
        _assert_same_run(run(config, init), ref)
        assert len(solves) == 89 and len(cold) == 1
    solves.clear(), cold.clear()
    for got, ref in zip(scheme.run_batch(config, initials), want):
        _assert_same_run(got, ref)
    assert len(solves) == 2 * 89 and len(cold) == 2


def test_signed_zero_is_a_new_junction_state(monkeypatch):
    # symmetric-quadratic roads held at their crest 0.0; turning the first
    # road's junction cell to -0.0 in step 1 is a new state (held from
    # then on), which the bytes of the state tell apart and == does not.
    # The march holds the fixed point from step 1 on, so the injection
    # comes on the 1st update; a later one would never run
    mesh = small_mesh(SYMQ21)
    adj = int(mesh._layout.adj[0])
    real = scheme._update
    steps = []

    def flip(u, *args):
        new, boundary = real(u, *args)
        steps.append(None)
        if len(steps) == 1:
            assert new[adj] == 0.0
            new[adj] = -0.0
        return new, boundary

    monkeypatch.setattr(scheme, "_update", flip)
    calls = _spy_solves(monkeypatch)
    traj = run(RunConfig(mesh, 0.9, 10 * cfl_timestep(mesh, 0.9)),
               [0.0, 0.0, 0.0])
    assert len(traj.dts) == 10
    assert traj.junction_solves == len(calls) == 2
    assert math.copysign(1.0, calls[0][0]) == 1.0
    assert math.copysign(1.0, calls[1][0]) == -1.0
    assert math.copysign(1.0, traj.final.values[0][-1]) == -1.0


# ---------------------------------------------------------------------------
# holding a bitwise fixed point

def _spy_updates(monkeypatch, module=scheme):
    """Count the conservative updates the march computes."""
    real = module._update
    calls = []

    def spy(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "_update", spy)
    return calls


def _assert_step_replay(traj, init):
    # every kept level, mass, boundary sum and junction flux of a run, as
    # the single-step API and a fresh junction solve per step give them
    mesh, config = traj.mesh, traj.config
    spec, layout = mesh.spec, mesh._layout
    ghosts = config.dirichlet_values
    state = discretize_initial(mesh, init)
    levels = [[v.copy() for v in state.values]]
    masses = [state.total_mass(mesh.dx)]
    bnet, fluxes = [], []
    for dt in traj.dts:
        u = scheme._pack(mesh, state, ghosts)
        sol = solve_junction(spec, u[layout.adj])
        boundary = scheme._flux_grid(u, mesh, sol.fluxes)[layout.outer]
        bnet.append(math.fsum(boundary[spec.m:].tolist())
                    - math.fsum(boundary[:spec.m].tolist()))
        fluxes.append(sol.fluxes)
        state = step(state, mesh, dt, ghosts)
        levels.append([v.copy() for v in state.values])
        masses.append(state.total_mass(mesh.dx))
    assert len(traj.states) == len(levels)
    for kept, want in zip(traj.states, levels):
        for got, ref in zip(kept.values, want):
            assert got.tobytes() == ref.tobytes()
    assert traj.masses.tobytes() == np.array(masses).tobytes()
    assert traj.boundary_net.tobytes() == np.array(bnet).tobytes()
    assert (traj.junction_fluxes.tobytes()
            == np.array(fluxes).reshape(traj.junction_fluxes.shape).tobytes())


@pytest.mark.parametrize("bc", ["absorbing", "dirichlet"])
@pytest.mark.parametrize("label", sorted(MIXED_TOPOLOGIES))
def test_held_equilibrium_is_updated_at_most_three_times(monkeypatch, bc,
                                                         label):
    # step 1 returns its input bitwise, so the march holds from step 1 on
    # and computes only the shortened last step again
    spec = MIXED_TOPOLOGIES[label]
    mesh = small_mesh(spec)
    for k in germ_sampler(spec, 2, seed=41):
        extra = {} if bc == "absorbing" else {"dirichlet_values": k}
        calls = _spy_updates(monkeypatch)
        traj = run(RunConfig(mesh, 0.9, 200 * cfl_timestep(mesh, 0.9),
                             **extra), list(k))
        assert len(traj.dts) == 200
        assert len(calls) <= 2
        monkeypatch.undo()
        _assert_step_replay(traj, list(k))


def test_held_tail_costs_no_call_per_level(monkeypatch):
    # a held equilibrium of 10,000 steps computes step 1 and the shortened
    # last step and solves once; the march jumps the held tail, so it makes
    # as many Python calls itself as for a held run of 1,000 steps, lean
    # or keeping every level. Kept, the held levels share one buffer, and
    # snapshots inside the held tail keep their step and time. 10-cell
    # roads keep the replay short
    spec = MIXED_TOPOLOGIES["1-1"]
    mesh = small_mesh(spec, cells=10)
    k = list(germ_sampler(spec, 1, seed=41)[0])
    dt0 = cfl_timestep(mesh, 0.9)
    configs = {steps: RunConfig(mesh, 0.9, (steps - 0.5) * dt0)
               for steps in (1000, 10000)}

    def march_calls(config, keep_states):
        # the calls that _march makes itself, as cProfile counts them
        run(config, k, keep_states)  # warm every cache first
        prof = cProfile.Profile()
        prof.enable()
        run(config, k, keep_states)
        prof.disable()
        return sum(calls for *_, callers in pstats.Stats(prof).stats.values()
                   for (_, _, name), (_, calls, *_) in callers.items()
                   if name == "_march")

    for keep_states in (False, True):
        assert (march_calls(configs[10000], keep_states)
                == march_calls(configs[1000], keep_states))
    updates, solves = _spy_updates(monkeypatch), _spy_solves(monkeypatch)
    traj = run(configs[10000], k)
    assert len(traj.dts) == 10000 and traj.dts[-1] < dt0
    assert len(updates) <= 2 and traj.junction_solves == len(solves) == 1
    assert len(traj.states) == 10001
    assert [s.time_step for s in traj.states] == list(range(10001))
    assert [s.time for s in traj.states] == traj.times.tolist()
    held = traj.buffers[1]
    assert all(b is held for b in traj.buffers[1:-1])
    assert all(s.values is traj.states[1].values for s in traj.states[1:-1])
    snaps = (2500.2 * dt0, 7499.9 * dt0)
    lean = run(RunConfig(mesh, 0.9, (10000 - 0.5) * dt0,
                         snapshot_times=snaps), k, keep_states=False)
    assert [s.time_step for s in lean.states] == [0, 2500, 7500, 10000]
    assert [s.time for s in lean.states] == [traj.times[s] for s in (
        0, 2500, 7500, 10000)]
    assert lean.buffers[1] is lean.buffers[2]
    assert lean.buffers[1].tobytes() == held.tobytes()
    monkeypatch.undo()
    _assert_step_replay(traj, k)


def test_settling_run_holds_once_the_waves_have_left(monkeypatch):
    # a 2-1 LWR Riemann problem on absorbing roads: once its waves have left
    # the truncated network the state stops changing, and the march holds
    spec = JunctionSpec(2, 1, (quadratic_lwr(),) * 3)
    mesh = NetworkMesh(spec, 0.01, 50)
    init = [0.02, 0.81, 0.91]
    calls = _spy_updates(monkeypatch)
    traj = run(RunConfig(mesh, 0.9, 5.0), init)
    assert len(traj.dts) == 1112
    assert len(calls) < len(traj.dts)
    monkeypatch.undo()
    _assert_step_replay(traj, init)


def test_hold_tells_signed_zeros_apart(monkeypatch):
    # a -0.0 written in step 1 leaves the buffer == its input but not
    # bitwise: step 2 (a new junction state, its first repeat) is computed
    # before the march holds, and a shortened last step after; had the
    # hold compared values, it would start at step 1
    mesh = small_mesh(SYMQ21)
    adj = int(mesh._layout.adj[0])
    real = scheme._update
    steps = []

    def flip(u, *args):
        new, boundary = real(u, *args)
        steps.append(None)
        if len(steps) == 1:
            new[adj] = -0.0
        return new, boundary

    monkeypatch.setattr(scheme, "_update", flip)
    traj = run(RunConfig(mesh, 0.9, 10 * cfl_timestep(mesh, 0.9)),
               [0.0, 0.0, 0.0])
    assert len(steps) == 2 + (traj.dts[-1] != traj.dts[0])


def test_shortened_step_never_overwrites_the_held_level(monkeypatch):
    # the run above on 3 x 12,000 cells (288 KB a level), whose block
    # holds 3 levels, with the junction cell turned to -0.0, 0.0 and -0.0
    # in steps 1 to 3, each a new junction state: the hold starts at step
    # 4, in the first row of the second block, and the shortened last step
    # is written into another row, never into the held level it reads
    mesh = small_mesh(SYMQ21, dx=0.02, cells=12000)
    assert scheme._MASS_BLOCK_MAX // (mesh._layout.slots * 8) == 3
    adj = int(mesh._layout.adj[0])
    heights = _spy_blocks(monkeypatch)
    real = scheme._update
    steps = []

    def flip(u, mesh, lam, gstar, out, *args):
        assert not np.shares_memory(u, out)
        new, boundary = real(u, mesh, lam, gstar, out, *args)
        steps.append(None)
        if len(steps) <= 3:
            new[adj] = -0.0 if len(steps) % 2 else 0.0
        return new, boundary

    monkeypatch.setattr(scheme, "_update", flip)
    traj = run(RunConfig(mesh, 0.9, 10.5 * cfl_timestep(mesh, 0.9)),
               [0.0, 0.0, 0.0])
    assert len(steps) == 5 and heights == [3, 1, 1]
    assert traj.final.values[0][-1].tobytes() == np.array(-0.0).tobytes()


def test_parabolic_run_holds_an_empty_network(monkeypatch):
    # on empty roads every level repeats its input bitwise, so the
    # parabolic march holds as well
    mesh = small_mesh(dx=0.05, cells=20)
    keep_every_level(monkeypatch)
    calls = _spy_updates(monkeypatch, viscous)
    traj = run_parabolic(mesh, 0.02, [0.0, 0.0],
                         30.5 * parabolic_timestep(mesh, 0.02))
    assert len(traj.dts) == 31
    assert len(calls) < len(traj.dts)
    monkeypatch.undo()
    state = discretize_initial(mesh, [0.0, 0.0])
    masses = [state.total_mass(mesh.dx)]
    for kept, dt in zip(traj.states[1:], traj.dts):
        state = parabolic_step(state, mesh, 0.02, dt)
        masses.append(state.total_mass(mesh.dx))
        for got, ref in zip(kept.values, state.values):
            assert got.tobytes() == ref.tobytes()
    assert traj.masses.tobytes() == np.array(masses).tobytes()
    assert traj.boundary_net.tobytes() == np.zeros(31).tobytes()


# ---------------------------------------------------------------------------
# exact masses taken a block of levels at a time

def _spy_blocks(monkeypatch, poison_row=None):
    """The height of every block whose masses the march takes; with
    ``poison_row``, the second block's mass in that row reads inf."""
    real = kernels.row_sums
    heights = []

    def spy(block, tops, skip):
        heights.append(block.shape[0])
        sums = real(block, tops, skip)
        if poison_row is not None and len(heights) == 2:
            sums[poison_row] = math.inf
        return sums

    monkeypatch.setattr(kernels, "row_sums", spy)
    return heights


def test_block_masses_are_those_of_the_replayed_levels(monkeypatch):
    # a 185-step parabolic run of two full blocks of 64 levels (1 MB would
    # hold 645 of these) and a partial one, and a hyperbolic run whose
    # hold starts mid-block: every mass is GridState.total_mass of its
    # level, replayed step by step, bitwise
    mesh = NetworkMesh(LWR11, 0.01, np.array([100, 100]))
    assert scheme._MASS_BLOCK_MAX // (mesh._layout.slots * 8) == 645
    assert scheme._MASS_BLOCK_LEVELS == 64
    heights = _spy_blocks(monkeypatch)
    eps = 0.02
    init = [np.linspace(0.1, 0.4, 100), np.linspace(0.9, 0.5, 100)]
    traj = run_parabolic(mesh, eps, init,
                         184.5 * parabolic_timestep(mesh, eps))
    assert heights == [64, 64, 57]
    state = discretize_initial(mesh, init)
    masses = [state.total_mass(mesh.dx)]
    for dt in traj.dts:
        state = parabolic_step(state, mesh, eps, dt)
        masses.append(state.total_mass(mesh.dx))
    assert traj.masses.tobytes() == np.array(masses).tobytes()
    # the 2-1 settling run below holds from step 284 on: four full blocks
    # of 64 levels, 28 more when the hold starts, and the shortened step
    heights.clear()
    mesh = NetworkMesh(JunctionSpec(2, 1, (quadratic_lwr(),) * 3), 0.01, 50)
    traj = run(RunConfig(mesh, 0.9, 300.5 * cfl_timestep(mesh, 0.9)),
               [0.02, 0.81, 0.91])
    assert heights == [64] * 4 + [28, 1]
    _assert_step_replay(traj, [0.02, 0.81, 0.91])
    # a level larger than half of 1 MB makes a block of two rows; the
    # third step, the last, is flushed alone
    heights.clear()
    mesh = NetworkMesh(LWR11, 1e-3, np.array([33000, 33000]))
    assert 2 * mesh._layout.slots * 8 > scheme._MASS_BLOCK_MAX
    init = [np.linspace(0.1, 0.4, 33000), np.linspace(0.9, 0.5, 33000)]
    traj = run(RunConfig(mesh, 0.9, 2.5 * cfl_timestep(mesh, 0.9)), init)
    assert heights == [2, 1]
    _assert_step_replay(traj, init)


def test_non_finite_block_mass_names_its_own_step(monkeypatch):
    # a mass that comes out non-finite in the middle of a block stops the
    # run when the block is summed, at the step of that level
    mesh = NetworkMesh(LWR11, 0.01, np.array([100, 100]))
    init = [np.linspace(0.1, 0.4, 100), np.linspace(0.9, 0.5, 100)]
    # the second block is 64 levels of the 167-step run, and the 36 left
    # of the 100-step parabolic one
    for march, second in (
            (lambda: run(RunConfig(mesh, 0.9, 0.5), init), 64),
            (lambda: run_parabolic(mesh, 0.02, init, 0.12), 36)):
        heights = _spy_blocks(monkeypatch, poison_row=5)
        with pytest.raises(ConsistencyError,
                           match=r"^step 70: total mass is inf$"):
            march()
        assert heights == [64, second]


@pytest.mark.parametrize("kind", ["run", "batch", "parabolic"])
@pytest.mark.parametrize("cell", [2, 98])
def test_mid_block_guard_names_the_first_bad_step(monkeypatch, kind, cell):
    # a NaN flux at step 20 between cells cell and cell + 1 of road 0 (of
    # run 1 in a batch of three, whose interfaces run after run make one
    # sweep): the level of step 20 waits in the middle of the first block,
    # of 64 levels of the 67-step run and batch, and of all 50 of the
    # parabolic run. Far from the node (cell 2) the march goes on from it
    # with no warning, and the guard names step 20 when the block is
    # flushed; next to the node (cell 98) the junction solve of step 21
    # (of a hyperbolic run) reads the NaN first and raises, and the
    # guard's error for step 20 wins over the solve's
    mesh = NetworkMesh(LWR11, 0.01, np.array([100, 100]))
    init = [np.linspace(0.1, 0.4, 100), np.linspace(0.9, 0.5, 100)]
    march = {
        "run": lambda: run(RunConfig(mesh, 0.9, 0.2), init),
        "batch": lambda: scheme.run_batch(RunConfig(mesh, 0.9, 0.2),
                                          [init] * 3),
        "parabolic": lambda: run_parabolic(mesh, 0.02, init, 0.06)}[kind]
    real = kernels.interface_fluxes
    sweeps = []

    def poisoned(code, par, crit, fcrit, u_ext, out):
        real(code, par, crit, fcrit, u_ext, out)
        sweeps.append(1)  # both LWR roads share one sweep per step
        if len(sweeps) == 20:
            out[(mesh._layout.slots if kind == "batch" else 0)
                + cell + 1] = math.nan

    monkeypatch.setattr(kernels, "interface_fluxes", poisoned)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConsistencyError,
                           match=rf"^{'run 1: ' if kind == 'batch' else ''}"
                                 rf"step 20: road 0 cell {cell} holds nan, "):
            march()
    assert caught == []
    # the parabolic junction value takes a NaN state with no error
    assert len(sweeps) == (20 if cell == 98 and kind != "parabolic" else
                           50 if kind == "parabolic" else 64)


@functools.cache
def _germs(label):
    return germ_sampler(MIXED_TOPOLOGIES[label], 4, seed=53)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(label=st.sampled_from(sorted(MIXED_TOPOLOGIES)),
       bc=st.sampled_from(["absorbing", "held", "random"]),
       seed=st.integers(0, 2**32 - 1), outer=st.integers(0, 4),
       n_steps=st.integers(1, 400), tail=st.sampled_from([0.0, 0.5]))
def test_run_matches_a_step_replay(label, bc, seed, outer, n_steps, tail):
    # a sampled equilibrium with random outer cells under absorbing ends or
    # Dirichlet data (the equilibrium's or random); some of these runs settle,
    # so the junction reuse and the hold both meet the plain scheme here
    spec = MIXED_TOPOLOGIES[label]
    mesh = small_mesh(spec, dx=0.05, cells=4)
    rng = np.random.default_rng(seed)
    k = _germs(label)[rng.integers(4)]
    init = [np.full(4, kh) for kh in k]
    for h, v in enumerate(init):
        v[slice(0, outer) if h < spec.m else slice(4 - outer, 4)] = (
            rng.uniform(spec.rho_min, spec.rho_max, outer))
    extra = ({} if bc == "absorbing" else
             {"dirichlet_values": k if bc == "held" else rng.uniform(
                 spec.rho_min, spec.rho_max, spec.m + spec.n)})
    dt0 = cfl_timestep(mesh, 0.9)
    traj = run(RunConfig(mesh, 0.9, (n_steps + tail) * dt0, **extra), init)
    _assert_step_replay(traj, init)


# ---------------------------------------------------------------------------
# batched runs: one march over a stack of runs on one mesh

def _assert_same_run(got, want):
    # every Trajectory field bit for bit (a run that settles before the
    # rest of its batch is recomputed, so its held levels share no buffer)
    assert got.config is want.config
    assert got.junction_solves == want.junction_solves
    assert len(got.states) == len(want.states) == len(got.buffers)
    for a, b in zip(got.states, want.states):
        assert (a.time_step, float(a.time).hex()) == (b.time_step,
                                                      float(b.time).hex())
        assert [v.tobytes() for v in a.values] == [v.tobytes()
                                                   for v in b.values]
    assert [u.tobytes() for u in got.buffers] == [u.tobytes()
                                                  for u in want.buffers]
    for name in ("times", "dts", "p_min", "p_max", "junction_fluxes",
                 "totals", "boundary_net", "masses"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype,
                                                   b.tobytes()), name


@settings(derandomize=True, deadline=None, max_examples=120)
@given(label=st.sampled_from(sorted(MIXED_TOPOLOGIES)),
       bc=st.sampled_from(["absorbing", "held", "random"]),
       lean=st.booleans(), seed=st.integers(0, 2**32 - 1),
       outer=st.lists(st.integers(0, 6), min_size=1, max_size=5),
       n_steps=st.integers(0, 120), tail=st.sampled_from([0.0, 0.5]))
def test_batch_matches_single_runs(label, bc, lean, seed, outer, n_steps,
                                   tail):
    # sampled equilibria with 0 to 6 random outer cells of 6, one run per
    # entry of outer, under absorbing ends or Dirichlet data: a run with
    # none is held from step 2 on, one with a few settles once its waves
    # have left, and one with all six random may not settle at all, so the
    # runs of one batch repeat their input from different steps on, or
    # never. Each Trajectory of the batch is that of its own run
    spec = MIXED_TOPOLOGIES[label]
    roads = spec.m + spec.n
    mesh = small_mesh(spec, dx=0.05, cells=6)
    rng = np.random.default_rng(seed)
    initials = []
    for count in outer:
        k = _germs(label)[rng.integers(4)]
        init = [np.full(6, kh) for kh in k]
        for h, v in enumerate(init):
            v[slice(0, count) if h < spec.m else slice(6 - count, 6)] = (
                rng.uniform(spec.rho_min, spec.rho_max, count))
        initials.append(init)
    extra = ({} if bc == "absorbing" else
             {"dirichlet_values": _germs(label)[0] if bc == "held" else
              rng.uniform(spec.rho_min, spec.rho_max, roads)})
    dt0 = cfl_timestep(mesh, 0.9)
    config = RunConfig(mesh, 0.9, (n_steps + tail) * dt0,
                       snapshot_times=(0.5 * n_steps * dt0,), **extra)
    batch = scheme.run_batch(config, initials, keep_states=not lean)
    assert len(batch) == len(initials)
    for got, init in zip(batch, initials):
        _assert_same_run(got, run(config, init, keep_states=not lean))


def test_batch_of_runs_that_settle_apart(monkeypatch):
    # a held equilibrium (it repeats its input from step 2 on), a 2-1 LWR
    # Riemann problem that settles once its waves have left, and random
    # data that is still moving at the end: one update per step serves all
    # three (the stack never holds, as one run never settles), and each
    # run solves its junction as often as it does alone
    spec = JunctionSpec(2, 1, (quadratic_lwr(),) * 3)
    mesh = NetworkMesh(spec, 0.01, 50)
    k = germ_sampler(spec, 1, seed=7)[0]
    rng = np.random.default_rng(11)
    initials = [list(k), [0.02, 0.81, 0.91],
                [rng.uniform(0.0, 1.0, 50) for _ in range(3)]]
    config = RunConfig(mesh, 0.9, 300.5 * cfl_timestep(mesh, 0.9))
    alone = [run(config, init) for init in initials]
    held, settling, moving = alone
    assert held.junction_solves == 1
    assert (settling.buffers[-2].tobytes() == settling.buffers[-3].tobytes()
            and moving.buffers[-2].tobytes() != moving.buffers[-3].tobytes())
    updates = _spy_updates(monkeypatch)
    solves = _spy_solves(monkeypatch)
    batch = scheme.run_batch(config, initials)
    assert len(updates) == len(batch[0].dts) == 301
    assert len(solves) == sum(traj.junction_solves for traj in alone)
    for got, want in zip(batch, alone):
        _assert_same_run(got, want)
    # once every run repeats its input the stack holds: a batch of the two
    # that settle computes fewer steps than it has, and its held levels are
    # those of the runs alone
    updates.clear()
    batch = scheme.run_batch(config, initials[:2])
    assert len(updates) < 301
    for got, want in zip(batch, alone):
        _assert_same_run(got, want)


def test_batch_errors_name_the_run(monkeypatch):
    # a NaN that one run's sweep makes at step 5 stops the batch there,
    # naming that run and the road, in a batch of one too; so does a
    # non-finite mass of one run's level, and an invalid datum names its
    # run before any step
    mesh = small_mesh()
    config = RunConfig(mesh, 0.9, 0.1)
    initials = [[0.3, 0.6], [0.2, 0.7], [0.4, 0.5]]
    real = kernels.interface_fluxes
    calls = []

    def poisoned(code, par, crit, fcrit, u_ext, out):
        real(code, par, crit, fcrit, u_ext, out)
        calls.append(1)
        if len(calls) == 5:  # one sweep per step serves the whole batch
            out[poke] = math.nan

    monkeypatch.setattr(kernels, "interface_fluxes", poisoned)
    # between cells 2 and 3 of road 0 of run 1, and of the one run
    for r, batch in ((1, initials), (0, initials[:1])):
        calls.clear()
        poke = r * mesh._layout.slots + 3
        with pytest.raises(ConsistencyError,
                           match=rf"^run {r}: step 5: road 0 cell 2 holds "
                                 rf"nan, "):
            scheme.run_batch(config, batch)
    monkeypatch.undo()
    # the second block's mass of run 2 at its 6th level: a block holds 64
    # levels of the three runs' 2 x 50 cells here (1 MB would hold 424)
    rows = scheme._MASS_BLOCK_LEVELS
    _spy_blocks(monkeypatch, poison_row=5 * 3 + 2)
    with pytest.raises(ConsistencyError, match=rf"^run 2: step "
                                               rf"{rows + 6}: total mass "
                                               rf"is inf$"):
        scheme.run_batch(RunConfig(mesh, 0.9, 1.0), initials)
    with pytest.raises(ValueError, match=r"^run 1: road 0: "):
        scheme.run_batch(config, [[0.3, 0.6], [math.nan, 0.6]])
    assert scheme.run_batch(config, []) == []


def _poison_junction_fluxes(monkeypatch, first):
    """From its ``first``-th call on, kernels.fill_junction_fluxes leaves
    NaN for road 1's flux, as a broken flux would; returns its calls."""
    real = kernels.fill_junction_fluxes
    calls = []

    def poisoned(roads, m, consts, p, out):
        real(roads, m, consts, p, out)
        calls.append(p)
        if len(calls) >= first:
            out[1] = math.nan

    monkeypatch.setattr(kernels, "fill_junction_fluxes", poisoned)
    return calls


def test_junction_errors_name_the_step_and_the_run(monkeypatch):
    # a junction flux that is not finite stops the march at the step whose
    # solve made it, naming the step, and in a batch the run; the same
    # holds for a row that the stacked solve hands back to the solve one by
    # one. Run 0 of the batch is a held equilibrium, which solves once
    config = RunConfig(small_mesh(), 0.9, 0.4)
    moving = [np.linspace(0.1, 0.9, 50), np.linspace(0.8, 0.2, 50)]
    held = list(germ_sampler(LWR11, 1, seed=7)[0])
    _poison_junction_fluxes(monkeypatch, 5)
    with pytest.raises(ConsistencyError,
                       match=r"^step 5: junction flux of road 1 is nan$"):
        scheme.run(config, moving)
    monkeypatch.undo()
    _poison_junction_fluxes(monkeypatch, 2)  # run 1's first, cold solve
    with pytest.raises(ConsistencyError,
                       match=r"^run 1: step 1: junction flux of road 1 is "
                             r"nan$"):
        scheme.run_batch(config, [held, moving])
    monkeypatch.undo()
    # run 1 alone solves from step 2 on, stacked: its fluxes at step 3 are
    # the 4th call, which fails the balance check, and the solve one by one
    # makes the 5th and raises
    calls = _poison_junction_fluxes(monkeypatch, 4)
    with pytest.raises(ConsistencyError,
                       match=r"^run 1: step 3: junction flux of road 1 is "
                             r"nan$"):
        scheme.run_batch(config, [held, moving])
    assert len(calls) == 5 and calls[3] == calls[4]


def _ledger_oracle(dts, boundary_net, masses):
    """The ledger's defining O(steps^2) formula: fsum over every prefix."""
    n_steps = dts.shape[0]
    flows = [dts[r] * boundary_net[r] for r in range(n_steps)]
    outflow = [math.fsum(flows[:s]) for s in range(n_steps + 1)]
    defects = [math.fsum([masses[s], -masses[0]] + flows[:s])
               for s in range(n_steps + 1)]
    return outflow, defects


def _bits(values):
    return [float(v).hex() for v in values]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n_steps=st.integers(0, 80), seed=st.integers(0, 2**32 - 1),
       lo=st.integers(-300, 290), spread=st.integers(0, 300),
       kind=st.sampled_from(["plain", "cancel", "special"]))
@example(n_steps=0, seed=0, lo=0, spread=0, kind="plain")
def test_one_pass_ledger_matches_prefix_sums(n_steps, seed, lo, spread, kind):
    rng = np.random.default_rng(seed)
    top = min(lo + spread, 290)
    dts = rng.uniform(0.5, 1.0, n_steps)
    bnet = rng.standard_normal(n_steps) * 10.0 ** rng.uniform(lo, top,
                                                              n_steps)
    masses = rng.standard_normal(n_steps + 1) * 10.0 ** rng.uniform(
        lo, top, n_steps + 1)
    if kind == "cancel" and n_steps:  # flows that return what left earlier
        half = n_steps // 2
        dts[half:2 * half] = dts[:half]
        bnet[half:2 * half] = -bnet[:half]
        masses[1:] = masses[0]
    elif kind == "special" and n_steps:
        bnet[rng.integers(n_steps, size=2)] = rng.choice(
            [np.nan, np.inf, -np.inf], 2)
        masses[rng.integers(n_steps + 1)] = np.nan
    traj = SimpleNamespace(dts=dts, boundary_net=bnet, masses=masses)
    try:
        want = _ledger_oracle(dts, bnet, masses)
    except ValueError:  # -inf + inf: fsum refuses, so must the ledger
        with pytest.raises(ValueError):
            mass_ledger(traj)
        return
    led = mass_ledger(traj)
    assert _bits(led.boundary_outflow) == _bits(want[0])
    assert _bits(led.defects) == _bits(want[1])
    assert _bits(led.masses) == _bits(masses)


def _outcome(fn, *args):
    """Bits of every value returned, or the exception fsum would raise."""
    try:
        return [_bits(v) for v in fn(*args)]
    except (OverflowError, ValueError) as exc:
        return type(exc)


LEDGER_TERMS = (2.0**60, 1.0, -(2.0**60), 2.0**-60, 1e300, -1e300, 3e299,
                0.1, -0.0, math.nan, math.inf, -math.inf)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from(LEDGER_TERMS), min_size=n, max_size=n),
    st.lists(st.sampled_from(LEDGER_TERMS), min_size=n + 1,
             max_size=n + 1))))
@example(([2.0**60, 1.0, -(2.0**60), 2.0**-60], [1.0] * 5))
@example(([1.0, math.inf, 1.0, -math.inf], [0.5] * 5))
def test_ledger_rows_match_prefix_fsum_on_hard_terms(data):
    # rows whose cascade loses an error, and rows with NaN or +-inf flows
    # and masses, go to fsum and come out as the defining formula's
    bnet, masses = (np.array(v) for v in data)
    dts = np.ones(bnet.shape[0])
    traj = SimpleNamespace(dts=dts, boundary_net=bnet, masses=masses)

    def ledger_rows():
        led = mass_ledger(traj)
        return led.boundary_outflow, led.defects

    assert _outcome(ledger_rows) == _outcome(_ledger_oracle, dts, bnet,
                                             masses)


def test_ledger_refuses_flows_too_large_for_an_exact_grid():
    # with |flow| * (n + 2) past 2**1023 the extraction grid would
    # overflow: the ledger raises rather than round by another path
    masses = np.zeros(4)
    for big, ok in ((2.0**1019, True), (2.0**1020, False)):
        traj = SimpleNamespace(dts=np.ones(3), masses=masses,
                               boundary_net=np.array([big, -big, 1.0]))
        if ok:
            led = mass_ledger(traj)
            assert _bits(led.boundary_outflow) == _bits(
                _ledger_oracle(traj.dts, traj.boundary_net, masses)[0])
        else:
            with pytest.raises(OverflowError):
                mass_ledger(traj)


def test_ledger_calls_fsum_only_for_flagged_rows(monkeypatch):
    spec = JunctionSpec(2, 1, (quadratic_lwr(), quadratic_lwr(),
                               quadratic_lwr(2.0)))
    mesh = NetworkMesh(spec, 1e-3, np.full(3, 60))
    rng = np.random.default_rng(5)
    init = [rng.uniform(0.0, 1.0, 60) for _ in range(3)]
    traj = run(RunConfig(mesh, 0.9, 4445 * cfl_timestep(mesh, 0.9)), init,
               keep_states=False)
    assert len(traj.dts) == 4445
    flagged = []
    fsum_calls = []
    cascade, fsum = kernels.cascade_sums, math.fsum

    def spy_cascade(terms):
        sums, lost = cascade(terms)
        flagged.append(int(lost.sum()))
        return sums, lost

    def spy_fsum(terms):
        fsum_calls.append(1)
        return fsum(terms)

    monkeypatch.setattr(kernels, "cascade_sums", spy_cascade)
    monkeypatch.setattr(math, "fsum", spy_fsum)
    led = mass_ledger(traj)
    monkeypatch.undo()
    assert len(fsum_calls) <= sum(flagged) < len(traj.dts)
    assert led.max_abs_defect <= 1e-12

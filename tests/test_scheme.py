"""Network marching: discretization, CFL guard, conservation, monotonicity."""

import functools
import hashlib
import math
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
    cfg = RunConfig(mesh, 0.9, 0.5, outer_bc="dirichlet",
                    dirichlet_values=np.array([0.4, 0.1]))
    traj = run(cfg, [0.0, 0.0])
    # inflow at density 0.4: the outer cell relaxes onto the boundary datum
    # and the front has entered the road (characteristic speed f'(0.4) = 0.2)
    assert traj.final.values[0][0] == pytest.approx(0.4, abs=1e-3)
    assert traj.final.values[0][:5].min() > 0.3
    # absorbing comparison run stays empty
    empty = run(RunConfig(mesh, 0.9, 0.5), [0.0, 0.0])
    assert empty.final.values[0].max() == 0.0


def test_dirichlet_requires_values():
    mesh = small_mesh()
    with pytest.raises(ValueError):
        RunConfig(mesh, 0.9, 0.1, outer_bc="dirichlet")
    with pytest.raises(ValueError):
        RunConfig(mesh, 0.9, 0.1, outer_bc="reflecting")
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
    mesh = small_mesh()
    cfg = RunConfig(mesh, 0.9, 0.2, snapshot_times=(0.05, 0.11))
    init = [RNG.uniform(0, 1, 50), RNG.uniform(0, 1, 50)]
    full = run(cfg, [v.copy() for v in init], keep_states=True)
    lean = run(cfg, [v.copy() for v in init], keep_states=False)
    assert len(lean.states) == 2  # first and last only
    assert len(full.snapshots) == len(lean.snapshots) == 4  # 0, 2 requested, final
    for sf, sl in zip(full.snapshots, lean.snapshots):
        assert sf.time == sl.time
        for vf, vl in zip(sf.values, sl.values):
            assert (vf == vl).all()
    for vf, vl in zip(full.final.values, lean.final.values):
        assert (vf == vl).all()
    # junction log is complete in both modes
    assert (full.p_min == lean.p_min).all()
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
    traj = Trajectory(config, good.states, good.buffers, good.snapshots,
                      good.times, good.dts, good.p_min, good.p_max,
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
    # few steps, and the march's range guard stops the run at that step and
    # names the road, before a later junction solve could read the state;
    # the parabolic march keeps the same guard
    mesh = small_mesh(JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr())))
    init = [np.repeat([0.5, 0.9], 25), np.repeat([0.95, 0.1], 25)]
    cfl, parabolic = scheme.cfl_timestep, viscous.parabolic_timestep
    monkeypatch.setattr(scheme, "cfl_timestep",
                        lambda mesh, number: 3.0 * cfl(mesh, number))
    with pytest.raises(ConsistencyError, match=r"^step \d+: road \d"):
        run(RunConfig(mesh, 1.0, 0.5), init)
    monkeypatch.setattr(viscous, "parabolic_timestep",
                        lambda mesh, eps: 3.0 * parabolic(mesh, eps))
    with pytest.raises(ConsistencyError, match=r"^step \d+: road \d"):
        run_parabolic(mesh, 0.02, init, 0.5)


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
    gstar = rng.uniform(0.0, 1.0, m + n) * np.array(spec._fcrits)
    dt = 0.9 * cfl_timestep(mesh, 1.0)
    u, boundary = scheme._update(scheme._pack(mesh, values, ghosts), mesh,
                                 dt, gstar, ghosts, eps)
    want, want_boundary = _road_by_road_update(values, mesh, dt, gstar,
                                               ghosts, eps)
    for got, ref in zip(mesh._layout.views(u), want):
        assert got.tobytes() == ref.tobytes()
    assert boundary.tobytes() == want_boundary.tobytes()


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
                 {"outer_bc": "dirichlet",
                  "dirichlet_values": np.array([0.8, 0.05, 0.9])})
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
    cfg = RunConfig(small_mesh(), 0.9, 0.1, outer_bc="dirichlet",
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
    """Record the state of every junction solve the march makes."""
    real = scheme.solve_junction
    calls = []

    def spy(spec, u, *hint):
        calls.append(np.array(u, dtype=float))
        return real(spec, u, *hint)

    monkeypatch.setattr(scheme, "solve_junction", spy)
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
             {"outer_bc": "dirichlet",
              "dirichlet_values": rng.uniform(spec.rho_min, spec.rho_max,
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
    # a 2-1 LWR run whose junction state moves at every step: each solve
    # starts from the last active set and solves its piece with no gap
    # evaluation, where a cold solve takes m + n + 2 = 5
    spec = JunctionSpec(2, 1, (quadratic_lwr(), quadratic_lwr(),
                               quadratic_lwr(2.0)))
    mesh = NetworkMesh(spec, 1.0 / 200, 200)
    rng = np.random.default_rng(5)
    init = [np.repeat(rng.random(10), 20) for _ in range(3)]
    gaps, per_solve = [0], []
    real_gap, real_solve = kernels.balance_gap, scheme.solve_junction

    def gap(*args):
        gaps[0] += 1
        return real_gap(*args)

    def solve(*args):
        before = gaps[0]
        sol = real_solve(*args)
        per_solve.append(gaps[0] - before)
        return sol

    monkeypatch.setattr(kernels, "balance_gap", gap)
    monkeypatch.setattr(scheme, "solve_junction", solve)
    traj = run(RunConfig(mesh, 0.9, 0.25), init, keep_states=False)
    assert traj.junction_solves == len(per_solve) > 100
    assert sum(k == 0 for k in per_solve) >= 0.95 * len(per_solve)


def test_signed_zero_is_a_new_junction_state(monkeypatch):
    # symmetric-quadratic roads held at their crest 0.0; turning the first
    # road's junction cell to -0.0 after step 2 is a new state (held from
    # then on), which the bytes of the state tell apart and == does not.
    # The march holds the fixed point from step 2 on, so the injection
    # comes on the 2nd update; a later one would never run
    mesh = small_mesh(SYMQ21)
    adj = int(mesh._layout.adj[0])
    real = scheme._update
    steps = []

    def flip(u, *args):
        new, boundary = real(u, *args)
        steps.append(None)
        if len(steps) == 2:
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
    ghosts = config.dirichlet_values if config.outer_bc == "dirichlet" else None
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
        state = step(state, mesh, dt, config.outer_bc, ghosts)
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
    # steps 1 and 2 return their input bitwise, so the march holds from
    # step 2 on and computes only the shortened last step again
    spec = MIXED_TOPOLOGIES[label]
    mesh = small_mesh(spec)
    for k in germ_sampler(spec, 2, seed=41):
        extra = ({} if bc == "absorbing" else
                 {"outer_bc": "dirichlet", "dirichlet_values": k})
        calls = _spy_updates(monkeypatch)
        traj = run(RunConfig(mesh, 0.9, 200 * cfl_timestep(mesh, 0.9),
                             **extra), list(k))
        assert len(traj.dts) == 200
        assert len(calls) <= 3
        monkeypatch.undo()
        _assert_step_replay(traj, list(k))


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
    # a -0.0 written after step 2 leaves the buffer == its input but not
    # bitwise: steps 3 (a new junction state) and 4 (its first repeat) are
    # computed before the march holds, and a shortened last step after
    mesh = small_mesh(SYMQ21)
    adj = int(mesh._layout.adj[0])
    real = scheme._update
    steps = []

    def flip(u, *args):
        new, boundary = real(u, *args)
        steps.append(None)
        if len(steps) == 2:
            new[adj] = -0.0
        return new, boundary

    monkeypatch.setattr(scheme, "_update", flip)
    traj = run(RunConfig(mesh, 0.9, 10 * cfl_timestep(mesh, 0.9)),
               [0.0, 0.0, 0.0])
    assert len(steps) == 4 + (traj.dts[-1] != traj.dts[0])


def test_parabolic_run_holds_an_empty_network(monkeypatch):
    # on empty roads the junction value is rho_min itself, the same float
    # object at every step, so the parabolic march holds as well
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
             {"outer_bc": "dirichlet",
              "dirichlet_values": k if bc == "held" else rng.uniform(
                  spec.rho_min, spec.rho_max, spec.m + spec.n)})
    dt0 = cfl_timestep(mesh, 0.9)
    traj = run(RunConfig(mesh, 0.9, (n_steps + tail) * dt0, **extra), init)
    _assert_step_replay(traj, init)


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

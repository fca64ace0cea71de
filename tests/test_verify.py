"""Tests for the verification harness: two-solution audits, entropy
residuals, windowed L1 contraction, convergence studies, and the seeded
equilibrium samplers."""

import math
import re

import numpy as np
import pytest

from junctionflow import (ConfigError, GridState, JunctionSpec, NetworkMesh,
                          PreconditionError, RiemannProblem, RunConfig,
                          adapted_entropy_residual, bump_test_function,
                          cfl_timestep, convergence_study, custom_polynomial,
                          germ_sampler, is_germ_member, is_strict_germ_member,
                          kato_audit, l1_contraction_check,
                          nonstrict_germ_sampler, quadratic_lwr,
                          riemann_solve, run, solve_junction,
                          symmetric_quadratic, tabulated)
from junctionflow import TestFunction as WeightFn
from junctionflow import scheme, verify

RNG = np.random.default_rng(20240817)

LWR11 = JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr()))
SYMQ21 = JunctionSpec(2, 1, (symmetric_quadratic(1), symmetric_quadratic(2),
                             symmetric_quadratic(3)))
LWR21 = JunctionSpec(2, 1, (quadratic_lwr(), quadratic_lwr(1.5),
                            quadratic_lwr()))


def _run_pair(spec, dx, init_a, init_b, t_final, cfl=0.9):
    roads = spec.m + spec.n
    cells = int(round(1.0 / dx))
    mesh = NetworkMesh(spec, dx, np.full(roads, cells))
    config = RunConfig(mesh, cfl, t_final)
    return run(config, init_a), run(config, init_b)


# ---------------------------------------------------------------------------
# test weights

def test_bump_profile_shape():
    xi = bump_test_function(0.03, 0.18, reach=0.4, plateau=0.05)
    assert xi.time_profile(0.0) == 0.0
    assert xi.time_profile(0.03) == 0.0
    assert xi.time_profile(0.105) > 0.9
    assert xi.time_profile(0.18) == 0.0
    assert xi.time_profile(0.25) == 0.0
    assert xi.space_profile(0.0) == 1.0
    assert xi.space_profile(0.05) == 1.0
    assert xi.space_profile(-0.03) == 1.0
    assert xi.space_profile(0.4) == 0.0
    assert xi.space_profile(-0.7) == 0.0
    mid = xi.space_profile(0.2)
    assert 0.0 < mid < 1.0
    # falls monotonically between plateau and reach, symmetric in x
    samples = [xi.space_profile(x) for x in np.linspace(0.05, 0.4, 30)]
    assert all(a >= b - 1e-15 for a, b in zip(samples, samples[1:]))
    assert xi.space_profile(-0.2) == xi.space_profile(0.2)


def test_bump_rejects_bad_intervals():
    with pytest.raises(ValueError):
        bump_test_function(0.2, 0.1, reach=0.4, plateau=0.05)
    with pytest.raises(ValueError):
        bump_test_function(-0.1, 0.1, reach=0.4, plateau=0.05)
    with pytest.raises(ValueError):
        bump_test_function(0.0, 0.1, reach=0.05, plateau=0.05)
    with pytest.raises(ValueError):
        bump_test_function(0.0, 0.1, reach=0.04, plateau=0.05)
    # an infinite or NaN end would make the time profile NaN, and an
    # infinite reach a weight of 1 everywhere
    for t_on, t_off, reach in ((0.0, math.inf, 0.5), (0.0, math.nan, 0.5),
                               (math.nan, 0.1, 0.5), (0.0, 0.1, math.inf),
                               (0.0, 0.1, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            bump_test_function(t_on, t_off, reach=reach, plateau=0.1)


def test_time_levels_and_space_cells_sampling():
    xi = bump_test_function(0.1, 0.3, reach=0.5, plateau=0.1)
    times = np.array([0.0, 0.05, 0.2, 0.4])
    tv = xi.time_levels(times)
    assert tv[0] == 0.0 and tv[1] == 0.0 and tv[3] == 0.0 and tv[2] > 0.0
    mesh = NetworkMesh(LWR11, 0.1, np.array([10, 10]))
    xs = xi.space_cells(mesh)
    assert len(xs) == 2 and xs[0].shape == (10,) and xs[1].shape == (10,)
    # junction-adjacent cells sit on the plateau
    assert xs[0][-1] == 1.0 and xs[1][0] == 1.0
    # outermost cells sit past the reach
    assert xs[0][0] == 0.0 and xs[1][-1] == 0.0


# ---------------------------------------------------------------------------
# two-solution audit

def test_kato_identical_trajectories_is_zero():
    init = [np.full(20, 0.35), np.full(20, 0.65)]
    ta, tb = _run_pair(LWR11, 0.05, init, [v.copy() for v in init], 0.2)
    xi = bump_test_function(0.03, 0.18, reach=0.4, plateau=0.05)
    report = kato_audit(ta, tb, xi)
    assert report.value == 0.0
    assert report.passed
    assert report.tolerance == pytest.approx(1e-10 * 0.05 * 1.0 * 40)


def test_kato_constant_equilibrium_pair():
    # two exact steady states of the scheme: the audit form must stay
    # nonpositive up to rounding
    ka = np.array([0.2, 0.8])
    kb = np.array([0.3, 0.3])
    assert is_germ_member(LWR11, ka) and is_germ_member(LWR11, kb)
    ta, tb = _run_pair(LWR11, 0.05,
                       [np.full(20, ka[0]), np.full(20, ka[1])],
                       [np.full(20, kb[0]), np.full(20, kb[1])], 0.2)
    xi = bump_test_function(0.03, 0.18, reach=0.4, plateau=0.05)
    report = kato_audit(ta, tb, xi)
    assert report.value <= report.tolerance
    assert report.passed


def test_kato_random_pairs_all_topologies():
    for spec in (LWR11, SYMQ21):
        roads = spec.m + spec.n
        lo, hi = spec.rho_min, spec.rho_max
        for _ in range(3):
            init_a = [lo + (hi - lo) * RNG.random(20) for _ in range(roads)]
            init_b = [lo + (hi - lo) * RNG.random(20) for _ in range(roads)]
            ta, tb = _run_pair(spec, 0.05, init_a, init_b, 0.1)
            xi = bump_test_function(0.03, 0.09, reach=0.4, plateau=0.05)
            report = kato_audit(ta, tb, xi)
            assert report.passed, report.value


def _per_road_audit(mesh, states_a, states_b, times, dts, xi):
    """The audit form assembled road by road from the scalar Godunov flux,
    f at the outer ends and the coupled solves at the junction state;
    returns it with the sum of its terms' magnitudes, the scale of its
    rounding."""
    spec, dx = mesh.spec, mesh.dx
    m = spec.m
    tv = xi.time_levels(times)
    xs = xi.space_cells(mesh)
    x0 = xi.space_profile(0.0)
    terms = []
    for s in range(1, len(times) - 1):
        va, vb = states_a[s].values, states_b[s].values
        ua, ub = ([v[-1] for v in vals[:m]] + [v[0] for v in vals[m:]]
                  for vals in (va, vb))
        g_hi = solve_junction(spec, np.maximum(ua, ub)).fluxes
        g_lo = solve_junction(spec, np.minimum(ua, ub)).fluxes
        for h, flux in enumerate(spec.fluxes):
            hi, lo = np.maximum(va[h], vb[h]), np.minimum(va[h], vb[h])
            xi_s, xi_s1 = tv[s] * xs[h], tv[s + 1] * xs[h]
            terms.append(-dx * float(np.dot(np.abs(va[h] - vb[h]),
                                            xi_s1 - xi_s)))
            q_inner = [flux.godunov(hi[c], hi[c + 1])
                       - flux.godunov(lo[c], lo[c + 1])
                       for c in range(hi.shape[0] - 1)]
            terms.append(-dts[s] * float(np.dot(q_inner, np.diff(xi_s1))))
            end = 0 if h < m else -1
            q_outer = abs(flux.eval(hi[end]) - flux.eval(lo[end]))
            q_junction = g_hi[h] - g_lo[h]
            if h < m:
                terms.append(-dts[s] * q_outer * xi_s1[0])
                terms.append(-dts[s] * q_junction * (tv[s + 1] * x0
                                                     - xi_s1[-1]))
            else:
                terms.append(dts[s] * q_outer * xi_s1[-1])
                terms.append(-dts[s] * q_junction * (xi_s1[0]
                                                     - tv[s + 1] * x0))
    return math.fsum(terms), math.fsum(map(abs, terms))


CUBIC = custom_polynomial([0.0, 1.0, 0.0, -1.0], 0.0, 1.0, 1 / math.sqrt(3))
TABLE = tabulated(np.linspace(0.0, 1.0, 9),
                  [0.0, 0.22, 0.38, 0.47, 0.5, 0.44, 0.33, 0.18, 0.0])
AUDIT_TOPOLOGIES = (
    LWR11, SYMQ21,
    JunctionSpec(2, 3, tuple(quadratic_lwr(v)
                             for v in (1.0, 1.5, 1.0, 0.75, 1.25))),
    JunctionSpec(1, 2, (quadratic_lwr(), CUBIC, TABLE)),
    JunctionSpec(2, 2, (CUBIC, TABLE, quadratic_lwr(1.5), quadratic_lwr())),
)


@pytest.mark.parametrize("spec", AUDIT_TOPOLOGIES,
                         ids=["1-1", "2-1-symq", "2-3", "1-2-mixed",
                              "2-2-mixed"])
def test_audit_matches_per_road_reference(spec):
    # the audit runs on the scheme's flux grid (shared sweeps with per-slot
    # parameters on the LWR and symmetric-quadratic networks); the road by
    # road assembly it replaced gives the same form up to rounding
    roads = spec.m + spec.n
    lo, hi = spec.rho_min, spec.rho_max
    mesh = NetworkMesh(spec, 0.05, np.full(roads, 12))
    dt = cfl_timestep(mesh, 0.9)
    config = RunConfig(mesh, 0.9, 12 * dt)
    # reach beyond the roads: the outer ends carry weight too
    xi = bump_test_function(1.5 * dt, 11.5 * dt, reach=1.0, plateau=0.05)
    rng = np.random.default_rng(roads)
    for _ in range(4):
        ta, tb = (run(config, [lo + (hi - lo) * rng.random(12)
                               for _ in range(roads)]) for _ in range(2))
        ref, scale = _per_road_audit(mesh, ta.states, tb.states, ta.times,
                                     ta.dts, xi)
        assert scale > 0.0
        value = kato_audit(ta, tb, xi).value
        assert abs(value - ref) <= 1e-14 * scale
        k = germ_sampler(spec, 1, seed=int(rng.integers(100)))[0]
        held = [GridState(st.time_step, st.time,
                          tuple(np.full(12, kh) for kh in k))
                for st in ta.states]
        ref, scale = _per_road_audit(mesh, ta.states, held, ta.times, ta.dts,
                                     xi)
        assert scale > 0.0
        residual = adapted_entropy_residual(ta, k, xi)
        assert abs(residual + ref) <= 1e-14 * scale


@pytest.mark.parametrize("steps", [66, 67])
@pytest.mark.parametrize("spec", (LWR11, AUDIT_TOPOLOGIES[3]),
                         ids=["1-1", "1-2-mixed"])
def test_audit_in_stacks_of_64_levels_matches_the_reference(spec, steps):
    # the audited levels 1 .. steps - 1 go through in stacks of up to 64,
    # laid end to end in one buffer: 64 levels and then 1 (or 2), on a
    # network of one sweep and on one of several
    roads = spec.m + spec.n
    lo, hi = spec.rho_min, spec.rho_max
    mesh = NetworkMesh(spec, 0.05, np.full(roads, 12))
    dt = cfl_timestep(mesh, 0.9)
    config = RunConfig(mesh, 0.9, steps * dt)
    xi = bump_test_function(1.5 * dt, (steps - 0.5) * dt, reach=1.0,
                            plateau=0.05)
    rng = np.random.default_rng(steps)
    ta, tb = (run(config, [lo + (hi - lo) * rng.random(12)
                           for _ in range(roads)]) for _ in range(2))
    assert len(ta.times) == steps + 1
    ref, scale = _per_road_audit(mesh, ta.states, tb.states, ta.times,
                                 ta.dts, xi)
    assert scale > 0.0
    assert abs(kato_audit(ta, tb, xi).value - ref) <= 1e-14 * scale


@pytest.mark.parametrize("spec", (LWR21, AUDIT_TOPOLOGIES[3]),
                         ids=["2-1-lwr", "1-2-mixed"])
def test_audit_of_march_buffers_equals_packed_levels(spec):
    # the audit reads the buffers the march left, whose ghosts hold the
    # Dirichlet data of such a run; it must give, bit for bit, the form of
    # the same levels packed afresh with absorbing ghosts. The weight
    # reaches past the outer ends, so the outer interfaces count.
    roads = spec.m + spec.n
    lo, hi = spec.rho_min, spec.rho_max
    mesh = NetworkMesh(spec, 0.05, np.full(roads, 12))
    dt = cfl_timestep(mesh, 0.9)
    xi = bump_test_function(1.5 * dt, 11.5 * dt, reach=1.0, plateau=0.05)
    rng = np.random.default_rng(roads)
    k = germ_sampler(spec, 1, seed=5)[0]
    for bc in ("dirichlet", "absorbing"):
        values = lo + (hi - lo) * rng.random(roads)  # drawn in both cases
        config = RunConfig(mesh, 0.9, 12 * dt, dirichlet_values=(
            values if bc == "dirichlet" else None))
        ta, tb = (run(config, [lo + (hi - lo) * rng.random(12)
                               for _ in range(roads)]) for _ in range(2))
        packed_a, packed_b = ([scheme._pack(mesh, st) for st in t.states]
                              for t in (ta, tb))
        want = verify._assemble_audit(mesh, packed_a, packed_b, ta.times,
                                      ta.dts, xi)
        assert want != 0.0
        assert kato_audit(ta, tb, xi).value == want
        want = -verify._assemble_audit(
            mesh, packed_a, [scheme._pack(mesh, k)] * len(ta.times),
            ta.times, ta.dts, xi)
        assert adapted_entropy_residual(ta, k, xi) == want


def test_audit_never_revalidates_a_march_level(monkeypatch):
    # the levels a run keeps were validated where the data entered; only
    # the equilibrium k of the residual enters the audit from outside
    rng = np.random.default_rng(3)
    ta, tb = _run_pair(LWR21, 0.05, *([rng.random(20) for _ in range(3)]
                                     for _ in range(2)), 0.2)
    xi = bump_test_function(0.03, 0.18, reach=0.4, plateau=0.05)
    calls = []
    real = scheme.discretize_initial

    def counted(mesh, data):
        calls.append(data)
        return real(mesh, data)

    monkeypatch.setattr(scheme, "discretize_initial", counted)
    kato_audit(ta, tb, xi)
    assert calls == []
    adapted_entropy_residual(ta, germ_sampler(LWR21, 1, seed=4)[0], xi)
    assert len(calls) == 1


def test_kato_validates_meshes_and_levels():
    init = [np.full(20, 0.35), np.full(20, 0.65)]
    ta, _ = _run_pair(LWR11, 0.05, init, init, 0.2)
    xi = bump_test_function(0.03, 0.18, reach=0.4, plateau=0.05)
    other_mesh = NetworkMesh(LWR11, 0.025, np.array([40, 40]))
    tb = run(RunConfig(other_mesh, 0.9, 0.2),
             [np.full(40, 0.35), np.full(40, 0.65)])
    with pytest.raises(ConfigError):
        kato_audit(ta, tb, xi)
    # same mesh but only endpoint states recorded
    mesh = NetworkMesh(LWR11, 0.05, np.array([20, 20]))
    tc = run(RunConfig(mesh, 0.9, 0.2), init, keep_states=False)
    with pytest.raises(ConfigError):
        kato_audit(ta, tc, xi)
    # same mesh, different step sizes hence different time levels
    td = run(RunConfig(mesh, 0.8, 0.2), init)
    with pytest.raises(ConfigError):
        kato_audit(ta, td, xi)


def test_kato_precondition_checks():
    init = [np.full(20, 0.35), np.full(20, 0.65)]
    ta, tb = _run_pair(LWR11, 0.05, init, [v.copy() for v in init], 0.2)
    good = bump_test_function(0.03, 0.18, reach=0.4, plateau=0.05)
    # time profile still on at the final level
    late = bump_test_function(0.03, 0.5, reach=0.4, plateau=0.05)
    with pytest.raises(PreconditionError, match="vanish"):
        kato_audit(ta, tb, late)
    # time profile already on at the first recorded level (dt = 0.0225)
    early = bump_test_function(0.0, 0.18, reach=0.4, plateau=0.05)
    assert early.time_profile(float(ta.times[1])) > 0.0
    with pytest.raises(PreconditionError, match="vanish"):
        kato_audit(ta, tb, early)
    # plateau narrower than the junction-adjacent cell centers
    thin = bump_test_function(0.03, 0.18, reach=0.4, plateau=0.01)
    with pytest.raises(PreconditionError, match="plateau"):
        kato_audit(ta, tb, thin)
    # declared plateau not honored by the actual space profile
    crooked = WeightFn(good.time_profile, lambda x: 1.0 / (1.0 + x * x),
                       plateau=0.05)
    with pytest.raises(PreconditionError, match="flat"):
        kato_audit(ta, tb, crooked)


def test_kato_needs_two_recorded_steps():
    mesh = NetworkMesh(LWR11, 0.05, np.array([20, 20]))
    dt = 0.9 * 0.05 / 2.0
    config = RunConfig(mesh, 0.9, dt)  # a single step
    init = [np.full(20, 0.35), np.full(20, 0.65)]
    ta = run(config, init)
    tb = run(config, init)
    xi = bump_test_function(0.0, dt / 2, reach=0.4, plateau=0.05)
    with pytest.raises(PreconditionError, match="two recorded steps"):
        kato_audit(ta, tb, xi)


# ---------------------------------------------------------------------------
# entropy residual against an equilibrium

def test_residual_rejects_non_equilibrium():
    init = [np.full(20, 0.35), np.full(20, 0.65)]
    ta, _ = _run_pair(LWR11, 0.05, init, init, 0.2)
    xi = bump_test_function(0.03, 0.18, reach=0.4, plateau=0.05)
    with pytest.raises(PreconditionError):
        adapted_entropy_residual(ta, np.array([0.8, 0.2]), xi)


def test_residual_of_equilibrium_is_zero():
    k = np.array([0.2, 0.8])
    init = [np.full(20, k[0]), np.full(20, k[1])]
    ta, _ = _run_pair(LWR11, 0.05, init, init, 0.2)
    xi = bump_test_function(0.03, 0.18, reach=0.4, plateau=0.05)
    assert adapted_entropy_residual(ta, k, xi) == 0.0


def test_residual_nonnegative_for_random_data():
    xi = bump_test_function(0.03, 0.09, reach=0.4, plateau=0.05)
    for spec in (LWR11, SYMQ21):
        roads = spec.m + spec.n
        lo, hi = spec.rho_min, spec.rho_max
        mesh = NetworkMesh(spec, 0.05, np.full(roads, 20))
        tol = 1e-10 * mesh.dx * spec.span * roads * 20
        ks = germ_sampler(spec, 3, seed=7)
        for k in ks:
            init = [lo + (hi - lo) * RNG.random(20) for _ in range(roads)]
            traj = run(RunConfig(mesh, 0.9, 0.1), init)
            assert adapted_entropy_residual(traj, k, xi) >= -tol


# ---------------------------------------------------------------------------
# windowed L1 contraction

def test_contraction_matches_hand_window_and_shrinks():
    mesh = NetworkMesh(LWR11, 0.02, np.array([50, 50]))
    config = RunConfig(mesh, 0.9, 0.09)  # ten steps of 0.009
    init_a = [RNG.random(50) for _ in range(2)]
    init_b = [RNG.random(50) for _ in range(2)]
    ta, tb = run(config, init_a), run(config, init_b)
    n_steps = len(ta.states) - 1
    report = l1_contraction_check(ta, tb, window=0.3)
    k0 = 15
    assert report.window_cells[0] == k0
    assert len(report.distances) == min(n_steps, k0 - 1) + 1
    assert np.array_equal(report.window_cells,
                          k0 - np.arange(len(report.distances)))
    # recompute the first two window distances independently
    for s in (0, 1):
        cells = k0 - s
        va, vb = ta.states[s].values, tb.states[s].values
        expect = mesh.dx * (np.abs(va[0][-cells:] - vb[0][-cells:]).sum()
                            + np.abs(va[1][:cells] - vb[1][:cells]).sum())
        assert report.distances[s] == pytest.approx(expect, rel=1e-14)
    assert (np.diff(report.distances) <= report.tolerance).all()
    assert report.passed


def test_contraction_window_validation():
    mesh = NetworkMesh(LWR11, 0.02, np.array([50, 50]))
    config = RunConfig(mesh, 0.9, 0.05)
    init = [np.full(50, 0.4), np.full(50, 0.6)]
    ta, tb = run(config, init), run(config, init)
    with pytest.raises(ConfigError) as err:
        l1_contraction_check(ta, tb, window=0.01)
    assert err.value.kind == "range"
    for window in (1.5, math.nan, math.inf):
        with pytest.raises(ConfigError) as err:
            l1_contraction_check(ta, tb, window=window)
        assert err.value.kind == "range"
    other = run(RunConfig(NetworkMesh(LWR11, 0.04, np.array([25, 25])),
                          0.9, 0.05),
                [np.full(25, 0.4), np.full(25, 0.6)])
    with pytest.raises(ConfigError):
        l1_contraction_check(ta, other, window=0.3)


def test_contraction_needs_all_time_levels():
    # a lean run keeps only some levels; read as consecutive steps, its
    # final level made the distance seem to grow (0.05, then 0.055875)
    spec = JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr(1.5)))
    config = RunConfig(NetworkMesh(spec, 0.05, np.array([20, 20])), 0.9, 0.3)
    init_a, init_b = [0.35, 0.65], [0.3, 0.6]
    report = l1_contraction_check(run(config, init_a), run(config, init_b),
                                  window=0.5)
    assert report.passed and len(report.distances) > 2
    for keep_a, keep_b in ((False, False), (False, True), (True, False)):
        ta = run(config, init_a, keep_states=keep_a)
        tb = run(config, init_b, keep_states=keep_b)
        with pytest.raises(ConfigError, match="all time levels"):
            l1_contraction_check(ta, tb, window=0.5)


# ---------------------------------------------------------------------------
# convergence studies

def test_convergence_on_equilibrium_is_exact():
    problem = RiemannProblem(LWR11, np.array([0.2, 0.8]), t_final=0.2)
    report = convergence_study(problem, [1.0 / 25, 1.0 / 50])
    assert report.decreasing
    for dx, err, _ in report.rows:
        assert err <= 1e-14


def test_convergence_shock_errors_decrease():
    problem = RiemannProblem(LWR11, np.array([0.3, 0.6]), t_final=0.2)
    report = convergence_study(problem, [1.0 / 25, 1.0 / 50, 1.0 / 100])
    errs = [r[1] for r in report.rows]
    assert report.decreasing
    assert errs[0] > errs[1] > errs[2] > 0
    assert math.isnan(report.rows[0][2])
    assert report.rows[2][2] > 0.5  # near first order at the shock


def test_convergence_fine_reference():
    problem = RiemannProblem(LWR11, np.array([0.3, 0.6]), t_final=0.2)
    report = convergence_study(problem, [1.0 / 10, 1.0 / 20],
                               reference="fine")
    errs = [r[1] for r in report.rows]
    assert errs[0] > errs[1] > 0
    assert report.decreasing


@pytest.mark.parametrize("reference", ["exact", "fine"])
def test_convergence_study_needs_a_dx(reference):
    # an empty ladder was a vacuous pass ("exact") or min()'s error ("fine")
    problem = RiemannProblem(LWR11, np.array([0.3, 0.6]), t_final=0.2)
    with pytest.raises(ValueError, match="dx_list"):
        convergence_study(problem, [], reference=reference)


def test_convergence_input_validation(monkeypatch):
    problem = RiemannProblem(LWR11, np.array([0.3, 0.6]), t_final=0.2)
    with pytest.raises(ValueError):
        convergence_study(problem, [0.3])  # does not tile length 1
    with pytest.raises(ValueError):
        convergence_study(problem, [0.1], reference="bogus")
    with pytest.raises(ValueError):
        convergence_study(problem, [0.1], reference="fine", fine_dx=0.03)
    # a dx or fine_dx that is not positive and finite is refused by name
    # before any run (0 raised ZeroDivisionError, a NaN fine_dx int()'s
    # error)
    monkeypatch.setattr(verify, "run", None)  # any run would fail on this
    for bad in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^dx must be positive and "
                                             f"finite, got {bad!r}$"):
            convergence_study(problem, [0.1, bad])
        with pytest.raises(ValueError, match=f"^fine_dx must be positive and "
                                             f"finite, got {bad!r}$"):
            convergence_study(problem, [0.1], reference="fine", fine_dx=bad)
    # so is a dx or fine_dx that does not tile the road, or a fine_dx that
    # does not divide every dx (each ran a mesh or two first)
    for dx_list, fine_dx, message in (
            ([0.1], 0.03, "fine_dx must be a width that tiles length 1 "
                          "with fewer than 2**53 cells, got 0.03"),
            ([0.1, 0.3], None, "dx must be a width that tiles length 1 "
                               "with fewer than 2**53 cells, got 0.3"),
            ([0.2, 0.1], 0.04, "fine_dx must divide every dx")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convergence_study(problem, dx_list, reference="fine",
                              fine_dx=fine_dx)
    # the divisibility test is relative: on a road of 9e-13, 3e-14 is
    # 1e-14 off dividing dx = 1e-13, far inside an absolute 1e-12 (which
    # passed it on to numpy's reshape error)
    tiny = RiemannProblem(LWR11, np.array([0.3, 0.6]), t_final=0.2,
                          road_length=9e-13)
    with pytest.raises(ValueError, match="^fine_dx must divide every dx$"):
        convergence_study(tiny, [1e-13], reference="fine", fine_dx=3e-14)
    for t_final in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            RiemannProblem(LWR11, np.array([0.3, 0.6]), t_final=t_final)


def test_exact_cells_samples_similarity_solution():
    problem = RiemannProblem(LWR11, np.array([0.3, 0.6]), t_final=0.2)
    mesh = NetworkMesh(LWR11, 0.02, np.array([50, 50]))
    exact = problem.exact_cells(mesh)
    rs = riemann_solve(LWR11, problem.initial)
    # incoming road keeps its datum (the trace equals 0.3)
    np.testing.assert_allclose(exact[0], 0.3, atol=1e-12)
    # outgoing road: trace near the junction, datum 0.6 past the shock
    assert exact[1][0] == pytest.approx(rs.traces[1], abs=1e-12)
    assert exact[1][-1] == pytest.approx(0.6, abs=1e-12)
    assert (np.diff(exact[1]) >= -1e-12).all()


# ---------------------------------------------------------------------------
# samplers

def test_germ_sampler_validity_and_determinism():
    for spec in (LWR11, SYMQ21):
        states = germ_sampler(spec, 8, seed=42)
        again = germ_sampler(spec, 8, seed=42)
        other = germ_sampler(spec, 8, seed=43)
        assert len(states) == 8
        assert all(np.array_equal(a, b) for a, b in zip(states, again))
        assert any(not np.array_equal(a, b) for a, b in zip(states, other))
        for k in states:
            assert k.shape == (spec.m + spec.n,)
            assert is_germ_member(spec, k)


def test_germ_sampler_strict_only():
    # strict equilibria are generic on genuinely coupled networks; sample on
    # the two-in/one-out junction
    states = germ_sampler(SYMQ21, 6, seed=11, strict_only=True)
    for k in states:
        assert is_strict_germ_member(SYMQ21, k)


def test_germ_sampler_rejects_bad_count():
    # germ_sampler returned 3 states for 2.5 and one for True;
    # nonstrict_germ_sampler raised a TypeError for 2.5
    for count in (0, 2.5, True):
        with pytest.raises(ValueError):
            germ_sampler(LWR11, count, seed=1)
        with pytest.raises(ValueError, match="positive integer"):
            nonstrict_germ_sampler(count, seed=1)


def test_nonstrict_sampler_members_never_strict():
    family = nonstrict_germ_sampler(10, seed=3)
    again = nonstrict_germ_sampler(10, seed=3)
    assert len(family) == 10
    for (spec, k), (_, k2) in zip(family, again):
        assert np.array_equal(k, k2)
        assert is_germ_member(spec, k)
        assert not is_strict_germ_member(spec, k)
    with pytest.raises(ValueError):
        nonstrict_germ_sampler(0, seed=3)

"""Viscous layer: standing profiles, viscous runs, data smoothing."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import (
    ConfigError,
    GridState,
    JunctionSpec,
    NetworkMesh,
    PreconditionError,
    RunConfig,
    custom_polynomial,
    initial_smoothing,
    parabolic_timestep,
    quadratic_lwr,
    road_profile,
    run,
    run_parabolic,
    stationary_profile,
    step,
    symmetric_quadratic,
    tabulated,
)
from junctionflow import kernels, scheme
from junctionflow.fluxes import Flux
from junctionflow.verify import germ_sampler, nonstrict_germ_sampler
from test_junction import random_junction

RNG = np.random.default_rng(1618)

LWR11 = JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr()))
LWR23 = JunctionSpec(2, 3, (quadratic_lwr(), quadratic_lwr(v=1.5),
                            quadratic_lwr(), quadratic_lwr(v=0.75),
                            quadratic_lwr(v=1.25)))
CUBIC = custom_polynomial([0.0, 1.0, 0.0, -1.0], 0.0, 1.0,
                          1.0 / math.sqrt(3.0))
QUARTIC = custom_polynomial([0.0, 1.0, -1.0, 1.0, -1.0], 0.0, 1.0,
                            0.6058295861882684)
TABLE = tabulated([0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0],
                  [0.0, 0.15, 0.3, 0.35, 0.33, 0.2, 0.1, 0.0])


# ---------------------------------------------------------------------------
# single-road standing-wave profiles

def test_incoming_profile_relaxes_to_far_state():
    # start at the junction value 0.4, relax to 0.2 away from the junction
    dist, vals, residual, _ = road_profile(
        quadratic_lwr(), k_h=0.2, p=0.4, epsilon=0.01, window=0.5,
        incoming=True, n_samples=201)
    assert dist[0] == 0.0 and dist[-1] == 0.5
    assert vals[0] == pytest.approx(0.4, abs=1e-12)
    assert vals[-1] == pytest.approx(0.2, abs=1e-9)
    assert (np.diff(vals) <= 1e-12).all()
    assert residual <= 1e-8


def test_outgoing_profile_relaxes_upward():
    _, vals, residual, _ = road_profile(
        quadratic_lwr(), k_h=0.8, p=0.6, epsilon=0.01, window=0.5,
        incoming=False, n_samples=201)
    assert vals[0] == pytest.approx(0.6, abs=1e-12)
    assert vals[-1] == pytest.approx(0.8, abs=1e-9)
    assert (np.diff(vals) >= -1e-12).all()
    assert residual <= 1e-8


def test_constant_profile_when_states_coincide():
    _, vals, residual, _ = road_profile(quadratic_lwr(), k_h=0.3, p=0.3,
                                        epsilon=0.05, window=1.0)
    np.testing.assert_allclose(vals, np.full(vals.shape, 0.3), atol=1e-14)
    assert residual == 0.0


def test_boundary_layer_width_scales_with_epsilon():
    # distance to decay halfway shrinks proportionally to epsilon
    widths = []
    for eps in (0.04, 0.02, 0.01):
        _, vals, _, _ = road_profile(quadratic_lwr(), k_h=0.2, p=0.4,
                                     epsilon=eps, window=2.0, n_samples=4001)
        s = np.linspace(0, 2.0, 4001)
        widths.append(s[np.searchsorted(-vals, -0.3)])  # first value <= 0.3
    assert widths[0] / widths[1] == pytest.approx(2.0, rel=1e-2)
    assert widths[1] / widths[2] == pytest.approx(2.0, rel=1e-2)


def test_lwr_profile_matches_logistic_inverse():
    # for f = r (1 - r) the balance is eps rho_s = -(rho - k)(rho - kb) with
    # kb = 1 - k, up to the orientation: the logistic curve
    # (rho - k)/(rho - kb) = (p - k)/(p - kb) * exp(-|k - kb| s / eps)
    eps = 0.05
    for k, p, incoming in ((0.2, 0.4, True), (0.8, 0.6, False),
                           (0.3, 0.1, True), (0.7, 0.95, False)):
        kb = 1.0 - k
        dist, vals, residual, at_distance = road_profile(
            quadratic_lwr(), k, p, eps, 0.75, n_samples=301,
            incoming=incoming)
        e = (p - k) / (p - kb) * np.exp(-abs(k - kb) * dist / eps)
        want = (k - e * kb) / (1.0 - e)
        assert np.abs(vals - want).max() <= 1e-12
        s = np.linspace(0.0, 0.75, 1001)
        e = (p - k) / (p - kb) * np.exp(-abs(k - kb) * s / eps)
        assert np.abs(at_distance(s) - (k - e * kb) / (1.0 - e)).max() \
            <= 1e-12
        assert residual <= 1e-8


@pytest.mark.parametrize("flux", [quadratic_lwr(), CUBIC],
                         ids=["lwr", "cubic"])
def test_profiles_near_the_crest(flux):
    # k = crit - delta: the decay rate |f'(k)| / eps vanishes with delta and
    # turns algebraic at delta = 0; the profiles must not lose accuracy on
    # the way (log1p form of the pole log, kb polished as a root of Q1)
    crit = flux.rho_crit
    for incoming in (True, False):
        p = crit - 0.25 if incoming else crit + 0.25
        at_crest = None
        for delta in (0.0, 1e-4, 1e-6, 1e-8, 1e-10, 1e-13):
            k = crit - delta if incoming else crit + delta
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, vals, residual, _ = road_profile(flux, k, p, 0.05, 0.75,
                                                    incoming=incoming)
            assert residual <= 1e-8
            assert np.isfinite(vals).all()
            assert (np.diff(vals) * (k - p) >= 0.0).all()
            if delta == 0.0:
                at_crest = vals
            elif delta <= 1e-6:
                assert np.abs(vals - at_crest).max() <= 1e-10


@pytest.mark.parametrize("spec, seed, index, eps", [
    (JunctionSpec(2, 1, (QUARTIC, CUBIC, QUARTIC)), 11, 0, 0.01),
    (JunctionSpec(1, 2, (quadratic_lwr(), CUBIC, TABLE)), 11, 14, 0.05),
    (JunctionSpec(1, 2, (quadratic_lwr(), CUBIC, TABLE)), 11, 14, 0.01),
], ids=["quartic", "table-kink-0.05", "table-kink-0.01"])
def test_profile_residual_on_hard_states(spec, seed, index, eps):
    # the quartic state is stiff at eps = 0.01; on the table road the density
    # crosses the node 0.5, where rho'' jumps, inside an audit stencil
    k = germ_sampler(spec, index + 1, seed=seed, strict_only=True)[index]
    prof = stationary_profile(spec, k, eps, 0.75)
    assert prof.residuals.max() <= 1e-8
    for h, (_, dens) in enumerate(prof.samples):
        lo = min(float(k[h]), prof.p) - 1e-12
        hi = max(float(k[h]), prof.p) + 1e-12
        assert lo <= dens.min() and dens.max() <= hi


@pytest.mark.parametrize("spec", [
    JunctionSpec(1, 2, (CUBIC, TABLE, quadratic_lwr())),
    JunctionSpec(2, 1, (symmetric_quadratic(1.0), symmetric_quadratic(2.0),
                        symmetric_quadratic(3.0))),
    JunctionSpec(1, 2, (symmetric_quadratic(2.0), symmetric_quadratic(1.0),
                        symmetric_quadratic(1.5))),
], ids=["cubic-table-lwr", "symq-2-1", "symq-1-2"])
def test_profile_residuals_across_families(spec):
    for k in germ_sampler(spec, 8, seed=5, strict_only=True):
        for eps in (0.01, 0.05, 1.0):
            prof = stationary_profile(spec, k, eps, 0.75)
            assert prof.residuals.max() <= 1e-8


def test_crest_states_from_the_sampler():
    # most strict 2-3 LWR states put some road exactly at the crest 0.5,
    # where the profile decays like 1/s instead of exponentially
    crest_roads = 0
    for k in germ_sampler(LWR23, 10, seed=5, strict_only=True):
        prof = stationary_profile(LWR23, k, 0.05, 0.75)
        assert prof.residuals.max() <= 1e-8
        for h, (_, dens) in enumerate(prof.samples):
            assert np.isfinite(dens).all()
            steps = np.diff(dens)
            assert (steps >= 0.0).all() or (steps <= 0.0).all()
            if k[h] == 0.5 and prof.p != 0.5:
                crest_roads += 1
                # algebraic decay: still well short of k_h at the window
                assert abs(dens[0 if h < LWR23.m else -1] - 0.5) > 1e-3
    assert crest_roads >= 6


def test_flat_crest_rejected():
    # f = 1 - r^4 has f'' = 0 at its crest: no profile decay rate to build on
    flat = custom_polynomial([1.0, 0.0, 0.0, 0.0, -1.0], -1.0, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        road_profile(flat, 0.0, -0.3, 0.05, 0.75, incoming=True)


# ---------------------------------------------------------------------------
# network stationary profiles

def test_stationary_profile_structure():
    prof = stationary_profile(LWR11, (0.2, 0.8), epsilon=0.02, window=1.0)
    assert prof.p == pytest.approx(0.5, abs=1e-9)
    assert max(prof.residuals) <= 1e-8
    x_in = np.linspace(-1.0, 0.0, 101)
    x_out = np.linspace(0.0, 1.0, 101)
    v_in = prof.evaluate(0, x_in)
    v_out = prof.evaluate(1, x_out)
    # junction value p on both sides, far fields k_h, monotone in between
    assert v_in[-1] == pytest.approx(0.5, abs=1e-12)
    assert v_out[0] == pytest.approx(0.5, abs=1e-12)
    assert v_in[0] == pytest.approx(0.2, abs=1e-9)
    assert v_out[-1] == pytest.approx(0.8, abs=1e-9)
    assert (np.diff(v_in) >= -1e-12).all()
    assert (np.diff(v_out) >= -1e-12).all()
    lo = min(0.2, 0.5) - 1e-12
    hi = max(0.8, 0.5) + 1e-12
    assert lo <= v_in.min() and v_in.max() <= hi
    assert lo <= v_out.min() and v_out.max() <= hi


def test_profile_evaluate_refuses_a_road_out_of_range():
    # road -1 used to answer road 1's outgoing profile, road 5 IndexError
    prof = stationary_profile(LWR11, (0.2, 0.8), epsilon=0.02, window=1.0)
    for road in (-1, 2, 5):
        with pytest.raises(ValueError, match=rf"^road must be in range\(2\), "
                                             rf"got {road}$"):
            prof.evaluate(road, -0.01)


def test_profile_scaling_identity():
    # rho^eps(x) = rho^1(x / eps) for the same equilibrium state
    ref = stationary_profile(LWR11, (0.2, 0.8), epsilon=1.0, window=50.0)
    eps = 0.02
    prof = stationary_profile(LWR11, (0.2, 0.8), epsilon=eps, window=1.0)
    xs = np.linspace(-1.0, 0.0, 57)
    gap = np.abs(prof.evaluate(0, xs) - ref.evaluate(0, xs / eps)).max()
    assert gap <= 1e-8
    xs = np.linspace(0.0, 1.0, 57)
    gap = np.abs(prof.evaluate(1, xs) - ref.evaluate(1, xs / eps)).max()
    assert gap <= 1e-8


def test_explicit_witness_override():
    prof = stationary_profile(LWR11, (0.2, 0.8), epsilon=0.02, window=1.0,
                              p=0.4)
    assert prof.p == 0.4
    assert prof.evaluate(0, np.array([0.0]))[0] == pytest.approx(0.4,
                                                                 abs=1e-12)
    with pytest.raises(PreconditionError):
        # margins fail between 0.8 and 0.9: f dips under f(0.2) past 0.8
        stationary_profile(LWR11, (0.2, 0.8), epsilon=0.02, window=1.0, p=0.9)
    with pytest.raises(ValueError):
        stationary_profile(LWR11, (0.2, 0.8), epsilon=0.02, window=1.0, p=1.5)


def test_road_profile_starts_and_ends_inside_the_interval():
    # p = 2 on [0, 1] gave density 0.56 at distance 0, where the profile
    # must equal p, with a residual of 1e-13 that flagged nothing
    for k_h, p, name, bad in ((0.2, 2.0, "p", 2.0), (0.2, -0.1, "p", -0.1),
                              (1.5, 0.4, "k_h", 1.5),
                              (math.nan, 0.4, "k_h", math.nan)):
        with pytest.raises(ValueError, match=rf"^{name} must be a finite "
                                             rf"number in \[0, 1\], got "
                                             rf"{bad!r}$"):
            road_profile(quadratic_lwr(), k_h, p, 0.1, 1)
    dist, dens, _, _ = road_profile(quadratic_lwr(), 0.2, 0.4, 0.1, 1)
    assert dist[0] == 0.0 and dens[0] == 0.4


def test_road_profile_refuses_a_p_no_profile_leaves():
    # beyond the conjugate 0.8 of k_h = 0.2 no profile reaches k_h: p = 0.9
    # gave density 0.725 at distance 0 and p = 1.0 gave 0.68, with
    # residuals of 3e-13 that flagged nothing; p = 0.8 itself holds still
    for p in (0.8, 0.9, 1.0):
        with pytest.raises(PreconditionError, match=rf"^no incoming profile "
                                                    rf"leads from p={p!r} "
                                                    rf"to k_h=0.2$"):
            road_profile(quadratic_lwr(), 0.2, p, 0.1, 1)
    # an outgoing road's balance drives rho away from a k_h below the crest
    # (it used to answer the constant k_h, with residual 0)
    with pytest.raises(PreconditionError, match="^no outgoing profile"):
        road_profile(quadratic_lwr(), 0.2, 0.4, 0.1, 1, incoming=False)
    # up to the conjugate the profile starts at p
    dist, dens, _, _ = road_profile(quadratic_lwr(), 0.2, 0.79, 0.1, 1)
    assert dist[0] == 0.0 and dens[0] == 0.79


def test_non_finite_parameters_rejected():
    # unless rejected, a NaN epsilon sends the profile integration into an
    # endless loop
    mesh = NetworkMesh(LWR11, 0.05, np.array([20, 20]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            stationary_profile(LWR11, (0.2, 0.8), epsilon=bad, window=1.0)
        with pytest.raises(ValueError):
            stationary_profile(LWR11, (0.2, 0.8), epsilon=0.02, window=bad)
        with pytest.raises(ValueError):
            run_parabolic(mesh, bad, [0.2, 0.8], t_final=0.05)
        with pytest.raises(ValueError):
            run_parabolic(mesh, 0.02, [0.2, 0.8], t_final=bad)
    # a sample count must be an integer of at least 3, as germ_sampler's
    # count must be an integer (3.5 raised a bare TypeError in np.linspace)
    for bad in (3.5, 3.0, 2, True, math.nan):
        with pytest.raises(ValueError, match="^n_samples must be an integer"):
            stationary_profile(LWR11, (0.2, 0.8), epsilon=0.02, window=1.0,
                               n_samples=bad)
        with pytest.raises(ValueError, match="^n_samples must be an integer"):
            road_profile(quadratic_lwr(), 0.2, 0.4, 0.02, 1.0, n_samples=bad)


def test_profiles_require_strict_equilibrium():
    with pytest.raises(PreconditionError):
        stationary_profile(LWR11, (0.2, 0.3), epsilon=0.02, window=1.0)
    for spec, k in nonstrict_germ_sampler(10, seed=21):
        with pytest.raises(PreconditionError):
            stationary_profile(spec, k, epsilon=0.02, window=1.0)


# ---------------------------------------------------------------------------
# viscous runs: RunConfig.epsilon > 0

def viscous_run(mesh, epsilon, initial, t_final):
    """A viscous run at 0.9 of its step bound that keeps every level, for
    tests that read them all (``run_parabolic`` keeps its first and last
    level only)."""
    return run(RunConfig(mesh, 0.9, t_final, epsilon=epsilon), initial)


def test_parabolic_timestep_bounds():
    mesh = NetworkMesh(LWR11, 0.01, np.array([50, 50]))
    eps = 0.02
    dt = parabolic_timestep(mesh, eps)
    # 0.9 of the monotonicity bound 1 / (L/dx + 3 eps/dx^2), so never beyond
    # dx / L or dx^2 / 3 eps either
    assert dt <= 0.01 / 1.0 + 1e-18
    assert dt <= 0.01**2 / (3 * eps) + 1e-18
    assert dt <= 1.0 / (1.0 / 0.01 + 3 * eps / 0.01**2) * (1 + 1e-12)


def test_parabolic_step_guards_timestep():
    mesh = NetworkMesh(LWR11, 0.01, np.array([50, 50]))
    state = GridState(0, 0.0, (np.full(50, 0.3), np.full(50, 0.6)))
    limit = 1.0 / (1.0 / 0.01 + 3 * 0.02 / 0.01**2)
    with pytest.raises(ConfigError) as err:
        step(state, mesh, 1.01 * limit, epsilon=0.02)
    assert err.value.kind == "cfl"
    for bad_dt in (0.0, math.nan):
        with pytest.raises(ValueError):
            step(state, mesh, bad_dt, epsilon=0.02)
    for bad_eps in (-0.02, math.nan, math.inf):
        with pytest.raises(ValueError, match="^epsilon must be"):
            step(state, mesh, 0.9 * limit, epsilon=bad_eps)
    out = step(state, mesh, 0.9 * limit, epsilon=0.02)
    assert out.time == pytest.approx(0.9 * limit)
    assert out.time_step == 1


def test_parabolic_step_preserves_order_up_to_its_bound():
    # the bound 1/(L/dx + 3 eps/dx^2) = 1/375 binds: dx/L = 1/150 and
    # dx^2/3eps = 1/225 lie above it, and so does 1/300, where the separate
    # bounds dx/2L and dx^2/4eps meet; steps a little above the bound break
    # monotonicity (test_parabolic_bound_is_sharp)
    mesh = NetworkMesh(LWR23, 0.01, np.full(5, 10))
    eps = 0.0075
    bound = 1.0 / (1.5 / 0.01 + 3.0 * eps / 0.01**2)
    state = GridState(0, 0.0, tuple(np.full(10, 0.5) for _ in range(5)))
    with pytest.raises(ConfigError) as err:
        step(state, mesh, 0.99 * min(0.01 / 3.0, 0.01**2 / (4 * eps)),
             epsilon=eps)
    assert err.value.kind == "cfl"
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = rng.random(5)
        h = int(rng.integers(5))
        raised = [np.full(10, kh) for kh in k]
        raised[h][-1 if h < 2 else 0] += 0.5 * (1.0 - k[h])
        for dt in (bound, 0.9 * bound):
            lo = step(GridState(0, 0.0, tuple(
                np.full(10, kh) for kh in k)), mesh, dt, epsilon=eps)
            hi = step(GridState(0, 0.0, tuple(raised)), mesh, dt, epsilon=eps)
            for a, b in zip(lo.values, hi.values):
                assert (a <= b).all()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
       symmetric=st.booleans(), log_eps=st.floats(-6.0, 0.0),
       log_dx=st.floats(-2.0, 0.0))
def test_parabolic_step_is_monotone_at_its_bound(seed, m, n, symmetric,
                                                 log_eps, log_dx):
    # at exactly 1/(L/dx + 3 eps/dx^2), on every family (LWR, cubic and
    # tables from random_junction, symmetric quadratics on [-1, 1]), roads
    # of 1 to 6 cells, eps from 1e-6 to 1 and dx from 1e-2 to 1: raising
    # one cell lowers no slot of the next level, and every slot stays in
    # [A, B]
    rng = np.random.default_rng(seed)
    if symmetric:
        spec = JunctionSpec(m, n, tuple(
            symmetric_quadratic(float(rng.uniform(0.25, 3.0)))
            for _ in range(m + n)))
    else:
        spec = random_junction(seed, m, n)[0]
    eps, dx = 10.0**log_eps, 10.0**log_dx
    cells = rng.integers(1, 7, m + n)
    mesh = NetworkMesh(spec, dx, cells)
    dt = scheme._parabolic_bound(mesh, eps)
    lo, hi = spec.rho_min, spec.rho_max
    for _ in range(3):
        low = []
        for c, flux in zip(cells, spec.fluxes):
            v = lo + spec.span * rng.random(c)
            pick = rng.random(c) < 0.3  # ends and crests, where D, S kink
            v[pick] = rng.choice([lo, hi, flux.rho_crit], int(pick.sum()))
            low.append(v)
        high = [v.copy() for v in low]
        h = int(rng.integers(m + n))
        i = int(rng.integers(cells[h]))
        high[h][i] += (1.0 if rng.random() < 0.2 else rng.random()) * (
            hi - high[h][i])
        a = step(GridState(0, 0.0, tuple(low)), mesh, dt, epsilon=eps)
        b = step(GridState(0, 0.0, tuple(high)), mesh, dt, epsilon=eps)
        for va, vb in zip(a.values, b.values):
            assert (va <= vb).all()
            for v in (va, vb):
                assert v.min() >= lo and v.max() <= hi


def test_parabolic_bound_is_sharp():
    # seeded pairs of test_parabolic_step_preserves_order_up_to_its_bound
    # whose order breaks a little above the bound: at 1.1 and 1.3 times it,
    # and at 1/(L/dx + 2 eps/dx^2), which drops the junction side's extra
    # diffusive weight; the step refuses each of these dt
    mesh = NetworkMesh(LWR23, 0.01, np.full(5, 10))
    eps = 0.0075
    bound = scheme._parabolic_bound(mesh, eps)
    assert bound == 1.0 / (1.5 / 0.01 + 3.0 * eps / 0.01**2)

    def advance(values, dt):  # the step without its guard
        u = scheme._pack(mesh, GridState(0, 0.0, tuple(values)))
        gstar = scheme._visc_node(scheme._visc_pieces(mesh, eps),
                                  2.0 * eps / mesh.dx,
                                  u[mesh._layout.adj].tolist(), None)[1]
        return scheme._update(u, mesh, dt / mesh.dx, gstar,
                              np.empty_like(u), eps=eps)[0]

    for seed, dt in ((523, 1.1 * bound), (1470, 1.3 * bound),
                     (1470, 1.0 / (1.5 / 0.01 + 2.0 * eps / 0.01**2))):
        rng = np.random.default_rng(seed)
        k = rng.random(5)
        h = int(rng.integers(5))
        low = [np.full(10, kh) for kh in k]
        raised = [v.copy() for v in low]
        raised[h][-1 if h < 2 else 0] += 0.5 * (1.0 - k[h])
        assert (advance(raised, dt) - advance(low, dt)).min() < -1e-6
        with pytest.raises(ConfigError):
            step(GridState(0, 0.0, tuple(low)), mesh, dt, epsilon=eps)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
       symmetric=st.booleans(), coarse=st.booleans())
def test_parabolic_step_keeps_order_and_range(seed, m, n, symmetric, coarse):
    # at 0.9 of the monotone bound, on every family (LWR, cubic and tables
    # from random_junction, symmetric quadratics on [-1, 1]) and on coarse
    # meshes, e (m+n) below the summed Lipschitz constants (e = 2 eps/dx),
    # as well as fine ones: raising cells raises no cell of the next level
    # and every level stays in [A, B]
    rng = np.random.default_rng(seed)
    if symmetric:
        spec = JunctionSpec(m, n, tuple(
            symmetric_quadratic(float(rng.uniform(0.25, 3.0)))
            for _ in range(m + n)))
    else:
        spec = random_junction(seed, m, n)[0]
    dx, cells = 0.01, 6
    lip = sum(f.lipschitz for f in spec.fluxes)
    e = (0.2 if coarse else 5.0) * lip / (m + n)
    eps = 0.5 * e * dx
    mesh = NetworkMesh(spec, dx, np.full(m + n, cells))
    dt = parabolic_timestep(mesh, eps)
    lo, hi, slack = spec.rho_min, spec.rho_max, 1e-12 * spec.span
    for _ in range(3):
        low = [lo + spec.span * rng.random(cells) for _ in range(m + n)]
        high = [v + rng.random(cells) * (rng.random(cells) < 0.5) * (hi - v)
                for v in low]
        a = step(GridState(0, 0.0, tuple(low)), mesh, dt, epsilon=eps)
        b = step(GridState(0, 0.0, tuple(high)), mesh, dt, epsilon=eps)
        for va, vb in zip(a.values, b.values):
            assert (va <= vb).all()
            for v in (va, vb):
                assert v.min() >= lo - slack and v.max() <= hi + slack


def test_coarse_mesh_parabolic_runs_stay_in_range():
    # 2-3 LWR with e (m+n) = 2 below the summed Lipschitz constants 5.5,
    # where handing each road f_h(w) broke the maximum principle: one step
    # reached -0.027 and 1.0067, and a run left [0, 1]
    eps = 0.002
    mesh = NetworkMesh(LWR23, 0.01, np.full(5, 10))
    dt = parabolic_timestep(mesh, eps)
    rng = np.random.default_rng(0)
    for _ in range(500):
        state = GridState(0, 0.0, tuple(rng.random(10) for _ in range(5)))
        out = np.concatenate(step(state, mesh, dt, epsilon=eps).values)
        assert out.min() >= 0.0 and out.max() <= 1.0
    mesh = NetworkMesh(LWR23, 0.01, np.full(5, 50))
    rng = np.random.default_rng(10)
    traj = run_parabolic(mesh, eps, [rng.random(50) for _ in range(5)], 0.05)
    assert traj.final.time == 0.05


def test_parabolic_max_principle_and_mass():
    for spec in (LWR11, JunctionSpec(2, 1, (symmetric_quadratic(1),
                                            symmetric_quadratic(2),
                                            symmetric_quadratic(3)))):
        roads = spec.m + spec.n
        mesh = NetworkMesh(spec, 0.02, np.full(roads, 50))
        lo, hi = spec.rho_min, spec.rho_max
        init = [lo + (hi - lo) * RNG.random(50) for _ in range(roads)]
        traj = viscous_run(mesh, 0.02, init, 0.1)
        for st in traj.states:
            for v in st.values:
                assert v.min() >= lo - 1e-12
                assert v.max() <= hi + 1e-12
        # boundary_net logs net outflow, so adding the accumulated outflow
        # back should recover the initial mass
        defect = abs(traj.masses[-1] - traj.masses[0]
                     + float(np.sum(traj.dts * traj.boundary_net)))
        assert defect <= 1e-12


def test_parabolic_l1_contraction_interior():
    # identical far fields, different interiors: distance cannot grow while
    # the differences stay away from the outer ends
    mesh = NetworkMesh(LWR11, 0.02, np.array([50, 50]))
    a = [np.full(50, 0.45), np.full(50, 0.55)]
    b = [v.copy() for v in a]
    b[0][30:] = RNG.uniform(0.2, 0.8, 20)
    b[1][:20] = RNG.uniform(0.2, 0.8, 20)
    ta = viscous_run(mesh, 0.02, a, 0.05)
    tb = viscous_run(mesh, 0.02, b, 0.05)
    dists = [sum(mesh.dx * np.abs(sa.values[h] - sb.values[h]).sum()
                 for h in range(2))
             for sa, sb in zip(ta.states, tb.states)]
    assert (np.diff(dists) <= 1e-12).all()


def test_discrete_steady_state_tracks_profile():
    # the marched solution stays near the ODE profile, and the gap halves
    # with the mesh (first-order consistency at the junction closure)
    eps = 0.02
    drifts = []
    for n in (100, 200):
        mesh = NetworkMesh(LWR11, 1.0 / n, np.array([n, n]))
        prof = stationary_profile(LWR11, (0.2, 0.8), eps, window=1.0)
        init = [prof.evaluate(h, mesh.centers(h)) for h in range(2)]
        traj = run_parabolic(mesh, eps, init, t_final=0.05)
        drifts.append(max(np.abs(traj.final.values[h] - init[h]).max()
                          for h in range(2)))
    assert drifts[0] <= 3e-3
    assert drifts[1] <= 0.65 * drifts[0]


def test_parabolic_run_memory_does_not_grow_with_its_steps():
    # a run keeps its first and last level: ten times the steps on one mesh
    # add only the per-step scalar logs, far less than a buffer per step
    mesh = NetworkMesh(LWR11, 0.01, np.array([100, 100]))
    dt = parabolic_timestep(mesh, 0.02)

    def traced_peak(steps):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            traj = run_parabolic(mesh, 0.02, [0.3, 0.6], (steps - 0.5) * dt)
            assert len(traj.dts) == steps
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    short, long = traced_peak(60), traced_peak(600)
    buffer = mesh._layout.slots * 8
    assert long - short <= 0.25 * buffer * 540


def test_parabolic_run_warm_starts_its_junction_solves(monkeypatch):
    # each step hands its active set to the next, so the viscous junction
    # value is solved cold (the only path that finds the kinks) on the
    # first step and where the active piece changes, no more
    cold = [0]
    kinks = kernels._kinks

    def counted(*args):
        cold[0] += 1
        return kinks(*args)
    monkeypatch.setattr(kernels, "_kinks", counted)
    mesh = NetworkMesh(LWR11, 0.01, np.array([100, 100]))
    dt = parabolic_timestep(mesh, 0.02)
    traj = run_parabolic(mesh, 0.02, [0.3, 0.6], 300 * dt)
    assert len(traj.dts) == 300 and 1 <= cold[0] <= 3


def test_parabolic_run_leaves_the_range_check_to_the_march(monkeypatch):
    # the march's guard checks every computed level in one min/max pass,
    # so the parabolic step makes no range check of its own
    calls = []
    check = Flux._check_range

    def spy(self, *values):
        calls.append(len(values))
        return check(self, *values)
    monkeypatch.setattr(Flux, "_check_range", spy)
    mesh = NetworkMesh(LWR11, 0.02, np.array([50, 50]))
    traj = run_parabolic(mesh, 0.02, [0.3, 0.6], 0.05)
    assert len(traj.dts) > 10 and calls == []


def test_parabolic_equilibrium_junction_value():
    # marched from the profile, the junction closure reproduces the witness
    eps = 0.02
    mesh = NetworkMesh(LWR11, 0.01, np.array([100, 100]))
    prof = stationary_profile(LWR11, (0.2, 0.8), eps, window=1.0)
    init = [prof.evaluate(h, mesh.centers(h)) for h in range(2)]
    traj = run_parabolic(mesh, eps, init, t_final=0.02)
    assert (traj.p_max == traj.p_min).all()
    assert np.abs(traj.p_min - 0.5).max() <= 1e-3


# SHA-256 of a parabolic run's outputs with the upwinded junction closure:
# every road takes the Godunov flux between its adjacent cell and the
# junction value w plus the diffusive term, w the exact piecewise root,
# logged as p_min and p_max
PINNED_PARABOLIC = {
    "final": "d17821be8a3d95f8dbcfa95b1b30a7562734b9b173ea3ecb33219431ad7ea27b",
    "masses": "b5c4523e37d3049dc01f66c5ba740d19d3841d301fe4c53e410e7520a2b6d3e2",
    "junction_values":
        "8ae99b06a3c9105a04f9ac14012de540c5b8c69a04436fd81d5d4e38a7392a24",
}

# The junction values of the same run with w found by bisecting the
# closure's balance to 1e-15 of the density span at every step.
BISECTED_JUNCTION_VALUES = (
    "0x1.4b4f84d098c8cp-1", "0x1.4a4265b1833f4p-1", "0x1.49b6b82349234p-1",
    "0x1.493ab5c7854c4p-1", "0x1.48cd97ade6f5cp-1", "0x1.486bb5857af74p-1",
    "0x1.4812892bfb1a4p-1", "0x1.47c051e641194p-1", "0x1.4773d02ea6a5cp-1",
    "0x1.472c18abe59f4p-1", "0x1.46e878a502554p-1", "0x1.46a864cc9aeccp-1",
)


def _sha(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float)
                          .tobytes()).hexdigest()


def test_parabolic_run_bit_identical():
    mesh = NetworkMesh(LWR11, 0.02, np.array([50, 50]))
    init = [np.where(np.arange(50) < 25, 0.2, 0.7), 0.6]
    traj = run_parabolic(mesh, 0.02, init, t_final=0.05)
    assert len(traj.dts) == 12
    assert _sha(np.concatenate(traj.final.values)) == PINNED_PARABOLIC["final"]
    assert _sha(traj.masses) == PINNED_PARABOLIC["masses"]
    assert _sha(traj.p_min) == PINNED_PARABOLIC["junction_values"]
    assert traj.p_max.tobytes() == traj.p_min.tobytes()
    bisected = [float.fromhex(w) for w in BISECTED_JUNCTION_VALUES]
    assert np.abs(traj.p_min - bisected).max() <= 4e-15


# ---------------------------------------------------------------------------
# initial-data smoothing

def test_smoothing_documented_example():
    # width 2 -> one pass of the 3-cell average with replicated edges
    u = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    out = initial_smoothing(u, epsilon=0.2, dx=0.1)  # width round(eps/dx) = 2
    np.testing.assert_allclose(out, [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0],
                               rtol=1e-15)


def test_smoothing_preserves_mass_range_tv_l1():
    for _ in range(20):
        n = int(RNG.integers(5, 60))
        u = RNG.uniform(-1.0, 1.0, n)
        v = RNG.uniform(-1.0, 1.0, n)
        w = int(RNG.integers(1, 8))
        su = initial_smoothing(u, epsilon=1.0, width=w)
        sv = initial_smoothing(v, epsilon=1.0, width=w)
        assert su.sum() == pytest.approx(u.sum(), abs=1e-12)
        assert su.min() >= u.min() - 1e-13 and su.max() <= u.max() + 1e-13
        tv = lambda x: np.abs(np.diff(x)).sum()
        assert tv(su) <= tv(u) + 1e-12
        assert np.abs(su - sv).sum() <= np.abs(u - v).sum() + 1e-12


@pytest.mark.parametrize("epsilon, dx, name", [
    (math.inf, 0.01, "epsilon"), (math.nan, 0.01, "epsilon"),
    (-0.01, 0.01, "epsilon"), (0.1, 0.0, "dx"), (0.1, -0.01, "dx"),
    (0.1, math.nan, "dx"), (0.1, math.inf, "dx"),
    (1e300, 1e-300, "epsilon/dx"), (1.0, 2.0**-53, "epsilon/dx")])
def test_smoothing_rejects_widths_it_cannot_derive(epsilon, dx, name):
    with pytest.raises(ValueError, match=f"^{name}"):
        initial_smoothing(np.zeros(5), epsilon=epsilon, dx=dx)


@pytest.mark.parametrize("width", [2.5, 2.0, -1, True, "3", math.nan])
def test_smoothing_rejects_a_width_that_is_no_count(width):
    with pytest.raises(ValueError, match="^width must be a nonnegative "
                                         "integer"):
        initial_smoothing(np.zeros(5), epsilon=0.1, width=width)


def test_smoothing_handles_sequences_and_defaults():
    data = [RNG.uniform(0, 1, 30), RNG.uniform(0, 1, 40)]
    out = initial_smoothing(data, epsilon=0.1, dx=0.02)
    assert isinstance(out, tuple) and len(out) == 2
    assert out[0].shape == (30,) and out[1].shape == (40,)
    with pytest.raises(ValueError):
        initial_smoothing(data[0], epsilon=0.1)  # needs dx or width

"""Junction coupling: p-interval solve, equilibrium membership, Riemann fans.

The solver is checked against a from-scratch grid oracle built here: demands
and supplies as running grid maxima of the flux profiles, the coupling
interval as the sign change of the sampled balance gap.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import (
    ConsistencyError,
    JunctionSpec,
    custom_polynomial,
    dissipativity,
    is_germ_member,
    is_strict_germ_member,
    phi_in,
    phi_out,
    quadratic_lwr,
    riemann_solve,
    solve_junction,
    strict_witness,
    symmetric_quadratic,
    tabulated,
)
from junctionflow import kernels
from junctionflow.junction import _strict_margins_hold
from junctionflow.verify import germ_sampler, nonstrict_germ_sampler

RNG = np.random.default_rng(31415)

LWR11 = JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr()))
SYMQ21 = JunctionSpec(2, 1, (symmetric_quadratic(1), symmetric_quadratic(2),
                             symmetric_quadratic(3)))
LWR23 = JunctionSpec(2, 3, (quadratic_lwr(), quadratic_lwr(1.5),
                            quadratic_lwr(), quadratic_lwr(0.75),
                            quadratic_lwr(1.25)))
MIXED32 = JunctionSpec(3, 2, (
    quadratic_lwr(1.2),
    custom_polynomial([0.0, 2.4, -1.8, -1.2, 0.6], 0.0, 1.0, 0.5),
    tabulated(np.linspace(0, 1, 257),
              np.sin(np.pi * np.linspace(0, 1, 257)) * 0.3),
    quadratic_lwr(0.8),
    quadratic_lwr(1.6),
))

ALL_SPECS = [LWR11, SYMQ21, LWR23, MIXED32]

WORKED_U = (-math.sqrt(0.5), 0.25, math.sqrt(1.0 / 6.0))
WORKED_G = np.array([0.5, 2.0, 2.5])
WORKED_P = (-math.sqrt(1.0 / 6.0), 0.0)


# ---------------------------------------------------------------------------
# grid oracle

def oracle_interval_and_fluxes(spec, u, n=200001):
    """Coupling interval and fluxes from running grid maxima, no kernels."""
    grid = np.linspace(spec.rho_min, spec.rho_max, n)
    profiles = [f.eval(grid) for f in spec.fluxes]
    # supply(p) = max f on [p, B]: reverse running max; demand(p): forward
    supplies = [np.maximum.accumulate(v[::-1])[::-1] for v in profiles]
    demands = [np.maximum.accumulate(v) for v in profiles]

    gap = np.zeros(n)
    for i in range(spec.m):
        d_i = demands[i][np.searchsorted(grid, u[i])]
        gap += np.minimum(d_i, supplies[i])
    for j in range(spec.m, spec.m + spec.n):
        s_j = supplies[j][np.searchsorted(grid, u[j])]
        gap -= np.minimum(demands[j], s_j)

    below = np.flatnonzero(gap <= 0)
    above = np.flatnonzero(gap >= 0)
    assert below.size and above.size, "oracle found no sign change"
    p_lo = grid[below[0]]
    p_hi = grid[above[-1]]
    mid_idx = (below[0] + above[-1]) // 2
    fluxes = np.empty(spec.m + spec.n)
    for i in range(spec.m):
        d_i = demands[i][np.searchsorted(grid, u[i])]
        fluxes[i] = min(d_i, supplies[i][mid_idx])
    for j in range(spec.m, spec.m + spec.n):
        s_j = supplies[j][np.searchsorted(grid, u[j])]
        fluxes[j] = min(demands[j][mid_idx], s_j)
    return (p_lo, p_hi), fluxes, grid[1] - grid[0]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=["1-1", "2-1", "2-3", "3-2mixed"])
def test_solver_matches_grid_oracle(spec):
    # states drawn on the oracle's own grid, so its running maxima are exact
    # at the data and only the p-resolution h remains as slack
    grid = np.linspace(spec.rho_min, spec.rho_max, 200001)
    for _ in range(20):
        u = grid[RNG.integers(0, grid.size, spec.m + spec.n)]
        sol = solve_junction(spec, u)
        (p_lo, p_hi), g_oracle, h = oracle_interval_and_fluxes(spec, u)
        # interval endpoints to oracle-grid resolution (gap is sum-Lipschitz)
        assert sol.p_min == pytest.approx(p_lo, abs=2 * h)
        assert sol.p_max == pytest.approx(p_hi, abs=2 * h)
        slack = spec.lipschitz_max * 2 * h + 1e-12
        assert np.abs(sol.fluxes - g_oracle).max() <= slack


@pytest.mark.parametrize("spec", ALL_SPECS, ids=["1-1", "2-1", "2-3", "3-2mixed"])
def test_solution_invariants(spec):
    span = spec.span
    for _ in range(50):
        u = spec.rho_min + span * RNG.random(spec.m + spec.n)
        sol = solve_junction(spec, u)
        assert sol.p_min <= sol.p_max
        assert spec.rho_min <= sol.p_min and sol.p_max <= spec.rho_max
        total_in = math.fsum(sol.fluxes[:spec.m].tolist())
        total_out = math.fsum(sol.fluxes[spec.m:].tolist())
        assert abs(total_in - total_out) <= 1e-12 * max(1.0, abs(total_in))
        assert sol.total == pytest.approx(total_in)
        for h, f in enumerate(spec.fluxes):
            assert -1e-13 <= sol.fluxes[h] <= f.flux_max * (1 + 1e-13)


def test_worked_junction_example():
    sol = solve_junction(SYMQ21, WORKED_U)
    assert np.abs(sol.fluxes - WORKED_G).max() <= 1e-10
    assert sol.p_min == pytest.approx(WORKED_P[0], abs=1e-7)
    assert sol.p_max == pytest.approx(WORKED_P[1], abs=1e-7)
    assert sol.total == pytest.approx(2.5, abs=1e-10)


def test_solution_fluxes_are_read_only():
    # a run hands one solution to every step that repeats its junction
    # state, so a write through one step's record must not reach the others
    sol = solve_junction(SYMQ21, WORKED_U)
    with pytest.raises(ValueError):
        sol.fluxes[0] = 0.0
    with pytest.raises(ValueError):
        sol.fluxes += 1.0
    assert np.abs(sol.fluxes - WORKED_G).max() <= 1e-10


def test_interval_endpoints_are_exact():
    # the worked example's p_max is a tangential root (the second incoming
    # road demands its crest value), and the stationary shock's interval
    # is a plateau of rounding-level gaps; both come out to rounding
    sol = solve_junction(SYMQ21, WORKED_U)
    assert abs(sol.p_min - WORKED_P[0]) <= 1e-14
    assert abs(sol.p_max - WORKED_P[1]) <= 1e-14
    sol = solve_junction(LWR11, (0.2, 0.8))
    assert abs(sol.p_min - 0.2) <= 1e-14
    assert abs(sol.p_max - 0.8) <= 1e-14


def test_phi_totals_agree_inside_interval():
    sol = solve_junction(SYMQ21, WORKED_U)
    p = 0.5 * (sol.p_min + sol.p_max)
    assert phi_in(SYMQ21, WORKED_U, p) == pytest.approx(sol.total, abs=1e-10)
    assert phi_out(SYMQ21, WORKED_U, p) == pytest.approx(sol.total, abs=1e-10)


# ---------------------------------------------------------------------------
# solver properties on random junctions of LWR, cubic and tabulated roads

CUBIC = custom_polynomial([0.0, 1.0, 0.0, -1.0], 0.0, 1.0, 1.0 / math.sqrt(3))


def random_junction(seed, m, n):
    """Roads on [0, 1]: LWR of random speed, the cubic, or a random
    unimodal table; states drawn at random or at a crest, end or node."""
    rng = np.random.default_rng(seed)
    fluxes = []
    for _ in range(m + n):
        kind = rng.integers(3)
        if kind == 0:
            fluxes.append(quadratic_lwr(float(rng.uniform(0.25, 2.0))))
        elif kind == 1:
            fluxes.append(CUBIC)
        else:
            k = int(rng.integers(3, 12))
            xs = np.r_[0.0, np.sort(rng.random(k - 2)), 1.0]
            top = int(rng.integers(1, k - 1))
            ys = np.zeros(k)
            ys[top] = rng.uniform(0.1, 1.0)
            ys[1:top] = ys[top] * np.sort(rng.random(top - 1))
            ys[top + 1:k - 1] = ys[top] * np.sort(rng.random(k - 2 - top))[::-1]
            fluxes.append(tabulated(xs, ys))
    spec = JunctionSpec(m, n, tuple(fluxes))
    special = [0.0, 1.0, *(f.rho_crit for f in fluxes)]
    for f in fluxes:
        if f.code == kernels.FAMILY_TABLE:
            special.extend(f.params[1:1 + int(f.params[0])].tolist())

    def state():
        u = rng.random(m + n)
        pick = rng.random(m + n) < 0.3
        u[pick] = rng.choice(special, int(pick.sum()))
        return u
    return spec, state


def _gap(spec, u, p):
    return kernels.balance_gap(spec._codes, spec._params, spec._crits,
                               spec._fcrits, spec.m, u.tolist(), p)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3))
def test_interval_is_the_zero_set_of_the_gap(seed, m, n):
    spec, state = random_junction(seed, m, n)
    zero = 4.0 * np.finfo(float).eps * sum(spec._fcrits)
    for _ in range(2):
        u = state()
        sol = solve_junction(spec, u)  # never a ConsistencyError
        grid = np.linspace(0.0, 1.0, 2001).tolist()
        for p in grid + [sol.p_min, sol.p_max]:
            g = _gap(spec, u, p)
            if p < sol.p_min:
                assert g > -zero
            elif p > sol.p_max:
                assert g < zero
            else:
                assert abs(g) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3))
def test_junction_fluxes_are_monotone(seed, m, n):
    # the scheme is monotone only if raising one road's state never raises
    # another incoming road's junction flux nor lowers an outgoing one's
    spec, state = random_junction(seed, m, n)
    rng = np.random.default_rng(seed + 1)
    for _ in range(3):
        u = state()
        base = solve_junction(spec, u).fluxes
        for g in range(m + n):
            up = u.copy()
            up[g] += rng.random() * (1.0 - up[g])
            moved = solve_junction(spec, up).fluxes - base
            others = np.arange(m + n) != g
            assert (moved[:m][others[:m]] <= 1e-12).all()
            assert (moved[m:][others[m:]] >= -1e-12).all()


def _fill(spec, u, p):
    out = [0.0] * (spec.m + spec.n)
    kernels.fill_junction_fluxes(spec._codes, spec._params, spec._crits,
                                 spec._fcrits, spec.m, u.tolist(), p, out)
    return np.array(out)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3))
def test_junction_fluxes_conserve_and_are_constant_on_the_interval(seed, m, n):
    # filled by the kernel itself at the returned interval, apart from the
    # solver's own runtime balance check: in-sum equals out-sum, and every
    # road's flux is the same at p_min, at the midpoint and at p_max
    spec, state = random_junction(seed, m, n)
    for _ in range(3):
        u = state()
        sol = solve_junction(spec, u)
        fills = [_fill(spec, u, p) for p in
                 (sol.p_min, 0.5 * (sol.p_min + sol.p_max), sol.p_max)]
        for g in fills:
            assert abs(math.fsum(g[:m]) - math.fsum(g[m:])) <= 1e-12
            assert np.abs(g - fills[0]).max() <= 1e-12


# ---------------------------------------------------------------------------
# viscous junction value: every road meets w as it meets a neighbouring cell

def _visc_fluxes(spec, u, e, w):
    """Road by road, the Godunov flux between the junction-adjacent cell and
    w plus the diffusive flux between them."""
    return [kernels.godunov_scalar(spec._codes[h], spec._params[h],
                                   spec._crits[h], spec._fcrits[h],
                                   *((a, w) if h < spec.m else (w, a)))
            - e * ((w - a) if h < spec.m else (a - w))
            for h, a in enumerate(u)]


def _visc_balance(spec, u, e, w):
    g = _visc_fluxes(spec, u, e, w)
    return math.fsum(g[:spec.m]) - math.fsum(g[spec.m:])


def _bisect_visc_w(spec, u, e):
    """The sign bisection of the viscous balance down to 1e-15 of the span."""
    a, b = spec.rho_min, spec.rho_max
    xtol = 1e-15 * spec.span
    it = 0
    while b - a > xtol and it < 200:
        t = a + 0.5 * (b - a)
        if t <= a or t >= b:
            break
        if _visc_balance(spec, u, e, t) >= 0:
            a = t
        else:
            b = t
        it += 1
    return a + 0.5 * (b - a)


def _solve_visc_w(spec, u, e):
    return kernels.solve_visc_w(spec._codes, spec._params, spec._crits,
                                spec._fcrits, spec.m, u, e, spec.rho_min,
                                spec.rho_max)[0]


def _viscous_junction(seed, m, n, symmetric):
    """random_junction's roads (LWR, the cubic, tables), or symmetric
    quadratics on [-1, 1] with random states."""
    if not symmetric:
        return random_junction(seed, m, n)
    rng = np.random.default_rng(seed)
    spec = JunctionSpec(m, n, tuple(
        symmetric_quadratic(float(rng.uniform(0.25, 3.0)))
        for _ in range(m + n)))
    return spec, lambda: rng.uniform(-1.0, 1.0, m + n)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
       symmetric=st.booleans(), log_e=st.floats(-2.0, 2.0))
def test_viscous_junction_value_is_the_root(seed, m, n, symmetric, log_e):
    # e = 2 eps / dx from 0.01 to 100: the balance is strictly decreasing
    # for every e > 0, so its root is unique and bisection finds it too
    e = 10.0 ** log_e
    spec, state = _viscous_junction(seed, m, n, symmetric)
    for u in [state() for _ in range(3)]:
        u = u.tolist()
        w = _solve_visc_w(spec, u, e)
        assert spec.rho_min <= w <= spec.rho_max
        g = _visc_fluxes(spec, u, e, w)
        r = _visc_balance(spec, u, e, w)
        assert abs(r) <= 1e-12 * max(1.0, math.fsum(map(abs, g)))
        assert abs(w - _bisect_visc_w(spec, u, e)) <= 4e-15 * spec.span


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3))
def test_viscous_closure_tends_to_the_junction_solver(seed, m, n):
    # as e -> 0 the Godunov fluxes at w are the hyperbolic junction fluxes,
    # and for every e the balance vanishes at w to rounding
    spec, state = random_junction(seed, m, n)
    for _ in range(10):
        u = state()
        want = solve_junction(spec, u).fluxes
        u = u.tolist()
        for e in (0.0, 1e-14):
            w = _solve_visc_w(spec, u, e)
            got = _fill(spec, np.array(u), w)
            assert np.abs(got - want).max() <= 1e-12
        for e in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
            w = _solve_visc_w(spec, u, e)
            g = _visc_fluxes(spec, u, e, w)
            scale = max(1.0, math.fsum(map(abs, g)))
            assert abs(_visc_balance(spec, u, e, w)) <= 1e-12 * scale


def _stale_active_set(rng, spec):
    """A random active set: each road's term its constant (-1) or a piece
    of its flux (a random panel of a table)."""
    return tuple(-1 if rng.random() < 0.5 else
                 int(rng.integers(int(par[0]) - 1))
                 if code == kernels.FAMILY_TABLE else 0
                 for code, par in zip(spec._codes, spec._params))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
       symmetric=st.booleans(), log_e=st.floats(-2.0, 2.0))
def test_warm_viscous_solve_equals_the_cold_one(seed, m, n, symmetric, log_e):
    # the hint is the state's own active set, the one solved before (stale)
    # or a random one; e is drawn, and also set so that the root lies on a
    # kink or an ulp beside it, where a piece can hold at its own root while
    # the cold solve brackets another piece or reads an exact zero
    spec, state = _viscous_junction(seed, m, n, symmetric)
    rng = np.random.default_rng(seed)
    args = (spec._codes, spec._params, spec._crits, spec._fcrits, spec.m)
    stale = None
    for _ in range(3):
        u = state().tolist()
        es = [10.0 ** log_e]
        kinks = kernels._kinks(*args, u, spec.rho_min, spec.rho_max)[1]
        for w in kinks:
            for x in (math.nextafter(w, -math.inf), w,
                      math.nextafter(w, math.inf)):
                span = (m + n) * x - sum(u)
                e = kernels.balance_gap(*args, u, x) / span if span else 0.0
                if 1e-2 <= e <= 1e2:
                    es.append(e)
        for e in es:
            w, own = kernels.solve_visc_w(*args, u, e, spec.rho_min,
                                          spec.rho_max)
            for hint in (own, stale, _stale_active_set(rng, spec),
                         _stale_active_set(rng, spec)):
                if hint is None:
                    continue
                got, active = kernels.solve_visc_w(
                    *args, u, e, spec.rho_min, spec.rho_max, hint)
                assert got.hex() == w.hex()
                assert active is hint or active == own
            stale = own


# ---------------------------------------------------------------------------
# warm start: an active-set hint spares the scan, never changes a result

def _interval(spec, u, hint=None):
    return kernels.coupling_interval(spec._codes, spec._params, spec._crits,
                                     spec._fcrits, spec.m, u.tolist(),
                                     spec.rho_min, spec.rho_max, spec._zero,
                                     hint)


def _solution_bits(sol):
    return (sol.p_min.hex(), sol.p_max.hex(), sol.fluxes.tobytes(),
            sol.total.hex(), sol.active)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
       symmetric=st.booleans())
def test_warm_started_solve_equals_the_cold_one(seed, m, n, symmetric):
    # the hint is the state's own active set (true), that of the state
    # solved before (stale) or a random one, on all four families: LWR, the
    # cubic and tables, or symmetric quadratics, with states at a crest, an
    # end or a node; every other state is a small move of the last one, as
    # between two steps of a run
    rng = np.random.default_rng(seed)
    if symmetric:
        spec = JunctionSpec(m, n, tuple(
            symmetric_quadratic(float(rng.uniform(0.25, 3.0)))
            for _ in range(m + n)))

        def state():
            u = rng.uniform(-1.0, 1.0, m + n)
            pick = rng.random(m + n) < 0.3
            u[pick] = rng.choice([-1.0, 0.0, 1.0], int(pick.sum()))
            return u
    else:
        spec, state = random_junction(seed, m, n)
    stale = None
    u = state()
    for t in range(6):
        if t % 2:
            move = rng.normal(0.0, 1e-3 * spec.span, m + n)
            u = np.clip(u + move * (rng.random(m + n) < 0.5),
                        spec.rho_min, spec.rho_max)
        else:
            u = state()
        cold = _interval(spec, u)
        own = cold[2]
        ref = _solution_bits(solve_junction(spec, u))
        for hint in (own, stale, _stale_active_set(rng, spec),
                     _stale_active_set(rng, spec)):
            if hint is None:
                continue
            got = _interval(spec, u, hint)
            assert [float(v).hex() for v in got[:2]] == [
                float(v).hex() for v in cold[:2]]
            assert got[2] == own
            assert _solution_bits(solve_junction(spec, u, hint)) == ref
        stale = own if own is not None else stale


def test_solver_rejects_bad_states():
    with pytest.raises(ValueError):
        solve_junction(LWR11, (0.2, 1.4))
    with pytest.raises(ValueError):
        solve_junction(LWR11, (0.2,))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            solve_junction(SYMQ21, (bad, 0.5, 0.2))
        with pytest.raises(ValueError):
            solve_junction(LWR11, (0.2, bad))


def test_solver_and_candidate_share_validation():
    # solve_junction checks the state on a Python list, candidate on an
    # array: same inputs accepted, same message for each rejection
    for good in ((0.2, 0.8), [0.2, 0.8], np.array([0.2, 0.8]),
                 np.array([0.2, 0.8], dtype=np.float32), np.array([0, 1])):
        np.testing.assert_array_equal(LWR11.candidate(good),
                                      np.asarray(good, dtype=float))
        assert solve_junction(LWR11, good).p_min == solve_junction(
            LWR11, np.asarray(good, dtype=float)).p_min
    slack = 1e-12 * LWR11.span  # the range check's own slack is accepted
    LWR11.candidate((-slack, 1.0 + slack))
    solve_junction(LWR11, (-slack, 1.0 + slack))
    cases = {
        "junction state must have shape": [(0.2,), (0.2, 0.3, 0.4),
                                           [[0.2, 0.8]]],
        "junction state must be finite": [(math.nan, 0.5), (0.5, math.inf),
                                          (1.4, math.nan), (-math.inf, 2.0)],
        "junction state outside": [(0.2, 1.4), (-0.1, 0.5),
                                   (-2 * slack, 0.5)],
    }
    for message, states in cases.items():
        for bad in states:
            for check in (LWR11.candidate,
                          lambda u: solve_junction(LWR11, u)):
                with pytest.raises(ValueError, match=message):
                    check(bad)


def test_spec_construction_errors():
    with pytest.raises(ValueError):
        JunctionSpec(0, 1, (quadratic_lwr(),))
    with pytest.raises(ValueError):
        JunctionSpec(1, 1, (quadratic_lwr(),))
    with pytest.raises(ValueError):
        JunctionSpec(1, 1, (quadratic_lwr(), symmetric_quadratic()))


# ---------------------------------------------------------------------------
# equilibrium membership

def test_membership_known_cases():
    assert is_germ_member(LWR11, (0.2, 0.8), method="both")
    assert is_germ_member(LWR11, (0.3, 0.3), method="both")
    assert not is_germ_member(LWR11, (0.2, 0.3), method="both")
    assert not is_germ_member(LWR11, (0.8, 0.2), method="both")
    with pytest.raises(ValueError):
        is_germ_member(LWR11, (0.2, 0.8), method="magic")


def test_stationary_shock_is_strict():
    # both branches carry flux 0.16; any interior coupling value separates
    # the chords strictly
    w = strict_witness(LWR11, (0.2, 0.8))
    assert w is not None and 0.2 < w < 0.8
    assert is_strict_germ_member(LWR11, (0.2, 0.8))


def test_worked_traces_form_strict_equilibrium():
    rs = riemann_solve(SYMQ21, WORKED_U)
    k = rs.traces
    assert is_germ_member(SYMQ21, k, method="both")
    assert is_strict_germ_member(SYMQ21, k)
    assert not is_germ_member(SYMQ21, WORKED_U, method="both")


def test_membership_methods_agree_on_random_states():
    for spec in (LWR11, SYMQ21, LWR23):
        span = spec.span
        for _ in range(40):
            u = spec.rho_min + span * RNG.random(spec.m + spec.n)
            # "both" raises ConsistencyError if the two paths disagree
            is_germ_member(spec, u, method="both")
        for k in germ_sampler(spec, 10, seed=5):
            assert is_germ_member(spec, k, method="both")


def test_nonstrict_family_members_not_strict():
    for spec, k in nonstrict_germ_sampler(10, seed=11):
        assert is_germ_member(spec, k, method="both")
        assert not is_strict_germ_member(spec, k)


def test_sampled_equilibria_are_held_by_resolve():
    # solving again from an equilibrium reproduces its own flux values
    for spec in (LWR11, LWR23):
        for k in germ_sampler(spec, 20, seed=6):
            sol = solve_junction(spec, k)
            assert np.abs(sol.fluxes - spec.road_flux_values(k)).max() <= 1e-12


# ---------------------------------------------------------------------------
# pairwise dissipativity

def test_dissipativity_frozen_example():
    # q(0.2|0.5) - q(0.8|0.5) with f = r(1-r):
    # sign(0.2-0.5)(0.16-0.25) - sign(0.8-0.5)(0.16-0.25) = 0.09 + 0.09
    val = dissipativity(LWR11, (0.2, 0.8), (0.5, 0.5))
    assert val == pytest.approx(0.18, abs=1e-14)


def test_dissipativity_properties():
    for spec in (LWR11, SYMQ21, LWR23):
        ks = germ_sampler(spec, 15, seed=7)
        for k in ks:
            assert dissipativity(spec, k, k) == pytest.approx(0.0, abs=1e-14)
        vals = [dissipativity(spec, a, b) for a in ks for b in ks]
        assert min(vals) >= -1e-12
        sym = [abs(dissipativity(spec, a, b) - dissipativity(spec, b, a))
               for a in ks[:5] for b in ks[:5]]
        assert max(sym) <= 1e-13



def _entropy_flux_pairing(spec, k1, k2):
    """The pairing written with ``Flux.entropy_flux`` road by road."""
    terms = [f.entropy_flux(float(a), float(b))
             for f, a, b in zip(spec.fluxes, k1, k2)]
    return math.fsum(terms[:spec.m]) - math.fsum(terms[spec.m:])


@pytest.mark.parametrize("seed", range(6))
def test_dissipativity_is_the_entropy_flux_pairing_bitwise(seed):
    # LWR, cubic and tabulated roads, and symmetric-quadratic roads with
    # signed zeros; a share of the roads repeat their state, so sign(0) = 0
    # is met, and repr tells every bit apart, signed zeros too
    rng = np.random.default_rng(seed)
    cases = [random_junction(seed * 4 + i, *rng.integers(1, 4, 2))
             for i in range(4)]
    cases.append((SYMQ21, lambda: np.where(
        rng.random(3) < 0.4, rng.choice([-1.0, -0.0, 0.0, 1.0], 3),
        rng.uniform(-1.0, 1.0, 3))))
    for spec, draw in cases:
        for _ in range(40):
            k1 = draw()
            k2 = np.where(rng.random(k1.shape[0]) < 0.3, k1, draw())
            assert (repr(dissipativity(spec, k1, k2))
                    == repr(_entropy_flux_pairing(spec, k1, k2)))

# ---------------------------------------------------------------------------
# junction Riemann solutions

def test_riemann_traces_are_equilibria():
    for spec in ALL_SPECS:
        span = spec.span
        for _ in range(15):
            u0 = spec.rho_min + span * RNG.random(spec.m + spec.n)
            rs = riemann_solve(spec, u0)
            assert is_germ_member(spec, rs.traces, tol=1e-8)


def test_riemann_sample_limits():
    rs = riemann_solve(LWR11, (0.8, 0.2))
    assert rs.traces == pytest.approx([0.5, 0.5], abs=1e-7)
    t = 0.25
    # far field: data; at the junction: traces
    assert rs.sample(0, np.array([-10.0]) / t)[0] == pytest.approx(0.8)
    assert rs.sample(1, np.array([10.0]) / t)[0] == pytest.approx(0.2)
    assert rs.sample(0, np.array([0.0]))[0] == pytest.approx(rs.traces[0], abs=1e-7)
    assert rs.sample(1, np.array([0.0]))[0] == pytest.approx(rs.traces[1], abs=1e-7)


def test_riemann_rarefaction_profile_monotone():
    rs = riemann_solve(LWR11, (0.8, 0.2))
    xi = np.linspace(0.0, 3.0, 301)
    vals = rs.sample(1, xi)
    assert (np.diff(vals) <= 1e-12).all()          # decays toward 0.2
    assert vals[0] == pytest.approx(0.5, abs=1e-7)  # sonic value at the junction
    mid = rs.sample(1, np.array([0.2]))[0]          # inside the fan: f'(u) = xi
    assert 1.0 - 2.0 * mid == pytest.approx(0.2, abs=1e-10)


def test_riemann_shock_position():
    # (0.3, 0.6): junction passes demand 0.21; the outgoing road carries a
    # single shock at chord speed (f(0.6)-f(0.21->0.3 branch))/(0.6-0.3) = 0.1
    rs = riemann_solve(LWR11, (0.3, 0.6))
    assert rs.traces == pytest.approx([0.3, 0.3], abs=1e-12)
    t = 1.0
    ahead = rs.sample(1, np.array([0.11]) / t)[0]
    behind = rs.sample(1, np.array([0.09]) / t)[0]
    assert behind == pytest.approx(0.3, abs=1e-12)
    assert ahead == pytest.approx(0.6, abs=1e-12)


def test_riemann_on_equilibrium_is_constant():
    for spec in (LWR11, LWR23):
        for k in germ_sampler(spec, 10, seed=8):
            rs = riemann_solve(spec, k)
            assert rs.traces == pytest.approx(k, abs=1e-12)
            for h in range(spec.m + spec.n):
                xi = np.linspace(-2, 0, 64) if h < spec.m else np.linspace(0, 2, 64)
                assert rs.sample(h, xi) == pytest.approx(np.full(64, k[h]),
                                                         abs=1e-12)


def test_riemann_samples_stay_in_range():
    for spec in ALL_SPECS:
        span = spec.span
        for _ in range(10):
            u0 = spec.rho_min + span * RNG.random(spec.m + spec.n)
            rs = riemann_solve(spec, u0)
            for h in range(spec.m + spec.n):
                sgn = -1.0 if h < spec.m else 1.0
                xi = sgn * np.linspace(0.0, 4.0, 101) * spec.lipschitz_max
                vals = rs.sample(h, np.sort(xi))
                assert vals.min() >= spec.rho_min - 1e-12
                assert vals.max() <= spec.rho_max + 1e-12


def test_membership_rejects_bad_tol():
    # NaN fails every comparison, so an unchecked tol let the chord path
    # accept (0.2, 0.3), which is no equilibrium, with witness 0.2
    for bad in (math.nan, math.inf, 0.0, -1.0):
        for method in ("godunov", "oleinik", "both"):
            with pytest.raises(ValueError, match="tol must be positive"):
                is_germ_member(LWR11, (0.2, 0.3), tol=bad, method=method)
        with pytest.raises(ValueError, match="tol must be positive"):
            strict_witness(LWR11, (0.2, 0.3), tol=bad)
        with pytest.raises(ValueError, match="tol must be positive"):
            is_strict_germ_member(LWR11, (0.2, 0.3), tol=bad)


# ---------------------------------------------------------------------------
# exact chord predicates against a dense-grid oracle

def _oriented(spec, h, kh, p):
    """+1 where road h's flux must rise from k_h toward p, -1 where it must
    fall."""
    return 1.0 if (p > kh) == (h < spec.m) else -1.0


def oracle_member_margin(spec, k, tol, n=20001):
    """Margin of the chord membership test on a dense grid of each interval
    between k_h and p_min; the state is a member when it is >= 0."""
    fk = [f.eval(float(x)) for f, x in zip(spec.fluxes, k)]
    margin = tol - abs(math.fsum(fk[:spec.m]) - math.fsum(fk[spec.m:]))
    p = solve_junction(spec, k).p_min
    for h, f in enumerate(spec.fluxes):
        kh = float(k[h])
        if kh != p:
            s = np.linspace(kh, p, n)
            worst = (_oriented(spec, h, kh, p) * (f.eval(s) - fk[h])).min()
            margin = min(margin, worst + tol)
    return margin


def oracle_strict_margins(spec, k, p, tol, n=20001):
    """(least oriented f(s) - f(k_h) over a dense grid of every punctured
    interval (k_h, p], least oriented margin at p minus tol); strict at p
    when both are > 0."""
    least, at_p = math.inf, math.inf
    for h, f in enumerate(spec.fluxes):
        kh = float(k[h])
        if kh != p:
            sgn = _oriented(spec, h, kh, p)
            s = np.linspace(kh, p, n)[1:]
            least = min(least, (sgn * (f.eval(s) - f.eval(kh))).min())
            at_p = min(at_p, sgn * (f.eval(p) - f.eval(kh)) - tol)
    return least, at_p


def _oracle_states(spec, rng, count):
    """Random states, sampled equilibria, and both with roads moved to a
    crest, an end or a table node."""
    special = [spec.rho_min, spec.rho_max, *(f.rho_crit for f in spec.fluxes)]
    for f in spec.fluxes:
        if f.code == kernels.FAMILY_TABLE:
            special.extend(f.params[1:1 + int(f.params[0])].tolist())
    states = [spec.rho_min + spec.span * rng.random(spec.m + spec.n)
              for _ in range(count)]
    states += germ_sampler(spec, count, seed=int(rng.integers(2**31)))
    for u in states[:]:
        v = u.copy()
        pick = rng.random(v.size) < 0.3
        v[pick] = rng.choice(special, int(pick.sum()))
        states.append(v)
    return states


ORACLE_SPECS = ALL_SPECS + [random_junction(s, 2, 2)[0] for s in (3, 4)]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=[
    "1-1", "2-1", "2-3", "3-2mixed", "rand3", "rand4"])
def test_chord_predicates_match_grid_oracle(spec):
    # the exact predicates may only disagree with the grid where the grid's
    # own margin lies within tol of the decision boundary
    tol = 1e-9
    rng = np.random.default_rng(2718)
    for k in _oracle_states(spec, rng, 15):
        margin = oracle_member_margin(spec, k, tol)
        if is_germ_member(spec, k, tol=tol, method="oleinik") != (margin >= 0):
            assert abs(margin) <= tol, (k, margin)
        sol = solve_junction(spec, k)
        for p in {sol.p_min, sol.p_max, 0.5 * (sol.p_min + sol.p_max),
                  *k.tolist()}:
            least, at_p = oracle_strict_margins(spec, k, p, tol)
            want = least > 0 and at_p > 0
            if _strict_margins_hold(spec, k, p, tol) != want:
                assert abs(at_p) <= tol, (k, p, least, at_p)


# ---------------------------------------------------------------------------
# germ theory: a state the membership test rejects dissipates against its
# own Riemann traces, and a member is its own Riemann solution

def _germ_theory_junction(seed, m, n, symmetric):
    if not symmetric:
        return random_junction(seed, m, n)
    rng = np.random.default_rng(seed)
    spec = JunctionSpec(m, n, tuple(symmetric_quadratic(
        float(rng.uniform(0.25, 3.0))) for _ in range(m + n)))

    def state():
        u = rng.uniform(-1.0, 1.0, m + n)
        pick = rng.random(m + n) < 0.3
        u[pick] = rng.choice([-1.0, 0.0, 1.0], int(pick.sum()))
        return u
    return spec, state


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
       n=st.integers(1, 3), symmetric=st.booleans())
def test_rejected_states_dissipate_against_their_traces(seed, m, n, symmetric):
    # random states are mostly rejected; their traces are members
    spec, state = _germ_theory_junction(seed, m, n, symmetric)
    for _ in range(5):
        u = state()
        for k in (u, riemann_solve(spec, u).traces):
            traces = riemann_solve(spec, k).traces
            if is_germ_member(spec, k):
                assert np.abs(traces - k).max() <= 1e-12
            else:
                assert dissipativity(spec, k, traces) < 0.0


# ---------------------------------------------------------------------------
# Riemann fans against a brute-force envelope

# bell-shaped and convex on [0, 1/6]: its fans mix shocks and rarefactions
INFLECTED = custom_polynomial([0.0, 1.0, 1.0, -2.0], 0.0, 1.0,
                              (1.0 + math.sqrt(7.0)) / 6.0)
FAN_SPECS = ALL_SPECS + [
    random_junction(7, 2, 2)[0],
    JunctionSpec(1, 2, (INFLECTED, CUBIC, INFLECTED)),
    JunctionSpec(2, 1, (INFLECTED, quadratic_lwr(), INFLECTED)),
]


@pytest.mark.parametrize("spec", FAN_SPECS, ids=[
    "1-1", "2-1", "2-3", "3-2mixed", "rand7", "inflected-1-2",
    "inflected-2-1"])
def test_riemann_fans_match_brute_force_envelope(spec):
    # with (left, right) = (far state, trace) on an incoming road and
    # (trace, far state) on an outgoing one, u(xi) is the argmin over
    # [left, right] of f - xi*x when left < right, the argmax otherwise; the
    # brute force on a 200,001-point grid lands within one grid step of it,
    # and a polynomial state strictly between the ends satisfies f'(u) = xi
    rng = np.random.default_rng(1618)
    for _ in range(6):
        u0 = spec.rho_min + spec.span * rng.random(spec.m + spec.n)
        rs = riemann_solve(spec, u0)
        for h, f in enumerate(spec.fluxes):
            far, trace = float(u0[h]), float(rs.traces[h])
            left, right = (far, trace) if h < spec.m else (trace, far)
            grid = np.linspace(min(left, right), max(left, right), 200001)
            fg = f.eval(grid)
            sgn = -1.0 if h < spec.m else 1.0
            xis = sgn * np.r_[0.0, spec.lipschitz_max * rng.random(12)]
            got = rs.sample(h, xis)
            for xi, u in zip(xis.tolist(), got.tolist()):
                g = fg - xi * grid
                want = grid[np.argmin(g) if left < right else np.argmax(g)]
                assert abs(u - want) <= grid[1] - grid[0] + 1e-15
                if f.code != kernels.FAMILY_TABLE and u not in (far, trace):
                    assert abs(f.derivative(u) - xi) <= 1e-12


def test_riemann_sample_is_scalar_for_scalars():
    rs = riemann_solve(LWR11, (0.8, 0.2))
    assert isinstance(rs.sample(1, 0.2), float)
    assert isinstance(rs.sample(1, np.float64(0.2)), float)
    assert rs.sample(1, 0.2) == rs.sample(1, np.array([0.2]))[0]
    assert rs.sample(1, np.zeros((2, 3))).shape == (2, 3)
    # xi off the road's half-line reads the junction trace
    assert rs.sample(0, 5.0) == rs.sample(0, 0.0) == rs.traces[0]

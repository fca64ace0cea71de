"""Flux families: construction, demand/supply, Godunov flux, branch lookups.

Every closed-form value asserted here is checked against a brute-force grid
oracle built in this file, independent of the package's own kernels.
"""

import math

import numpy as np
import pytest

from junctionflow import (
    branch_point,
    conjugate,
    custom_polynomial,
    quadratic_lwr,
    symmetric_quadratic,
    tabulated,
)

RNG = np.random.default_rng(20240817)


def grid_demand(flux, a, n=20001):
    """Max of f over [rho_min, a] on a dense grid."""
    s = np.linspace(flux.rho_min, a, n)
    return float(flux.eval(s).max())


def grid_supply(flux, b, n=20001):
    """Max of f over [b, rho_max] on a dense grid."""
    s = np.linspace(b, flux.rho_max, n)
    return float(flux.eval(s).max())


def grid_godunov(flux, a, b, n=20001):
    """Textbook two-point monotone flux: min of f between ordered arguments,
    max between swapped ones."""
    if a <= b:
        return float(flux.eval(np.linspace(a, b, n)).min())
    return float(flux.eval(np.linspace(b, a, n)).max())


@pytest.fixture(scope="module", params=["lwr", "lwr-wide", "symq", "poly", "table"])
def any_flux(request):
    if request.param == "lwr":
        return quadratic_lwr()
    if request.param == "lwr-wide":
        return quadratic_lwr(v=2.5, rho_max=3.0)
    if request.param == "symq":
        return symmetric_quadratic(2.0)
    if request.param == "poly":
        # quartic bell on [0, 1]; its derivative vanishes only at 1/2
        return custom_polynomial([0.0, 2.4, -1.8, -1.2, 0.6],
                                 rho_min=0.0, rho_max=1.0, rho_crit=0.5)
    xs = np.linspace(0.0, 1.0, 401)
    return tabulated(xs, np.sin(np.pi * xs) * (1.2 - xs) / 1.2)


def test_endpoints_vanish(any_flux):
    f = any_flux
    assert abs(f.eval(f.rho_min)) <= 1e-12 * f.flux_max
    assert abs(f.eval(f.rho_max)) <= 1e-12 * f.flux_max


def test_crest_is_max(any_flux):
    f = any_flux
    s = np.linspace(f.rho_min, f.rho_max, 20001)
    vals = f.eval(s)
    assert f.flux_max >= vals.max() - 1e-9 * f.flux_max
    assert abs(f.eval(f.rho_crit) - f.flux_max) <= 1e-9 * f.flux_max


def test_lipschitz_bound_holds(any_flux):
    f = any_flux
    s = np.linspace(f.rho_min, f.rho_max, 20001)
    slopes = np.abs(np.diff(f.eval(s)) / np.diff(s))
    assert slopes.max() <= f.lipschitz * (1 + 1e-9)


def test_demand_supply_match_grid_oracle(any_flux):
    f = any_flux
    # grid-oracle resolution: second order at a smooth crest, first order
    # when the underlying profile has kinks between the oracle's grid points
    step = (f.rho_max - f.rho_min) / 20000
    tol = 1e-7 * f.flux_max if f.family != "tabulated" else f.lipschitz * step
    for x in np.linspace(f.rho_min, f.rho_max, 41):
        assert f.demand(x) == pytest.approx(grid_demand(f, x), abs=tol)
        assert f.supply(x) == pytest.approx(grid_supply(f, x), abs=tol)


def test_demand_supply_monotone(any_flux):
    f = any_flux
    s = np.linspace(f.rho_min, f.rho_max, 2001)
    d = np.array([f.demand(x) for x in s])
    q = np.array([f.supply(x) for x in s])
    assert (np.diff(d) >= -1e-14 * f.flux_max).all()
    assert (np.diff(q) <= 1e-14 * f.flux_max).all()


def test_godunov_matches_minmax_oracle(any_flux):
    f = any_flux
    span = f.rho_max - f.rho_min
    tol = f.lipschitz * span / 1e4  # one oracle-grid cell of slack
    ab = f.rho_min + span * RNG.random((200, 2))
    for a, b in ab:
        assert f.godunov(a, b) == pytest.approx(grid_godunov(f, a, b, 10001),
                                                abs=tol)


def test_godunov_consistency_and_monotone(any_flux):
    f = any_flux
    s = np.linspace(f.rho_min, f.rho_max, 101)
    for x in s:
        assert f.godunov(x, x) == pytest.approx(f.eval(x), abs=1e-12 * f.flux_max)
    # nondecreasing in the first argument, nonincreasing in the second
    a = f.rho_min + (f.rho_max - f.rho_min) * RNG.random(50)
    b = f.rho_min + (f.rho_max - f.rho_min) * RNG.random(50)
    g = np.array([[f.godunov(x, y) for y in np.sort(b)] for x in np.sort(a)])
    assert (np.diff(g, axis=0) >= -1e-13 * f.flux_max).all()
    assert (np.diff(g, axis=1) <= 1e-13 * f.flux_max).all()


def test_known_lwr_values():
    # frozen closed-form values for f(r) = r (1 - r)
    f = quadratic_lwr()
    assert f.rho_crit == pytest.approx(0.5)
    assert f.flux_max == pytest.approx(0.25)
    assert f.godunov(0.3, 0.3) == pytest.approx(0.21, abs=1e-15)
    assert f.godunov(0.2, 0.8) == pytest.approx(0.16, abs=1e-15)
    assert f.godunov(0.8, 0.2) == pytest.approx(0.25, abs=1e-15)
    assert f.godunov(0.2, 0.3) == pytest.approx(0.16, abs=1e-15)
    assert f.godunov(0.6, 0.9) == pytest.approx(0.09, abs=1e-15)
    assert f.demand(0.7) == pytest.approx(0.25, abs=1e-15)
    assert f.supply(0.7) == pytest.approx(0.21, abs=1e-15)


def test_symmetric_quadratic_values():
    # f(r) = h (1 - r^2) on [-1, 1]: crest h at 0, Lipschitz constant 2h
    f = symmetric_quadratic(3.0)
    assert (f.rho_min, f.rho_max) == (-1.0, 1.0)
    assert f.rho_crit == 0.0
    assert f.flux_max == pytest.approx(3.0)
    assert f.lipschitz == pytest.approx(6.0)
    assert f.eval(0.5) == pytest.approx(2.25)


def test_entropy_flux_matches_definition(any_flux):
    f = any_flux
    span = f.rho_max - f.rho_min
    for _ in range(50):
        u, k = f.rho_min + span * RNG.random(2)
        want = np.sign(u - k) * (f.eval(u) - f.eval(k))
        assert f.entropy_flux(u, k) == pytest.approx(want, abs=1e-14 * f.flux_max)


def test_branch_point_inverts_flux(any_flux):
    f = any_flux
    for y in np.linspace(0.0, f.flux_max, 23)[1:-1]:
        lo = branch_point(f, y, "rising")
        hi = branch_point(f, y, "falling")
        assert f.rho_min <= lo <= f.rho_crit <= hi <= f.rho_max
        assert f.eval(lo) == pytest.approx(y, abs=1e-9 * f.flux_max)
        assert f.eval(hi) == pytest.approx(y, abs=1e-9 * f.flux_max)


def test_conjugate_swaps_branches():
    f = quadratic_lwr()
    assert conjugate(f, 0.2) == pytest.approx(0.8, abs=1e-12)
    assert conjugate(f, 0.8) == pytest.approx(0.2, abs=1e-12)
    assert conjugate(f, 0.5) == pytest.approx(0.5, abs=1e-12)
    g = symmetric_quadratic(2.0)
    assert conjugate(g, -0.25) == pytest.approx(0.25, abs=1e-12)


def test_branch_point_rejects_bad_requests():
    f = quadratic_lwr()
    with pytest.raises(ValueError):
        branch_point(f, 0.3, "rising")  # above the crest value
    with pytest.raises(ValueError):
        branch_point(f, 0.1, "sideways")


def test_nan_density_rejected(any_flux):
    # NaN fails every comparison, so a range check written as "min < lo or
    # max > hi" lets it through (godunov([nan], [0.2]) read the crest)
    f = any_flux
    mid = 0.5 * (f.rho_min + f.rho_max)
    calls = [(f.eval, "rho"), (f.demand, "a"), (f.supply, "b"),
             (f.derivative, "rho"), (lambda x: f.godunov(x, mid), "a"),
             (lambda x: f.godunov(mid, x), "b"),
             (lambda x: f.entropy_flux(x, mid), "u"),
             (lambda x: f.entropy_flux(mid, x), "k")]
    for call, name in calls:
        for bad in (np.nan, np.array([np.nan]), np.array([mid, np.nan, mid])):
            with pytest.raises(ValueError, match=rf"^{name} must be (a finite "
                                                 rf"number|finite numbers) "
                                                 rf"in \["):
                call(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build, name", [
    (lambda x: quadratic_lwr(v=x), "v"),
    (lambda x: quadratic_lwr(rho_max=x), "rho_max"),
    (lambda x: symmetric_quadratic(h=x), "h")])
def test_construction_rejects_non_finite_parameters(build, name, value):
    # v <= 0 is False for NaN, so a NaN or infinite parameter used to build
    # a flux whose Riemann solution answered NaN fluxes
    with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                         f"finite, got {value!r}$"):
        build(value)


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        quadratic_lwr(v=0.0)
    with pytest.raises(ValueError):
        quadratic_lwr(rho_max=-1.0)
    with pytest.raises(ValueError):
        symmetric_quadratic(0.0)
    with pytest.raises(ValueError):
        # no interior crest: f = r on [0, 1] rises monotonically
        custom_polynomial([0.0, 1.0], rho_min=0.0, rho_max=1.0, rho_crit=0.5)
    with pytest.raises(ValueError):
        # endpoint value far from zero
        custom_polynomial([0.5, 1.0, -1.0], rho_min=0.0, rho_max=1.0,
                          rho_crit=0.5)
    xs = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        tabulated(xs, np.ones(11))  # flat profile, no bell shape
    with pytest.raises(ValueError):
        tabulated(xs[::-1], xs * (1 - xs))  # decreasing abscissae


@pytest.mark.parametrize("offset", [3.5e-4, -3.5e-4, 1e-9])
def test_polynomial_crest_off_the_maximizer_rejected(offset):
    # f = r - r^3 peaks at 1/sqrt(3); 3.5e-4 from there is within the
    # sampling grid's 1.5 steps, yet demand would fall between the two
    root = 1.0 / math.sqrt(3.0)
    with pytest.raises(ValueError, match="rho_crit"):
        custom_polynomial([0.0, 1.0, 0.0, -1.0], 0.0, 1.0, root + offset)
    assert custom_polynomial([0.0, 1.0, 0.0, -1.0], 0.0, 1.0,
                             root).rho_crit == root

# every polynomial flux the tests and the benchmark build, with the crest,
# crest value and Lipschitz bound it has always been built with, bit for bit
POLYNOMIALS = [
    ([0.0, 1.0, 0.0, -1.0], 0.0, 1.0, 1.0 / math.sqrt(3.0),
     0.38490017945975047, 2.0),
    ([0.0, 2.4, -1.8, -1.2, 0.6], 0.0, 1.0, 0.5, 0.6375, 2.4),
    ([1.0, 0.0, 0.0, 0.0, -1.0], -1.0, 1.0, 0.0, 1.0, 4.0),
    ([0.0, 1.0, -1.0, 1.0, -1.0], 0.0, 1.0, 0.6058295861882684,
     0.32644677652359, 2.0),
    ([0.0, 1.0, 1.0, -2.0], 0.0, 1.0, (1.0 + math.sqrt(7.0)) / 6.0,
     0.5281529477305951, 3.0),
]


@pytest.mark.parametrize("coeffs, lo, hi, crit, crest, lip", POLYNOMIALS)
def test_polynomial_builds_are_unchanged(coeffs, lo, hi, crit, crest, lip):
    f = custom_polynomial(coeffs, lo, hi, crit)
    assert f.rho_crit.hex() == float(crit).hex()
    assert float(f.flux_max).hex() == crest.hex()
    assert f.lipschitz.hex() == lip.hex()
    # the bound is max |f'|: a dense grid reaches it and never exceeds it
    s = np.linspace(lo, hi, 200001)
    top = np.abs(f.derivative(s)).max()
    assert top <= lip * (1 + 1e-15) and top >= lip * (1 - 1e-9)


def test_polynomial_lipschitz_bound_inside_the_interval():
    # f = x(1 - x) + 3 x^2 (1 - x)^2: |f'| peaks where f'' changes sign
    # inside (0, 1), above both end values |f'(0)| = |f'(1)| = 1
    f = custom_polynomial([0.0, 1.0, 2.0, -6.0, 3.0], 0.0, 1.0, 0.5)
    s = np.linspace(0.0, 1.0, 200001)
    top = float(np.abs(f.derivative(s)).max())
    assert top > 1.2
    assert top <= f.lipschitz <= top * (1 + 1e-9)


def test_polynomial_with_two_critical_points_rejected():
    # f = x(1 - x)(1 - 2x) vanishes at both ends but falls below zero after
    # its first critical point and rises again
    for crit in ((3.0 - math.sqrt(3.0)) / 6.0, (3.0 + math.sqrt(3.0)) / 6.0,
                 0.5):
        with pytest.raises(ValueError):
            custom_polynomial([0.0, 1.0, -3.0, 2.0], 0.0, 1.0, crit)
    with pytest.raises(ValueError, match="rise strictly then fall"):
        custom_polynomial([0.0, 1.0, -3.0, 2.0], 0.0, 1.0,
                          (3.0 - math.sqrt(3.0)) / 6.0)
    with pytest.raises(ValueError, match="finite"):
        custom_polynomial([0.0, math.inf, -1.0], 0.0, 1.0, 0.5)


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 0.5, math.inf], [0.0, 1.0, 0.0]),
    ([-math.inf, 0.5, 1.0], [0.0, 1.0, 0.0]),
    ([0.0, 0.5, 1.0], [0.0, math.inf, 0.0]),
    ([0.0, 0.5, 1.0], [0.0, math.nan, 0.0])])
def test_tabulated_rejects_nodes_that_are_not_finite(xs, ys):
    # an infinite end node was accepted, and a junction of two such roads
    # took density bounds (-inf, inf) and solved; an infinite crest gave
    # flux_max inf
    with pytest.raises(ValueError, match="finite nodes"):
        tabulated(xs, ys)


def test_tabulated_plateau_at_crest_rejected():
    xs = np.linspace(0.0, 1.0, 101)
    ys = np.minimum(xs * (1 - xs), 0.2)  # clipped: flat stretch at the top
    with pytest.raises(ValueError):
        tabulated(xs, ys)


def test_nld_flag():
    assert quadratic_lwr().satisfies_nld
    assert symmetric_quadratic().satisfies_nld

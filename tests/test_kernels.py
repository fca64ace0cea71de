"""Numeric kernels: scalar and vectorized paths agree bitwise, the balance
gap is monotone, the polynomial root solver is exact where it must be, and
the exact sum is fsum bit for bit."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import JunctionSpec, quadratic_lwr, symmetric_quadratic, tabulated
from junctionflow import kernels

RNG = np.random.default_rng(99)


def _family_args(name):
    if name == "lwr":
        f = quadratic_lwr(v=1.3, rho_max=2.0)
    elif name == "symq":
        f = symmetric_quadratic(1.7)
    else:
        xs = np.linspace(0.0, 1.0, 257)
        f = tabulated(xs, np.sin(np.pi * xs) ** 1.0 * (1.1 - xs))
    spec = JunctionSpec(1, 1, (f, f))
    return (f, spec._codes[0], spec._params[0], spec._crits[0],
            spec._fcrits[0])


def test_array_twins_match_scalar_loop():
    for name in ("lwr", "symq", "table"):
        f, code, par, crit, fcrit = _family_args(name)
        a = f.rho_min + f.span * RNG.random(257)
        b = f.rho_min + f.span * RNG.random(257)
        fv = kernels.flux_array(code, par, a)
        dv = kernels.demand_array(code, par, crit, fcrit, a)
        sv = kernels.supply_array(code, par, crit, fcrit, b)
        gv = kernels.godunov_array(code, par, crit, fcrit, a, b)
        for i in range(a.shape[0]):
            assert fv[i] == kernels.flux_scalar(code, par, a[i])
            assert dv[i] == kernels.demand_scalar(code, par, crit, fcrit, a[i])
            assert sv[i] == kernels.supply_scalar(code, par, crit, fcrit, b[i])
            assert gv[i] == kernels.godunov_scalar(code, par, crit, fcrit,
                                                   a[i], b[i])


def test_interface_sweep_matches_pointwise():
    f, code, par, crit, fcrit = _family_args("lwr")
    u_ext = f.rho_min + f.span * RNG.random(130)
    out = np.empty(129)
    kernels.interface_fluxes(code, par, crit, fcrit, u_ext, out)
    for k in range(129):
        assert out[k] == kernels.godunov_scalar(code, par, crit, fcrit,
                                                u_ext[k], u_ext[k + 1])


def test_balance_gap_nonincreasing_in_p():
    spec = JunctionSpec(2, 3, (quadratic_lwr(), quadratic_lwr(1.5),
                               quadratic_lwr(), quadratic_lwr(0.75),
                               quadratic_lwr(1.25)))
    for _ in range(20):
        u = RNG.random(5)
        ps = np.linspace(0.0, 1.0, 513)
        gaps = [kernels.balance_gap(spec._codes, spec._params, spec._crits,
                                    spec._fcrits, spec.m, u, p) for p in ps]
        assert (np.diff(gaps) <= 1e-14).all()


def test_poly_root_pieces():
    # a double root comes out exact, where bisection on the sign of a flat
    # polynomial would stop sqrt(eps) away from it
    assert kernels.poly_root([0.0625, -0.5, 1.0], 0.25, 1.0) == 0.25
    assert kernels.poly_root([0.0, 0.0, -2.0], 0.0, 0.7) == 0.0
    # the cancellation-free branch keeps a tiny root to full relative accuracy
    # (the root of x - x^2 = 1e-12 is 1e-12 + 1e-24 + O(1e-36))
    r = kernels.poly_root([-1e-12, 1.0, -1.0], 0.0, 0.5)
    assert abs(r / (1e-12 + 1e-24) - 1.0) <= 4 * np.finfo(float).eps
    # degree 3: Horner bisection down to a few ulps of the bracket
    ref = [x.real for x in np.roots([-1.0, 0.0, 1.0, -0.3])
           if abs(x.imag) == 0.0 and 0.0 <= x.real <= 1.0 / math.sqrt(3.0)]
    got = kernels.poly_root([-0.3, 1.0, 0.0, -1.0], 0.0, 1.0 / math.sqrt(3.0))
    assert len(ref) == 1 and abs(got - ref[0]) <= 8 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# exact summation: bit-identical to fsum, on both sides of the extraction cut

def _fsum_outcome(fn, x):
    """The bits of the result (value and sign of zero), or the exception."""
    try:
        return fn(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_matches_fsum(x):
    assert (_fsum_outcome(kernels.exact_sum, x)
            == _fsum_outcome(lambda a: math.fsum(a.tolist()), x))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n=st.integers(0, 3 * kernels._TAIL), seed=st.integers(0, 2**32 - 1),
       lo=st.integers(-300, 300), spread=st.integers(0, 600),
       kind=st.sampled_from(["plain", "cancel", "subnormal", "zeros",
                             "special"]))
def test_exact_sum_matches_fsum(n, seed, lo, spread, kind):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(lo, min(lo + spread, 300),
                                                     n)
    if kind == "cancel":  # x and -x shuffled: the exact sum is 0
        x = rng.permutation(np.concatenate([x[:n // 2], -x[:n // 2]]))
    elif kind == "subnormal":
        x = np.ldexp(rng.standard_normal(n), rng.integers(-1100, -1000, n))
    elif kind == "zeros":
        x = np.copysign(np.zeros(n), rng.standard_normal(n))
    elif kind == "special" and n:
        x[rng.integers(n, size=3)] = rng.choice([np.nan, np.inf, -np.inf], 3)
    _assert_matches_fsum(x)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 60))
def test_exact_sum_matches_fsum_on_tiled_floats(terms, reps):
    # any doubles, incl. nan, +-inf, -0.0, subnormals and values near the
    # overflow threshold, repeated past the extraction cut
    _assert_matches_fsum(np.tile(np.array(terms), reps))


def test_exact_sum_edge_cases():
    big = np.full(2 * kernels._TAIL, 1e308)
    assert _fsum_outcome(kernels.exact_sum, big) is OverflowError
    tie = np.concatenate([[1.0, 2.0**-53, 2.0**-106],
                          np.zeros(2 * kernels._TAIL)])
    assert kernels.exact_sum(tie) == 1.0 + 2.0**-52  # rounds the exact sum

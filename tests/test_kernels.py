"""Numeric kernels: scalar and vectorized paths agree bitwise, the balance
gap is monotone, the polynomial root solver is exact where it must be, the
exact row sums are fsum's bit for bit, and the ledger's prefix layers are
exact and its row rounding is fsum's wherever it does not flag a row."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junctionflow import (JunctionSpec, NetworkMesh, RunConfig, cfl_timestep,
                          custom_polynomial, quadratic_lwr, run, run_parabolic,
                          symmetric_quadratic, tabulated)
from junctionflow import kernels

RNG = np.random.default_rng(99)


FAMILIES = ("lwr", "symq", "poly", "table")


def _family_args(name):
    """A flux of the family and the scalar kernels' arguments for it, as a
    JunctionSpec prepares them (tuples of Python floats)."""
    if name == "lwr":
        f = quadratic_lwr(v=1.3, rho_max=2.0)
    elif name == "symq":
        f = symmetric_quadratic(1.7)
    elif name == "poly":
        f = custom_polynomial([0.0, 1.0, 0.0, -1.0], 0.0, 1.0,
                              1.0 / math.sqrt(3.0))
    else:
        xs = np.linspace(0.0, 1.0, 257)
        f = tabulated(xs, np.sin(np.pi * xs) ** 1.0 * (1.1 - xs))
    spec = JunctionSpec(1, 1, (f, f))
    return (f, *spec._roads[0])


def test_array_twins_match_scalar_loop():
    # the array flux reads Flux.params, the scalar kernel the spec's tuples;
    # the array Godunov flux is the sweep, checked pointwise below
    for name in FAMILIES:
        f, code, par, _, _ = _family_args(name)
        a = f.rho_min + f.span * RNG.random(257)
        fv = kernels.flux_array(code, f.params, a)
        for i in range(a.shape[0]):
            assert fv[i] == kernels.flux_scalar(code, par, a[i])
        # Flux.entropy_flux hands it 0-d arrays, which the LWR flux's
        # in-place steps must take as well as whole roads
        got = kernels.flux_array(code, f.params, np.array(a[0]))
        assert np.ndim(got) == 0 and got == kernels.flux_scalar(code, par,
                                                                a[0])
    # a sweep's LWR parameters, with the exact reciprocal -1/R of R = 2
    got = kernels.flux_array(kernels.FAMILY_LWR, (1.3, 2.0, -0.5),
                             np.array([0.7, 1.1]))
    assert got.tolist() == [kernels.flux_scalar(kernels.FAMILY_LWR,
                                                (1.3, 2.0), x)
                            for x in (0.7, 1.1)]


def test_interface_sweep_matches_pointwise():
    for name in FAMILIES:
        f, code, par, crit, fcrit = _family_args(name)
        u_ext = f.rho_min + f.span * RNG.random(130)
        u_ext[::7] = f.rho_crit  # cells at the crest feed both branches
        u_ext[3::11] = math.nan  # a NaN cell reads as the crest on both
        out = np.empty(129)
        kernels.interface_fluxes(code, f.params, np.full(130, crit),
                                 np.full(130, fcrit), u_ext, out)
        for k in range(129):
            assert out[k] == kernels.godunov_scalar(code, par, crit, fcrit,
                                                    u_ext[k], u_ext[k + 1])


@pytest.mark.parametrize("family, size", [
    ("lwr", 1.0), ("lwr", 2.0), ("lwr", 0.7), ("lwr", 1.3), ("symq", 1.0)])
def test_layout_sweep_matches_the_scalar_kernels(family, size):
    # the sweep as the march calls it, with the layout's own arguments: one
    # crest density and (LWR) one rho_max R per sweep, with -1/R where R is
    # a power of two, and per-slot v (or h) and crest flux; each interface
    # is the scalar kernels' Godunov flux bit for bit, NaN cells and cells
    # exactly at the crest included
    speeds = (1.0, 2.5, 0.75)
    fluxes = [quadratic_lwr(v, size) if family == "lwr"
              else symmetric_quadratic(v) for v in speeds]
    spec = JunctionSpec(2, 1, fluxes)
    counts = np.array([300, 200, 400])
    layout = NetworkMesh(spec, 0.01, counts)._layout
    (first, stop, code, par, crit, fcrit), = layout.sweeps
    assert np.shape(crit) == () and crit == fluxes[0].rho_crit
    if family == "lwr":
        exact = size in (1.0, 2.0)
        assert np.shape(par[1]) == () and par[1] == size
        assert len(par) == 2 + exact and (not exact or par[2] == -1.0 / size)
    else:
        assert len(par) == 1
    sizes = counts + 1  # cells and a ghost; road m-1 holds the pad
    sizes[spec.m - 1] += 1
    owner = np.repeat(np.arange(3), sizes)
    u = spec.rho_min + spec.span * RNG.random(layout.slots)
    u[::5] = crit
    u[3::7] = math.nan
    out = np.empty(stop - first - 1)
    kernels.interface_fluxes(code, par, crit, fcrit, u[first:stop], out)
    roads = spec._roads
    for k in range(out.shape[0]):
        left, right = roads[owner[k]], roads[owner[k + 1]]
        if left is right:
            want = kernels.godunov_scalar(*left, u[k], u[k + 1])
        else:  # a junction interface, which the update overwrites
            d = kernels.demand_scalar(*left, u[k])
            s = kernels.supply_scalar(*right, u[k + 1])
            want = d if d <= s else s
        assert out[k] == want, (k, u[k], u[k + 1])


def test_balance_gap_nonincreasing_in_p():
    spec = JunctionSpec(2, 3, (quadratic_lwr(), quadratic_lwr(1.5),
                               quadratic_lwr(), quadratic_lwr(0.75),
                               quadratic_lwr(1.25)))
    for _ in range(20):
        u = RNG.random(5)
        ps = np.linspace(0.0, 1.0, 513)
        consts = kernels.road_constants(spec._roads, spec.m, u)
        gaps = [kernels.balance_gap(spec._roads, spec.m, consts, p)
                for p in ps]
        assert (np.diff(gaps) <= 1e-14).all()


def test_balance_gap_from_road_constants_is_the_godunov_sum():
    # the gap from precomputed road constants is the sum of godunov_scalar
    # terms in road order, bit for bit, at random points, crests and ends
    for name in FAMILIES:
        f = _family_args(name)[0]
        spec = JunctionSpec(2, 2, (f, f, f, f))
        args = (spec._roads, 2)
        special = [f.rho_min, f.rho_max, f.rho_crit]
        for _ in range(20):
            u = (f.rho_min + f.span * RNG.random(4)).tolist()
            u[RNG.integers(4)] = special[RNG.integers(3)]
            consts = kernels.road_constants(*args, u)
            for p in [*special, *(f.rho_min + f.span * RNG.random(5))]:
                want = 0.0
                for h in range(4):
                    a, b = (u[h], p) if h < 2 else (p, u[h])
                    term = kernels.godunov_scalar(*spec._roads[h], a, b)
                    want = want + term if h < 2 else want - term
                got = kernels.balance_gap(*args, consts, p)
                assert got.hex() == want.hex()


# The tabulated panel searches as np.searchsorted wrote them on ndarray
# parameters, kept as the oracle for the bisect searches on tuples

def _oracle_piece_coeffs(code, par, x):
    if code != kernels.FAMILY_TABLE:
        return (par.tolist() if code == kernels.FAMILY_POLY
                else kernels._piece_coeffs(code, par, x))
    xs, ys = kernels._table(par)
    k = min(max(int(np.searchsorted(xs, x, side="right")) - 1, 0),
            xs.shape[0] - 2)
    slope = float((ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]))
    return [float(ys[k] - xs[k] * slope), slope]


def _oracle_branch_point(code, par, crit, fcrit, y, edge):
    if y >= fcrit:
        return crit
    if y <= 0.0:
        return edge
    lo, hi = (edge, crit) if edge < crit else (crit, edge)
    if code != kernels.FAMILY_TABLE:
        c = _oracle_piece_coeffs(code, par, crit)
        c[0] -= y
        return kernels.poly_root(c, lo, hi)
    xs, ys = kernels._table(par)
    top = int(np.searchsorted(xs, crit))
    if edge < crit:
        k = int(np.searchsorted(ys[:top + 1], y)) - 1
    else:
        k = top + int(np.searchsorted(-ys[top:], -y)) - 1
    k = min(max(k, 0), xs.shape[0] - 2)
    x = xs[k] + (y - ys[k]) * ((xs[k + 1] - xs[k]) / (ys[k + 1] - ys[k]))
    return min(max(float(x), lo), hi)


def _hexes(values):
    return [float(v).hex() for v in values]


# a left/right slip at an exact node value moves the result by one rounding
# in about 1 of 200 node hits, hence the many examples
@settings(derandomize=True, deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       family=st.sampled_from(FAMILIES))
def test_panel_searches_match_searchsorted(seed, n, family):
    rng = np.random.default_rng(seed)
    if family == "table":  # a random unimodal table on random nodes
        xs = np.sort(rng.uniform(-1.0, 2.0, n))
        top = int(rng.integers(1, n - 1))
        ys = np.zeros(n)
        ys[top] = rng.uniform(0.1, 2.0)
        ys[1:top] = ys[top] * np.sort(rng.random(top - 1))
        ys[top + 1:n - 1] = ys[top] * np.sort(rng.random(n - 2 - top))[::-1]
        f = tabulated(xs, ys)
        spec = JunctionSpec(1, 1, (f, f))
        code, par, crit, fcrit = spec._roads[0]
    else:
        f, code, par, crit, fcrit = _family_args(family)
        xs = ys = np.empty(0)
    # node values exactly, where left and right searches part ways
    x_probe = np.r_[xs, f.rho_min + f.span * rng.random(n), f.rho_crit]
    y_probe = np.r_[ys, f.flux_max * rng.random(n), 0.0, f.flux_max]
    for x in x_probe.tolist():
        want = _oracle_piece_coeffs(code, f.params, x)
        assert _hexes(kernels._piece_coeffs(code, par, x)) == _hexes(want)
    for y in y_probe.tolist():
        for edge in (f.rho_min, f.rho_max):
            want = _oracle_branch_point(code, f.params, crit, fcrit, y, edge)
            for p in (par, f.params):  # the junction's tuple, Flux's ndarray
                got = kernels.branch_point(code, p, crit, fcrit, y, edge)
                assert float(got).hex() == float(want).hex()


def _is_float_tuple(values):
    return type(values) is tuple and all(type(v) is float for v in values)


def _is_road(road):
    return (type(road) is tuple and len(road) == 4 and type(road[0]) is int
            and _is_float_tuple(road[1]) and _is_float_tuple(road[2:]))


def _is_active_set(hint):
    return type(hint) is tuple and all(type(k) is int for k in hint)


def test_junction_kernels_get_python_floats(monkeypatch):
    # numpy scalars in the coupling kernels would pay numpy's dispatch on
    # every operation without changing a bit of the result
    seen = set()
    gap_calls = [0]
    gap_evals = []  # balance_gap calls made by each solve_visc_w

    def spy(name):
        real = getattr(kernels, name)

        def checked(*args):
            if name in ("solve_visc_w", "warm_roots"):
                # (pieces, state, base, hint) or (pieces, states, hints,
                # bases): a state is a list of floats, a hint an active set
                pieces = args[0]
                roads, m = pieces.roads, pieces.m
                assert _is_float_tuple((pieces.lo, pieces.hi, pieces.slope))
                if name == "solve_visc_w":
                    assert len(args) == 4
                    states, hints, bases = [args[1]], [args[3]], [args[2]]
                else:
                    states, hints, bases = args[1:]
                    assert type(states) is list and type(hints) is list
                    assert type(bases) is list
                assert all(type(u) is list and all(type(v) is float
                                                   for v in u)
                           for u in states)
                assert all(type(b) is float for b in bases)
                assert all(h is None or _is_active_set(h) for h in hints)
            else:
                roads, m, third = args[:3]
                # road_constants takes the state, the rest its constants
                assert type(third) is list and all(type(v) is float
                                                   for v in third)
            assert type(roads) is tuple and all(map(_is_road, roads))
            assert type(m) is int
            if name == "road_constants":
                assert len(args) == 3
            if name == "coupling_interval":  # (..., base, slope, lo, hi, zero)
                assert len(args) == 8 and _is_float_tuple(args[3:8])
            seen.add(name)
            before = gap_calls[0]
            out = real(*args)
            if name == "solve_visc_w":
                gap_evals.append(gap_calls[0] - before)
            return out
        monkeypatch.setattr(kernels, name, checked)

    for name in ("road_constants", "coupling_interval",
                 "fill_junction_fluxes", "solve_visc_w", "warm_roots"):
        spy(name)
    balance_gap = kernels.balance_gap

    def counted(*args):
        gap_calls[0] += 1
        return balance_gap(*args)
    monkeypatch.setattr(kernels, "balance_gap", counted)
    f = tabulated(np.linspace(0.0, 1.0, 9),
                  [0.0, 0.22, 0.38, 0.47, 0.5, 0.44, 0.33, 0.18, 0.0])
    spec = JunctionSpec(1, 2, (quadratic_lwr(), custom_polynomial(
        [0.0, 1.0, 0.0, -1.0], 0.0, 1.0, 1.0 / math.sqrt(3.0)), f))
    mesh = NetworkMesh(spec, 0.1, np.full(3, 10))
    run(RunConfig(mesh, 0.9, 5 * cfl_timestep(mesh, 0.9)), [0.3, 0.6, 0.2])
    run_parabolic(mesh, 0.05, [0.3, 0.6, 0.2], 0.02)
    assert seen == {"road_constants", "coupling_interval",
                    "fill_junction_fluxes", "solve_visc_w", "warm_roots"}
    # the viscous junction value is an exact piecewise root: a bisection
    # over the 3 sorted kinks, the balance at one end at most, then a
    # bisection over the 9 table nodes, never a bisection to a tolerance
    bound = math.ceil(math.log2(3 + 1)) + 1 + math.ceil(math.log2(9 + 1))
    assert gap_evals and max(gap_evals) <= bound


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


def test_real_roots_edge_cases():
    # no sign change: constants, the zero polynomial, roots only at the ends
    assert kernels.real_roots([2.0], 0.0, 1.0) == []
    assert kernels.real_roots([0.0, 0.0, 0.0], 0.0, 1.0) == []
    assert kernels.real_roots([0.0, 1.0, -1.0], 0.0, 1.0) == []
    # (x - 1/2)^2 vanishes exactly on the split point 1/2, where c' changes
    # sign, with c > 0 on both sides: no sign change, no root
    assert kernels.real_roots([0.25, -1.0, 1.0], 0.0, 1.0) == []
    # a triple root changes sign; closed forms for degree <= 2
    (r,) = kernels.real_roots([0.0, 0.0, 0.0, 1.0], -1.0, 1.0)
    assert abs(r) <= 4 * np.finfo(float).eps
    assert kernels.real_roots([-0.3, 1.0], 0.0, 1.0) == [0.3]
    assert kernels.real_roots([0.5, 0.0, -2.0], -1.0, 1.0) == [-0.5, 0.5]
    # trailing zero coefficients lower the degree
    assert kernels.real_roots([-0.3, 1.0, 0.0, 0.0], 0.0, 1.0) == [0.3]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(simple=st.lists(st.floats(-0.5, 1.5), min_size=0, max_size=5),
       pair=st.tuples(st.floats(0.0, 1.0), st.floats(0.1, 1.0)),
       scale=st.floats(-10.0, 10.0).filter(lambda s: abs(s) >= 0.1))
def test_real_roots_finds_every_sign_change(simple, pair, scale):
    # simple roots inside (0, 1) are found, in order, and no others; the
    # factor (x - u)^2 + v^2 adds critical points but no real root
    pts = sorted(simple)
    if any(b - a < 0.05 for a, b in zip(pts, pts[1:])):
        return
    u, v = pair
    poly = np.polynomial.polynomial
    c = scale * poly.polymul(poly.polyfromroots(pts),
                             [u * u + v * v, -2.0 * u, 1.0])
    want = [r for r in pts if 0.01 < r < 0.99]
    if len(want) != sum(0.0 < r < 1.0 for r in pts):
        return  # a root too close to an end to tell which side it lies on
    got = kernels.real_roots(c.tolist(), 0.0, 1.0)
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-9 for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# exact row sums: bit-identical to fsum, in blocks of one row and of several

def _outcome(fn, *args):
    """The bits of fn(*args) (value and sign of zero, for each float of a
    list), or the type of the exception it raises."""
    try:
        got = fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return [g.hex() for g in got] if isinstance(got, list) else got.hex()


def _fsum_rows(rows):
    return [math.fsum(row) for row in rows]


def _blocks(x):
    """x as a block of one row, as the march sums a level that fills the
    block alone, and as the first row of a block of three, with -x
    reversed and x / 2 (a row whose top is not the block's)."""
    return x[None, :], np.stack([x, -x[::-1], 0.5 * x])


def _assert_row_sums_match_fsum(x, top=None):
    """row_sums of both blocks of x, the tops max|row| or top for every
    row, are fsum's row by row, or raise what fsum raises."""
    for block in _blocks(x):
        tops = (np.abs(block).max(axis=1, initial=0.0).tolist()
                if top is None else [top] * block.shape[0])
        assert (_outcome(kernels.row_sums, block, tops)
                == _outcome(_fsum_rows, block.tolist()))


class _FsumSpy:
    """math as ``kernels`` sees it, keeping every row that ``row_sums``
    leaves to fsum: its rounding test sums tuples, the fallback a row's
    list."""

    def __init__(self):
        self.rows = []

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, terms):
        if isinstance(terms, list):
            self.rows.append(terms)
        return math.fsum(terms)


def _fallback(monkeypatch, block):
    """row_sums of block with the tops max|row|, checked against fsum, and
    the rows it left to fsum."""
    spy = _FsumSpy()
    monkeypatch.setattr(kernels, "math", spy)
    got = kernels.row_sums(block, np.abs(block).max(axis=1).tolist())
    monkeypatch.undo()
    assert [g.hex() for g in got] == _outcome(_fsum_rows, block.tolist())
    return got, spy.rows


SUM_KINDS = ("plain", "cancel", "subnormal", "zeros", "special")


def _at_march_sizes(test):
    """Every kind also at the sizes of a fine mesh (12,000 cells) and
    beyond, on a narrow and on the widest range of magnitudes."""
    for n in (12_000, 50_000):
        for kind in SUM_KINDS:
            for lo, spread in ((-2, 3), (-300, 600)):
                test = example(n=n, seed=n + lo, lo=lo, spread=spread,
                               kind=kind)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n=st.integers(0, 1536), seed=st.integers(0, 2**32 - 1),
       lo=st.integers(-300, 300), spread=st.integers(0, 600),
       kind=st.sampled_from(SUM_KINDS))
@_at_march_sizes
def test_row_sums_match_fsum(n, seed, lo, spread, kind):
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
    _assert_row_sums_match_fsum(x)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 60))
def test_row_sums_match_fsum_on_tiled_floats(terms, reps):
    # any doubles, incl. nan, +-inf, -0.0, subnormals and values near the
    # overflow threshold, where sigma would overflow and fsum may raise
    _assert_row_sums_match_fsum(np.tile(np.array(terms), reps))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n=st.integers(1, 1536), seed=st.integers(0, 2**32 - 1),
       lo=st.integers(-320, 280),
       kind=st.sampled_from(("plain", "cancel", "subnormal", "zeros")),
       bound=st.sampled_from(("max", "power of two", "2**20 max")))
@example(n=1, seed=1, lo=0, kind="plain", bound="max")
@example(n=1536, seed=1, lo=0, kind="plain", bound="2**20 max")
def test_row_sums_with_any_bound_match_fsum(n, seed, lo, kind, bound):
    # any top >= max|x| stands in for max|x|: the exact max, the next power
    # of two and 2**20 times the max all give fsum's sum bit for bit, with
    # -0.0, subnormals and mixed signs
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(lo, lo + 20, n)
    if kind == "cancel":  # x and -x shuffled: the exact sum is 0
        x = rng.permutation(np.concatenate([x[:(n + 1) // 2], -x[:n // 2]]))
    elif kind == "subnormal":
        x = np.ldexp(rng.standard_normal(n), rng.integers(-1100, -1000, n))
    elif kind == "zeros":
        x = np.copysign(np.zeros(n), rng.standard_normal(n))
    pick = rng.random(n) < 0.05
    x[pick] = rng.choice([-0.0, 5e-324, -(2.0**-1070)], int(pick.sum()))
    top = float(np.abs(x).max())
    top = {"max": top,
           "power of two": math.ldexp(1.0, math.frexp(top)[1]),
           "2**20 max": top * 2.0**20}[bound]
    assert top >= float(np.abs(x).max())
    _assert_row_sums_match_fsum(x, top)


def test_row_sums_edge_cases(monkeypatch):
    # sigma would overflow: fsum's own overflow is raised
    big = np.full(1024, 1e308)
    for block in _blocks(big):
        assert _outcome(kernels.row_sums, block,
                        [1e308] * block.shape[0]) is OverflowError
    tie = np.concatenate([[1.0, 2.0**-53, 2.0**-106], np.zeros(1024)])
    for block in _blocks(tie):
        assert _fallback(monkeypatch, block)[0][0] == 1.0 + 2.0**-52
    # exact ties on 16,385 nonzero cells, shuffled: 1 + 2**-53 (8,192
    # cells of 2**-66) is half way between two floats, and 8,192 cells of
    # 2**-119 (2**-106 in all) break the tie. A tie never passes the
    # rounding test, so fsum rounds every row of either block
    rng = np.random.default_rng(7)
    for tail, want in ((0.0, 1.0), (2.0**-119, 1.0 + 2.0**-52)):
        x = rng.permutation(np.concatenate([
            [1.0], np.full(8192, 2.0**-66), np.full(8192, tail),
            np.full(3000, 0.25), np.full(3000, -0.25)]))
        assert np.count_nonzero(x) > 12_000
        for block in _blocks(x):
            got, fallback = _fallback(monkeypatch, block)
            assert got[0] == want and fallback == block.tolist()


@pytest.mark.parametrize("exponent", [-950, -960, -990, -1010])
def test_row_sums_rounding_test_needs_a_normal_bound(monkeypatch, exponent):
    # 12,000 terms near 2**exponent: the rounding test's bound
    # n**2 * 2**(e - 104) is a normal float at 2**-950 and underflows below
    # about 2**-959, where every row goes to fsum; either way the sums are
    # fsum's
    rng = np.random.default_rng(-exponent)
    n = 12_000
    x = np.ldexp(rng.uniform(0.5, 1.0, n), exponent) * rng.choice([-1, 1], n)
    e = math.frexp(float(np.abs(x).max()))[1] + (n + 1).bit_length()
    normal = math.ldexp(n * n, e - 104) >= np.finfo(float).tiny
    assert normal == (exponent == -950)
    for block in _blocks(x):
        fallback = _fallback(monkeypatch, block)[1]
        assert fallback == ([] if normal else block.tolist())


def test_row_sums_settle_every_level_of_a_fine_run(monkeypatch):
    # every level of a 3 x 4000-cell 2-1 LWR run, each a block of one row
    # as the march takes it, and all of them in one block: the rounding
    # test settles every row, and none goes to fsum
    spec = JunctionSpec(2, 1, (quadratic_lwr(), quadratic_lwr(),
                               quadratic_lwr(2.0)))
    mesh = NetworkMesh(spec, 1.0 / 4000, 4000)
    rng = np.random.default_rng(301)
    init = [np.repeat(rng.random(40), 100) for _ in range(3)]
    traj = run(RunConfig(mesh, 0.9, 20 * cfl_timestep(mesh, 0.9)), init)
    levels = np.array([np.concatenate(state.values)
                       for state in traj.states])
    assert levels.shape == (21, 12_000)
    for level in levels:
        assert _fallback(monkeypatch, level[None, :])[1] == []
    assert _fallback(monkeypatch, levels)[1] == []


# ---------------------------------------------------------------------------
# a block of rows summed at once, as the march sums its levels' masses

ROW_KINDS = ("plain", "cancel", "subnormal", "zeros", "sum zero", "tie",
             "near tie")


def _block_row(rng, n, kind):
    """A row of n >= 4 terms. A tie (1 + 2**-53, half way between two
    floats) and a tie broken by a term far below the rounding test's
    bound both fail that test, and an exact zero never passes it, so
    those rows take the fallback."""
    if kind == "plain":
        return rng.uniform(-1.0, 1.0, n) * 10.0 ** float(rng.integers(-8, 8))
    if kind == "cancel":  # x and -x shuffled: the exact sum is 0
        half = rng.standard_normal(n // 2)
        return rng.permutation(np.concatenate([half, -half,
                                               np.zeros(n % 2)]))
    if kind == "subnormal":
        return np.ldexp(rng.standard_normal(n), rng.integers(-1100, -1000, n))
    if kind in ("zeros", "sum zero"):  # signed zeros; zeros and one x, -x
        x = np.copysign(np.zeros(n), rng.standard_normal(n))
        if kind == "sum zero":
            x[:2] = [0.375, -0.375]
        return rng.permutation(x)
    x = np.copysign(np.zeros(n), rng.standard_normal(n))
    x[:3] = [1.0, 2.0**-54, 2.0**-54]
    if kind == "near tie":
        x[3] = rng.choice([-1.0, 1.0]) * 2.0**-120
    return rng.permutation(x)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n=st.integers(4, 600), seed=st.integers(0, 2**32 - 1),
       height=st.floats(0.0, 1.0), scale=st.sampled_from([1.0, 2.0**20]),
       kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1))
@example(n=203, seed=1, height=1.0, scale=1.0, kinds=list(ROW_KINDS))
@example(n=4, seed=2, height=0.0, scale=1.0, kinds=["tie"])
def test_row_sums_match_fsum_row_by_row(n, seed, height, scale, kinds):
    # blocks from one row to as many as fill 64 KB, each row of some kind;
    # the tops are max|row|, or 2**20 times it (any bound gives the same
    # sums)
    rng = np.random.default_rng(seed)
    rows = 1 + round(height * (65536 // (8 * n) - 1))
    block = np.array([_block_row(rng, n, kinds[i % len(kinds)])
                      for i in range(rows)])
    tops = (np.abs(block).max(axis=1) * scale).tolist()
    got = kernels.row_sums(block, tops)
    assert [g.hex() for g in got] == [math.fsum(row.tolist()).hex()
                                      for row in block]


def test_row_sums_leave_unsettled_rows_to_fsum(monkeypatch):
    # plain rows pass the one-pass rounding test; ties, near ties and exact
    # zeros go to fsum
    rng = np.random.default_rng(11)
    kinds = ("plain", "tie", "plain", "near tie", "sum zero", "zeros")
    block = np.array([_block_row(rng, 300, kind) for kind in kinds])
    got, fallback = _fallback(monkeypatch, block)
    assert fallback == [block[i].tolist() for i in (1, 3, 4, 5)]
    assert got[1] == 1.0 and got[4] == got[5] == 0.0
    assert got[3] in (1.0, 1.0 + 2.0**-52)
    # a row with an inf, with its top as max|x| gives it, sends the whole
    # block to fsum; a NaN row, whose top max(tops) may skip, goes alone
    block[2, 7] = math.inf
    got, fallback = _fallback(monkeypatch, block)
    assert fallback == block.tolist() and got[2] == math.inf
    block[2, 7] = math.nan
    got, fallback = _fallback(monkeypatch, block)
    assert len(fallback) == 5 and fallback[2:] == block[3:].tolist()
    assert math.isnan(got[2])


@pytest.mark.parametrize("width", [8_000, 40_000])
def test_row_sums_take_a_large_block_in_slices(width):
    # a block several times the scratch bound, of rows of 64 KB (a few to a
    # slice, the last slice short) or 320 KB (one row, over the bound, to a
    # slice), with skipped columns that hold large values: every sum is
    # fsum's of the row's other cells, an exact zero and a near tie in
    # different slices included, and the call never holds a second copy
    # of the block
    rng = np.random.default_rng(width)
    kinds = ["plain", "cancel", "sum zero", "plain", "near tie", "tie"]
    rows = 4 * kernels._SUM_SCRATCH // (8 * width) + 7
    block = np.array([_block_row(rng, width, kinds[i % len(kinds)])
                      for i in range(rows)])
    skip = np.array([0, width // 2, width - 1])
    block[:, skip] = 1e6
    assert block.nbytes >= 4 * kernels._SUM_SCRATCH
    tops = np.abs(block).max(axis=1).tolist()
    tracemalloc.start()
    try:
        got = kernels.row_sums(block, tops, skip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = [math.fsum(np.delete(row, skip).tolist()) for row in block]
    assert [g.hex() for g in got] == [w.hex() for w in want]
    assert got[2] == 0.0 and got[5] == 1.0
    assert peak < block.nbytes


# ---------------------------------------------------------------------------
# the ledger's exact prefix sums and their one rounding per row

# a two-sum error is lost in 2**60 + 1 - 2**60, and around 1e300
HARD_TERMS = (2.0**60, 1.0, -(2.0**60), 2.0**-60, -1.0, 1e300, -1e300,
              3e299, 0.1, -0.0, 5e-324)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from(HARD_TERMS) | st.floats(), min_size=k,
             max_size=k), min_size=1, max_size=20)))
@example([[2.0**60, 1.0, -(2.0**60)], [1.0, 2.0**-60, -1.0],
          [1e300, 1.0, -1e300], [-0.0, -0.0, -0.0],
          [math.inf, -math.inf, 1.0], [math.nan, 1.0, 2.0]])
def test_cascade_sums_round_like_fsum(columns):
    # an unflagged column is fsum's result bit for bit; a column fsum
    # refuses (inf + -inf, intermediate overflow) is always flagged
    sums, lost = kernels.cascade_sums(np.array(columns).T)
    for col, got, flagged in zip(columns, sums.tolist(), lost.tolist()):
        want = _outcome(math.fsum, col)
        assert flagged or got.hex() == want


def test_cascade_sums_flag_lost_errors():
    cols = np.array([[2.0**60, 1.0, -(2.0**60)], [1.0, 2.0**-60, 1.0],
                     [0.5, 0.25, 2.0**-40], [1e300, -1e300, 1.0]]).T
    sums, lost = kernels.cascade_sums(cols)
    assert lost.tolist() == [True, True, False, False]
    assert sums[2:].tolist() == [0.75 + 2.0**-40, 1.0]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(0, 200), seed=st.integers(0, 2**32 - 1),
       lo=st.integers(-300, 290), spread=st.integers(0, 600))
def test_prefix_layers_are_exact(n, seed, lo, spread):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(lo, min(lo + spread,
                                                            290), n)
    x[rng.random(n) < 0.25] = 0.0
    layers = kernels.prefix_layers(x)
    assert layers.shape[1] == n
    prefix = Fraction(0)
    for s in range(n):
        prefix += Fraction(x[s])
        assert sum(map(Fraction, layers[:, s].tolist())) == prefix


def test_prefix_layers_refuse_what_they_cannot_lay_on_a_grid():
    # sigma = 2**(frexp(max|x|)[1] + (n + 1).bit_length()) must stay finite
    ok = np.array([2.0**1019, -(2.0**1019), 1.0])  # sigma = 2**1023
    assert kernels.prefix_layers(ok)[:, -1].sum() == 1.0
    with pytest.raises(OverflowError):
        kernels.prefix_layers(ok * 2.0)
    with pytest.raises(ValueError):  # it would never reach a zero remainder
        kernels.prefix_layers(np.array([1.0, math.nan]))

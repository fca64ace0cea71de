"""Low-level numerical kernels, in plain Python and numpy.

The solver's hot paths are (a) Godunov flux sweeps over whole roads and
(b) the scalar algebra of the junction coupling: the balance gap, the
inverses of each flux on its two monotone branches, and one exact solve
(``coupling_interval``) for the zero set of the gap plus a falling line,
which gives the coupling interval and, with the diffusive line, the
viscous junction value (``solve_visc_w``). It brackets the root with two
bisections over the kinks and ends, whose signs at the ends follow from
the structure of demand and supply, and solves one piece exactly. Every
hinted solve, of one junction state or of a stack of them, first runs
``warm_roots``: the piece of an earlier solve's active set, with what the
hint fixes computed once (``WarmPieces``), kept only where a certificate
shows the cold solve would take the same root; plus
(c) the exact sums behind the mass audit: ``row_sums`` takes the masses of
a block of levels, the march's ring of level buffers, less their ghost
and pad columns, with one extraction and a certified rounding, and
leaves to ``math.fsum`` each row that rounding does not settle; and the
exact prefix sums behind the mass ledger.
``real_roots`` finds every sign change of a polynomial on an interval; it
answers the flux-shape questions (the bell shape, the Lipschitz bound, the
rarefaction states of a Riemann fan).
Scalar kernels take any sequence: the junction solvers hand them Python
floats and tuples of floats, which keeps numpy's per-scalar dispatch out of
the coupling. ``JunctionSpec`` builds each road's record (code, params,
crit, fcrit) once, params a tuple; the coupling kernels take the records
of all roads and the number m of incoming ones. As in the junction
coupling itself, a junction state enters only through its road constants
(``road_constants``): the demand d_i = D_i(u_i) of each incoming road and
the supply s_j = S_j(u_j) of each outgoing one. A caller computes them once
per state; the balance gap, the junction fluxes, the kinks and both solves
take them and never the state. The vectorized flux and the Godunov sweep
take ``Flux.params``, or for a sweep over roads of one family the per-slot
v (or h) and one rho_max with, where it is exact, its negated reciprocal;
a sweep's crest density is one value and its crest flux per slot. They
compute the scalar kernels' per-element expressions in fewer arrays, with
every rounding the same, so they agree with the scalar kernels bitwise.
``NUMBA_ENABLED`` is kept as a constant: numpy is the only backend.

Flux families are passed around as an integer code plus a packed float
parameter vector:

====================  ====  =======================================
family                code  params
====================  ====  =======================================
LWR quadratic          0    [v, rho_max];  f = v*x*(1 - x/rho_max)
symmetric quadratic    1    [h];           f = h*(1 - x*x) on [-1,1]
polynomial             2    [c0, c1, ...]  ascending coefficients
tabulated              3    [n, x_1..x_n, y_1..y_n]  piecewise linear
====================  ====  =======================================
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import repeat

import numpy as np

FAMILY_LWR = 0
FAMILY_SYM_QUAD = 1
FAMILY_POLY = 2
FAMILY_TABLE = 3

NUMBA_ENABLED = False

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
# 1.0 as a 0-d array: numpy pairs it with an array faster than a float
_ONE = np.array(1.0)
# the warm start's certificate (``warm_roots``): the probes' reach, a share
# of the piece's range, and its margins, far above any rounding of a kink
# or of the balance
_WARM_REACH = 2.0 ** -20
_WARM_MARGIN = 2.0 ** -30
# ``row_sums`` extracts a few rows at a time, through a scratch buffer of
# at most this many bytes, or of one row where a row is larger
_SUM_SCRATCH = 1 << 18


# ---------------------------------------------------------------------------
# scalar flux evaluation

def flux_scalar(code, par, x):
    if code == 0:  # LWR
        return par[0] * x * (1.0 - x / par[1])
    if code == 1:  # symmetric quadratic
        return par[0] * (1.0 - x * x)
    if code == 2:  # polynomial, Horner from the top coefficient down
        acc = par[len(par) - 1]
        for t in range(len(par) - 2, -1, -1):
            acc = acc * x + par[t]
        return acc
    # tabulated: panel search (greatest node <= x, clamped to the last panel)
    n = int(par[0])
    lo = 0
    hi = n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if par[1 + mid] <= x:
            lo = mid
        else:
            hi = mid
    x0 = par[1 + lo]
    y0 = par[1 + n + lo]
    return y0 + (x - x0) * ((par[2 + n + lo] - y0) / (par[2 + lo] - x0))


def demand_scalar(code, par, crit, fcrit, a):
    if a <= crit:
        return flux_scalar(code, par, a)
    return fcrit


def supply_scalar(code, par, crit, fcrit, b):
    if b >= crit:
        return flux_scalar(code, par, b)
    return fcrit


def godunov_scalar(code, par, crit, fcrit, a, b):
    d = demand_scalar(code, par, crit, fcrit, a)
    s = supply_scalar(code, par, crit, fcrit, b)
    return d if d <= s else s


# ---------------------------------------------------------------------------
# vectorized flux and Godunov sweep (same per-element expressions as the
# scalar kernels)

def flux_array(code: int, par: np.ndarray, x: np.ndarray) -> np.ndarray:
    if code == FAMILY_LWR:
        # v x (1 + x / -R), which is v x (1 - x / R) bit for bit, in two
        # arrays. A sweep's par[2], where given, is -1 / R, exact for R a
        # power of two: x (-1 / R) then rounds the real number x / -R
        # rounds, and a product takes the place of the quotient
        t = x * par[2] if len(par) > 2 else x / -par[1]
        t += _ONE
        f = par[0] * x
        f *= t
        return f
    if code == FAMILY_SYM_QUAD:
        return par[0] * (1.0 - x * x)
    if code == FAMILY_POLY:
        acc = np.full_like(x, par[-1])
        for t in range(par.shape[0] - 2, -1, -1):
            acc = acc * x + par[t]
        return acc
    n = int(par[0])
    xs = par[1:1 + n]
    ys = par[1 + n:1 + 2 * n]
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, n - 2)
    x0 = xs[idx]
    y0 = ys[idx]
    return y0 + (x - x0) * ((ys[idx + 1] - y0) / (xs[idx + 1] - x0))


def interface_fluxes(code, par, crit, fcrit, u_ext, out):
    """Godunov flux at every interface between neighbouring cells of u_ext
    (ghost cells included). The flux is evaluated once per cell and feeds
    both the demand of the interface to its right and the supply of the one
    to its left. crit is the crest density, one value for a sweep (an
    array of one value per cell broadcasts alike), and fcrit holds the
    crest flux of every cell; par is the parameter vector, or for roads of
    one family with different parameters the per-cell v (or h) and one
    rho_max (see ``flux_array``). Demand starts as a copy of the
    crest flux and takes f where the cell lies on its branch; supply
    overwrites f with the crest flux where the cell does not lie on its
    branch, so a NaN cell reads as the crest on both sides, as in
    ``godunov_scalar``."""
    f = flux_array(code, par, u_ext)
    d = fcrit.copy()
    np.copyto(d, f, where=u_ext <= crit)
    off = u_ext >= crit
    np.copyto(f, fcrit, where=np.logical_not(off, out=off))
    np.minimum(d[:-1], f[1:], out=out)


# ---------------------------------------------------------------------------
# junction balance gap

def road_constants(roads, m, ustar):
    """The constant term of every road's share of the balance gap: the
    demand d_i = D_i(u_i) of an incoming road, the supply s_j = S_j(u_j) of
    an outgoing one."""
    # demand_scalar and supply_scalar, inlined: this runs once per solve
    return [flux_scalar(code, par, u) if (u <= crit if h < m else u >= crit)
            else fcrit for h, ((code, par, crit, fcrit), u)
            in enumerate(zip(roads, ustar))]


def balance_gap(roads, m, consts, p):
    """D(p) = sum_in min(d_i, S_i(p)) - sum_out min(D_j(p), s_j), the terms
    in road order, those of ``godunov_scalar``; consts are the
    ``road_constants`` d_i and s_j."""
    total = 0.0
    for h, (code, par, crit, fcrit) in enumerate(roads):
        c = consts[h]
        if h < m:  # supply_scalar and demand_scalar, inlined
            s = flux_scalar(code, par, p) if p >= crit else fcrit
            total += c if c <= s else s
        else:
            d = flux_scalar(code, par, p) if p <= crit else fcrit
            total -= d if d <= c else c
    return total


def fill_junction_fluxes(roads, m, consts, p, out):
    """The Godunov flux of every road at the junction value p, min(d_i,
    S_i(p)) or min(D_j(p), s_j), into out."""
    for h, (code, par, crit, fcrit) in enumerate(roads):
        c = consts[h]
        if h < m:  # as in balance_gap
            s = flux_scalar(code, par, p) if p >= crit else fcrit
            out[h] = c if c <= s else s
        else:
            d = flux_scalar(code, par, p) if p <= crit else fcrit
            out[h] = d if d <= c else c


# ---------------------------------------------------------------------------
# polynomial pieces and branch inverses

def _table(par):
    n = int(par[0])
    return par[1:1 + n], par[1 + n:1 + 2 * n]


def _panel(code, par, x) -> int:
    """Index of the polynomial piece of f containing x: the panel of a
    tabulated flux, 0 for the polynomial families (one piece)."""
    if code != FAMILY_TABLE:
        return 0
    xs = _table(par)[0]
    return min(max(bisect_right(xs, x) - 1, 0), len(xs) - 2)


def _piece_coeffs(code, par, x, k=None) -> list[float]:
    """Ascending coefficients of the polynomial piece of f containing x, or
    of piece k (see ``_panel``) where k is given: the whole flux for the
    polynomial families, one panel for a tabulated flux."""
    if code == FAMILY_LWR:
        return [0.0, float(par[0]), -float(par[0] / par[1])]
    if code == FAMILY_SYM_QUAD:
        return [float(par[0]), 0.0, -float(par[0])]
    if code == FAMILY_POLY:
        return [float(c) for c in par]
    xs, ys = _table(par)
    if k is None:
        k = _panel(code, par, x)
    slope = float((ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]))
    return [float(ys[k] - xs[k] * slope), slope]


def _horner(c: list[float], x: float) -> float:
    acc = 0.0
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def poly_root(c: list[float], a: float, b: float) -> float:
    """Root in [a, b] of the polynomial with ascending coefficients c, which
    changes sign once on [a, b].

    Degree <= 2 uses the cancellation-free quadratic formula with the
    discriminant clamped at 0, so a root where the polynomial touches zero
    tangentially comes out exact. Higher degrees bisect on Horner until the
    bracket is a few ulps of its endpoints wide.
    """
    deg = len(c) - 1
    while deg > 0 and c[deg] == 0.0:
        deg -= 1
    if 1 <= deg <= 2:
        c0, c1 = c[0], c[1]
        c2 = c[2] if deg == 2 else 0.0
        if c2 == 0.0:
            r = -c0 / c1
        else:
            disc = max(c1 * c1 - 4.0 * c2 * c0, 0.0)
            q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
            r, other = (q / c2, c0 / q) if q != 0.0 else (0.0, 0.0)
            # one root lies outside [a, b] or on its edge; ties keep q/c2
            if max(a - other, other - b) < max(a - r, r - b):
                r = other
        return a if r < a else (b if r > b else r)
    lo, hi = a, b
    positive_lo = _horner(c, lo) > 0.0
    width = 4.0 * _EPS * max(abs(a), abs(b))
    while hi - lo > width:
        mid = lo + 0.5 * (hi - lo)
        if (_horner(c, mid) > 0.0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return lo + 0.5 * (hi - lo)


def real_roots(c: list[float], a: float, b: float) -> list[float]:
    """The roots in (a, b) where the polynomial with ascending coefficients
    c changes sign, in ascending order.

    Between consecutive such roots of c' the polynomial is monotone, so each
    piece brackets at most one root, which ``poly_root`` solves. A zero that
    lands exactly on a split point counts when the signs on its two sides
    differ.
    """
    deg = len(c) - 1
    while deg > 0 and c[deg] == 0.0:
        deg -= 1
    if deg < 1:
        return []
    pts = [a, *real_roots([k * c[k] for k in range(1, deg + 1)], a, b), b]
    signs = [(v > 0.0) - (v < 0.0) for v in (_horner(c, x) for x in pts)]
    roots = []
    for t in range(1, len(pts)):
        if signs[t - 1] * signs[t] < 0:
            roots.append(poly_root(c, pts[t - 1], pts[t]))
        elif signs[t] == 0 and t + 1 < len(pts) \
                and signs[t - 1] * signs[t + 1] < 0:
            roots.append(pts[t])
    return roots


def branch_point(code, par, crit, fcrit, y, edge):
    """Density between crit and edge where f equals y.

    ``edge`` is rho_min for the rising branch and rho_max for the falling
    one; f is monotone between crit and edge. Values at or above the crest
    map to crit, values at or below 0 to the edge.
    """
    if y >= fcrit:
        return crit
    if y <= 0.0:
        return edge
    lo, hi = (edge, crit) if edge < crit else (crit, edge)
    if code != FAMILY_TABLE:
        c = _piece_coeffs(code, par, crit)
        c[0] -= y
        return poly_root(c, lo, hi)
    xs, ys = _table(par)
    n = len(xs)
    top = bisect_left(xs, crit)  # the crest node
    if edge < crit:  # ys rise on nodes 0..top
        k = bisect_left(ys, y, 0, top + 1) - 1
    else:  # ys fall on nodes top..n-1
        k = bisect_left(ys, -y, top, n, key=lambda v: -v) - 1
    k = min(max(k, 0), n - 2)
    x = xs[k] + (y - ys[k]) * ((xs[k + 1] - xs[k]) / (ys[k + 1] - ys[k]))
    return min(max(float(x), lo), hi)


# ---------------------------------------------------------------------------
# exact junction solves: the coupling interval and the viscous junction value

def _kinks(roads, m, consts, lo, hi):
    """Each road's kink, where its gap term switches between its constant
    and its whole flux: the falling- (rising-)branch point of d_i (s_j) on
    an incoming (outgoing) road."""
    return [branch_point(code, par, crit, fcrit, c, hi if h < m else lo)
            for h, ((code, par, crit, fcrit), c)
            in enumerate(zip(roads, consts))]


def coupling_interval(roads, m, consts, base, slope, lo, hi, zero):
    """(p_min, p_max, active): the zero set [p_min, p_max] over [lo, hi] of
    R(p) = base + slope p + D(p), D the balance gap, by the cold solve (a
    hinted one tries ``warm_roots`` first), and at a point root the active
    set of R's piece there (``_piecewise_root``), the hint for a later
    solve; None where the root is a kink, a table node or an end, or on a
    plateau. The coupling passes base = slope = 0, the viscous junction
    value (``solve_visc_w``) a falling line.

    Each term of D is either its constant (d_i, s_j) or the road's whole
    flux, switching at the road's kink (``_kinks``), so between two kinks R
    is one polynomial (one per panel for tables), solved exactly. Two
    bisections over the sorted ends and kinks, sharing their probes, find
    the first point where R <= 0 and the first where R < 0; the points
    between are the zero set, else the root lies on the piece just before
    the first. R(lo) >= 0 >= R(hi) by the structure of demand and supply
    (D(lo) = sum d_i, D(hi) = -sum s_j), so an end's sign is read only
    where a bisection reaches it, and it counts as zero where rounding, the
    input slack or a flux end off zero makes it wrong. A value of R within
    ``zero`` counts as zero: plateau values are differences of rounded flux
    values, that noisy."""
    kinks = _kinks(roads, m, consts, lo, hi)
    signs = {}

    def sign(p):
        s = signs.get(p)
        if s is None:
            r = balance_gap(roads, m, consts, p) + (base + slope * p)
            s = 1 if r > zero else (-1 if r < -zero else 0)
            if p == lo:
                s = max(s, 0)
            elif p == hi:
                s = min(s, 0)
            signs[p] = s
        return s

    pts = sorted([lo, hi, *kinks])
    first = bisect_left(pts, True, key=lambda p: sign(p) <= 0)
    if sign(pts[first]) == 0:
        last = bisect_left(pts, True, key=lambda p: sign(p) < 0) - 1
        return pts[first], pts[last], None
    root, active = _piecewise_root(roads, m, consts, kinks, [base, slope],
                                   pts[first - 1], pts[first], sign)
    return root, root, active


def solve_visc_w(pieces, ustar, base, hint):
    """(w, consts, active): the root w of R(w) = base + slope w + D(w), D
    the balance gap of the junction state ustar, consts its road constants,
    and the active set of w's piece, for the roads, slope and [lo, hi] of
    ``pieces``: from the hint's piece (``warm_roots``), else by the cold
    ``coupling_interval`` with no slack for zero.

    That is the junction value when every road meets w as a neighbouring
    cell, e = 2 eps / dx: G_i(u_i, w) - e (w - u_i) leaves an incoming
    road, G_j(w, u_j) - e (u_j - w) enters an outgoing one, and their
    balance has base = e sum(u), slope = -e (m+n). R is strictly
    decreasing, so its zero set is the one point w."""
    if hint is not None:
        got = warm_roots(pieces, [ustar], [hint], [base])[0]
        if got is not None:
            return got[0], got[1], hint
    roads, m = pieces.roads, pieces.m
    consts = road_constants(roads, m, ustar)
    w, _, active = coupling_interval(roads, m, consts, base, pieces.slope,
                                     pieces.lo, pieces.hi, 0.0)
    return w, consts, active


class WarmPieces(dict):
    """What ``warm_roots`` takes from a hint alone, by hint, computed on
    its first lookup, for one junction (its roads' records, m and [lo, hi])
    and one slope: +0.0 for the coupling, -e (m + n) for the viscous value.

    A piece is (c1, c2, c1 c1, 4 c2, lo, hi, reach, rest, roads): c1 (from
    the slope) and c2 summed in road order, the range cut to the crest of
    every whole-flux road, the reach, the part of the size bound that
    neither the base nor c0 enters, and per road its record, its margin
    (``_WARM_MARGIN`` times its crest flux), whether it is incoming, whether
    its term is its constant, its signed piece constant, whether its probe
    is the right end of the reach, and a table panel's nodes (else None).
    A hint whose piece has degree 0 or above 2 has no piece (None), nor has
    a plateau's hint, None: such rows are solved cold."""

    def __init__(self, roads, m, lo, hi, slope=0.0):
        super().__init__({None: None})
        self.roads, self.m, self.lo, self.hi = roads, m, lo, hi
        self.slope = slope
        self.crests = 0.0  # the crest fluxes, summed in road order
        for r in roads:
            self.crests += r[3]

    def __missing__(self, hint):
        piece = self[hint] = self._piece(hint)
        return piece

    def _piece(self, hint):
        m, lo, hi = self.m, self.lo, self.hi
        c1, c2 = self.slope, 0.0
        roads = []
        for h, k in enumerate(hint):
            code, par, crit, fcrit = self.roads[h]
            const, p0, nodes = k < 0, 0.0, None
            if not const:
                if h < m:
                    lo = crit if crit > lo else lo
                else:
                    hi = crit if crit < hi else hi
                piece = _piece_coeffs(code, par, None, k)
                if len(piece) > 3:  # bisected, not the quadratic formula
                    return None
                piece = [v if h < m else -v for v in piece]
                p0 = piece[0]
                c1 += piece[1]
                if len(piece) > 2:
                    c2 += piece[2]
                if code == FAMILY_TABLE:
                    nodes = _table(par)[0][k:k + 2]
            roads.append((code, par, crit, fcrit, _WARM_MARGIN * fcrit,
                          h < m, const, p0, const == (h < m), nodes))
        if c1 == 0.0 and c2 == 0.0:  # degree 0
            return None
        big = max(-lo, hi)
        return (c1, c2, c1 * c1, 4.0 * c2, lo, hi, _WARM_REACH * (hi - lo),
                (abs(c1) + abs(c2) * big) * big, tuple(roads))


def warm_roots(pieces: WarmPieces, states, hints, bases) -> list:
    """The root of R(p) = base + slope p + D(p), D the balance gap, for
    every junction state of ``states`` (a list of lists of floats) from the
    piece of its hint, an earlier solve's active set, with the row's base
    and the slope of ``pieces``: (root, road constants) where the piece
    certifies the root, else None, for each row.

    c0 adds each road's constant, or its piece's constant term, to the base
    in road order, as ``_piecewise_root`` adds them; c1 and c2 are the
    piece's own (``WarmPieces``). On the piece's branch range R falls, and
    only degree 1, or 2 with a nonnegative discriminant, qualifies: the root
    r is then ``poly_root``'s quadratic formula, in its order, whatever the
    bracket (its clamp is left out, since a clamped root lies on an end of
    the range, which the certificate refuses). The certificate holds on
    [r - reach, r + reach], inside the range and each active table panel:
    every road's term lies on its active side by more than its margin,
    probed at the end where S_i falls or D_j rises to the least margin (a
    constant at the crest flux, probed on its flat branch, is that constant
    over the whole reach and passes), and the piece's sign at both ends
    clears its rounding by _WARM_MARGIN of its size. No kink, table node or
    end then lies within reach of r, so the cold solve
    (``coupling_interval``) brackets r with this piece and takes the same r
    bit for bit."""
    out = []
    flux, crests = flux_scalar, pieces.crests
    sqrt, copysign = math.sqrt, math.copysign
    for u, hint, base in zip(states, hints, bases):
        piece = pieces[hint]
        if piece is None:
            out.append(None)
            continue
        c1, c2, sq, four, lo, hi, reach, rest, roads = piece
        c0 = base
        consts = []
        for (code, par, crit, fcrit, _, incoming, const, p0, _, _), x in zip(
                roads, u):
            # road_constants' demand or supply, inlined
            d = (flux(code, par, x)
                 if (x <= crit if incoming else x >= crit) else fcrit)
            consts.append(d)
            c0 += (d if incoming else -d) if const else p0
        if c2 == 0.0:
            r = -c0 / c1
        else:
            four *= c0
            if not sq >= four:  # a negative discriminant
                out.append(None)
                continue
            q = -0.5 * (c1 + copysign(sqrt(max(sq - four, 0.0)), c1))
            r, other = (q / c2, c0 / q) if q != 0.0 else (0.0, 0.0)
            if max(lo - other, other - hi) < max(lo - r, r - hi):
                r = other
        left, right = r - reach, r + reach
        if not lo <= left < r < right <= hi:
            out.append(None)
            continue
        for (code, par, crit, fcrit, margin, incoming, const, _, at_right,
             nodes), d in zip(roads, consts):
            x = right if at_right else left
            if const and d == fcrit and (x < crit if incoming else x > crit):
                continue  # a crest tie on the flat branch
            v = (flux(code, par, x)
                 if (x >= crit if incoming else x <= crit) else fcrit)
            if not (((v - d) if const else (d - v)) > margin
                    and (nodes is None
                         or nodes[0] <= left and right <= nodes[1])):
                break
        else:
            # the rounding of R, of the piece and of each term is a few eps
            # of this size
            bound = _WARM_MARGIN * (abs(base) + crests + abs(c0) + rest)
            if ((c2 * left + c1) * left + c0 > bound
                    and (c2 * right + c1) * right + c0 < -bound):
                out.append((r, consts))
                continue
        out.append(None)
    return out


def _piecewise_root(roads, m, consts, kinks, c, a, b, sign):
    """(root, active): the root in [a, b] of c(p) + D(p), c ascending
    coefficients and D the balance gap with these road constants and kinks,
    none inside (a, b), and the active set of the piece solved there (-1
    for a road's constant, else the piece of its flux, ``_panel``); None
    for a root on a table node. sign(p) is the sign of that sum, > 0 at a
    and < 0 at b. A road's term is its whole flux where its kink lies at or
    below a (incoming) or at or above b (outgoing), its constant otherwise.
    Bisection over the table nodes inside (a, b) narrows the bracket to one
    panel of every table, where the sum is one polynomial, which
    ``poly_root`` solves exactly."""
    terms = [None if ((kinks[h] <= a) if h < m else (kinks[h] >= b))
             else consts[h] for h in range(len(kinks))]
    nodes = []
    for h, t in enumerate(terms):
        if t is None and roads[h][0] == FAMILY_TABLE:
            xs = _table(roads[h][1])[0]
            nodes.extend(xs[bisect_right(xs, a):bisect_left(xs, b)])
    nodes.sort()
    k = bisect_left(nodes, True, key=lambda p: sign(p) <= 0)
    if k < len(nodes) and sign(nodes[k]) == 0:
        return nodes[k], None
    a = nodes[k - 1] if k > 0 else a
    b = nodes[k] if k < len(nodes) else b
    active = []
    for h, t in enumerate(terms):
        if t is not None:
            c[0] += t if h < m else -t
            active.append(-1)
            continue
        code, par = roads[h][0], roads[h][1]
        k = _panel(code, par, 0.5 * (a + b))
        piece = _piece_coeffs(code, par, None, k)
        c.extend([0.0] * (len(piece) - len(c)))
        for q, v in enumerate(piece):
            c[q] += v if h < m else -v
        active.append(k)
    return poly_root(c, a, b), tuple(active)


# ---------------------------------------------------------------------------
# exact summation

def _grid(n: int, top: float) -> tuple[int, float] | None:
    """(e, bound) for the first extraction over n terms with |x| <= top,
    as ``row_sums`` and ``prefix_layers`` take it (Rump, Ogita & Oishi,
    "Accurate floating-point summation I", SIAM J. Sci. Comput. 31, 2008):
    sigma = 2**e is a power of two at least (n + 2) * top, so
    q = (sigma + x) - sigma keeps the leading bits of every term on one grid
    of sigma's ulps, where numpy sums them exactly, and x - q is the exact
    remainder, at most 2**(e - 53) in size. bound = n**2 * 2**(e - 104)
    bounds the error of any float sum of the n remainders (gamma_{n-1}
    times the sum of their sizes; Higham, "Accuracy and Stability of
    Numerical Algorithms", sec. 4.2). None where top is not finite (inf or
    NaN) or sigma would overflow."""
    e = math.frexp(top)[1] + (n + 1).bit_length()
    if not (math.isfinite(top) and e <= 1023):
        return None
    return e, math.ldexp(float(n * n), e - 104)


def row_sums(block: np.ndarray, tops, skip=slice(0)) -> list[float]:
    """The correctly rounded sum of every row of the 2-D float64 array
    block, less its columns ``skip`` (an index array; none by default),
    each bit-identical to ``math.fsum`` of the row's other terms (NaN and
    inf propagate, and overflow raises, as fsum does). ``tops[i]`` bounds
    |x| over row i, skipped columns included; any such bound gives the
    same sums, and a row with a term that is not finite needs a top that
    is not finite (inf or NaN, as max|x| gives it). The skipped columns
    read 0 in the temporaries below, and block itself is only read.

    One error-free extraction takes the whole block, on the sigma grid of
    a row of that length and the largest bound (``_grid``), so the row
    sums of the parts are exact. It runs over slices of a few rows, one
    at a time, through a scratch buffer of at most ``_SUM_SCRATCH`` bytes,
    or of one row where a row is larger, so a call never holds a second
    copy of its block. The row sums of the remainders then settle each
    row's rounding (Rump, Ogita & Oishi, part II, SIAM J. Sci. Comput. 31,
    2008): the part is exact and the rest lies within bound of the
    remainders' exact sum, so where part + rest - bound and
    part + rest + bound round alike, the exact sum, between them, rounds
    the same way. Every numpy call serves all rows of a slice.
    ``math.fsum`` itself sums every row the test does not settle (an exact
    zero, which never passes as bound > 0, a sum within the bound of a
    rounding boundary, a row with a NaN, whose test compares NaNs, or
    every row where the bound lies below the normal range), and every row
    of a block whose largest top is not finite or whose sigma would
    overflow. ``max`` may skip a NaN top, but never an inf one.
    """
    grid = _grid(block.shape[1], max(tops, default=0.0))
    if grid is None or grid[1] < _TINY:
        return list(map(math.fsum, _cells(block, skip).tolist()))
    e, bound = grid
    sigma = math.ldexp(1.0, e)
    height = max(1, _SUM_SCRATCH // (8 * block.shape[1] or 1))  # a slice
    parts, rests = [], []
    for i in range(0, block.shape[0], height):
        rows = block[i:i + height]
        q = rows + sigma
        q -= sigma
        q[:, skip] = 0.0
        parts += np.add.reduce(q, axis=1).tolist()
        np.subtract(rows, q, out=q)  # the remainders, in q's place
        q[:, skip] = 0.0
        rests += np.add.reduce(q, axis=1).tolist()
        del q  # one slice's scratch at a time
    sums = list(map(math.fsum, zip(parts, rests, repeat(-bound))))
    for i, high in enumerate(map(math.fsum, zip(parts, rests, repeat(bound)))):
        if sums[i] != high:
            sums[i] = math.fsum(_cells(block[i:i + 1], skip)[0].tolist())
    return sums


def _cells(x: np.ndarray, skip) -> np.ndarray:
    """A copy of the rows x with their columns skip at -0.0, which adds
    nothing to any sum, ``math.fsum``'s included."""
    x = x.copy()
    x[:, skip] = -0.0
    return x


def prefix_layers(x: np.ndarray) -> np.ndarray:
    """Exact prefix sums of a finite 1-D float64 array, as layers: row k is
    the running sum of the k-th extraction q of x, the first on the grid
    of ``_grid`` and each later one on the grid of the bound the remainder
    before it left, and column s of the rows adds up exactly to the sum of
    x[:s + 1]. A layer lies on one grid and its prefixes fit in 53 bits, so
    np.cumsum adds it exactly. Raises ValueError on a non-finite term, and
    OverflowError where the first sigma would overflow.
    """
    top = float(np.maximum.reduce(np.abs(x), initial=0.0))
    if not math.isfinite(top):
        raise ValueError("exact prefix sums need finite terms")
    grid = _grid(x.shape[0], top)
    if grid is None:
        raise OverflowError("terms too large for exact prefix sums")
    e = grid[0]
    step = (x.shape[0] + 1).bit_length()
    layers = []
    while True:
        sigma = math.ldexp(1.0, e)
        q = sigma + x
        q -= sigma
        x = x - q
        layers.append(q.cumsum())
        if not np.count_nonzero(x):
            return np.array(layers)
        e += step - 52


def cascade_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum every column of the 2-D array terms down its rows, in order.
    Returns (sums, lost). Where every partial sum but the last is exact and
    the sum is finite, the sum was rounded once, so sums holds the
    correctly rounded sum of the column, as ``math.fsum`` gives it (an
    exact zero as +0.0); lost flags every other column. A partial sum
    hi = a + b has no two-sum error iff hi - a == b and hi - b == a: hi
    less the larger of a and b is computed exactly (Dekker's fast
    two-sum), so it gives back the other term only when hi is exact."""
    partial = np.empty_like(terms)
    partial[0] = terms[0]
    with np.errstate(over="ignore", invalid="ignore"):  # flagged below
        # row by row: np.cumsum along axis 0 is several times slower
        for k in range(1, terms.shape[0]):
            np.add(partial[k - 1], terms[k], out=partial[k])
        a, b, hi = partial[:-2], terms[1:-1], partial[1:-1]
        lost = np.logical_or.reduce((hi - a != b) | (hi - b != a), axis=0)
    total = partial[-1]
    lost |= ~np.isfinite(total)
    return total + 0.0, lost

"""Low-level numerical kernels, in plain Python and numpy.

The solver's hot paths are (a) Godunov flux sweeps over whole roads and
(b) the scalar algebra of the junction coupling: the balance gap, the
inverses of each flux on its two monotone branches, and the exact solves for
the coupling interval and the viscous junction value, which share the kinks
and one piecewise root finder; both can start from an earlier solve's
active piece (``_warm_root``), kept only where a certificate shows the cold
solve would take the same root, plus (c) the exact sums behind the mass
audit, which usually stop after one extraction pass with a certified
rounding (a caller that knows a bound on the terms spares the pass that
reads it), and the exact prefix sums behind the mass ledger.
``real_roots`` finds every sign change of a polynomial on an interval; it
answers the flux-shape questions (the bell shape, the Lipschitz bound, the
rarefaction states of a Riemann fan).
Scalar kernels take any sequence: the junction solvers hand them Python
floats and tuples of floats (``JunctionSpec`` converts each road's
parameters once), which keeps numpy's per-scalar dispatch out of the
coupling. The vectorized flux and the Godunov sweep take ``Flux.params``
(or per-slot rows of it) and are built from the same per-element
expressions, so they agree with the scalar kernels bitwise. The balance
gap of one junction state has a constant term per road (``road_constants``,
the demand or supply of its junction-adjacent cell); each solve computes
them once (or takes its caller's) and hands them to every gap evaluation.
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

import numpy as np

FAMILY_LWR = 0
FAMILY_SYM_QUAD = 1
FAMILY_POLY = 2
FAMILY_TABLE = 3

NUMBA_ENABLED = False

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
# the warm start's certificate (``_warm_root``): the probes' reach, a share
# of the piece's range, and its margins, far above any rounding of a kink
# or of the balance
_WARM_REACH = 2.0 ** -20
_WARM_MARGIN = 2.0 ** -30


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
        return par[0] * x * (1.0 - x / par[1])
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
    to its left. crit and fcrit hold one value per cell of u_ext, and each
    row of par may, for roads of one family with different parameters.
    Demand and supply start as copies of the crest flux and take f only
    where the cell lies on their branch, so a NaN cell reads as the crest
    on both sides, as in ``godunov_scalar``."""
    f = flux_array(code, par, u_ext)
    d = fcrit.copy()
    np.copyto(d, f, where=u_ext <= crit)
    s = fcrit.copy()
    np.copyto(s, f, where=u_ext >= crit)
    np.minimum(d[:-1], s[1:], out=out)


# ---------------------------------------------------------------------------
# junction balance gap

def road_constants(codes, params, crits, fcrits, m, ustar):
    """The constant term of every road's share of the balance gap: the
    demand d_i = D_i(u_i) of an incoming road, the supply s_j = S_j(u_j) of
    an outgoing one."""
    return [demand_scalar(codes[h], params[h], crits[h], fcrits[h], ustar[h])
            if h < m else
            supply_scalar(codes[h], params[h], crits[h], fcrits[h], ustar[h])
            for h in range(len(ustar))]


def balance_gap(codes, params, crits, fcrits, m, ustar, p, consts=None):
    """D(p) = sum_in min(d_i, S_i(p)) - sum_out min(D_j(p), s_j), the terms
    in road order. ``consts``, the ``road_constants`` of ustar, spare a
    caller that evaluates D many times for one state from recomputing
    them; either way the terms are those of ``godunov_scalar``."""
    if consts is None:
        consts = road_constants(codes, params, crits, fcrits, m, ustar)
    total = 0.0
    for i in range(m):
        d = consts[i]
        s = supply_scalar(codes[i], params[i], crits[i], fcrits[i], p)
        total += d if d <= s else s
    for j in range(m, len(consts)):
        d = demand_scalar(codes[j], params[j], crits[j], fcrits[j], p)
        s = consts[j]
        total -= d if d <= s else s
    return total


def fill_junction_fluxes(codes, params, crits, fcrits, m, ustar, p, out):
    for i in range(m):
        out[i] = godunov_scalar(codes[i], params[i], crits[i], fcrits[i],
                                ustar[i], p)
    for j in range(m, len(ustar)):
        out[j] = godunov_scalar(codes[j], params[j], crits[j], fcrits[j],
                                p, ustar[j])


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

def _kinks(codes, params, crits, fcrits, m, ustar, lo, hi, consts=None):
    """The ``road_constants`` of ustar (``consts`` where given) and each
    road's kink, where its gap term switches between that constant and its
    whole flux: the falling- (rising-)branch point of d_i (s_j) on an
    incoming (outgoing) road."""
    if consts is None:
        consts = road_constants(codes, params, crits, fcrits, m, ustar)
    return consts, [branch_point(codes[h], params[h], crits[h], fcrits[h], c,
                                 hi if h < m else lo)
                    for h, c in enumerate(consts)]


def coupling_interval(codes, params, crits, fcrits, m, ustar, lo, hi, zero,
                      hint=None):
    """(p_min, p_max, active): the zero set [p_min, p_max] of the balance
    gap over [lo, hi], and the gap's active set at a point root
    (``_active_set``), the hint for a later solve; None on a plateau.

    The gap D(p) = sum_in min(d_i, S_i(p)) - sum_out min(D_j(p), s_j) is
    non-increasing, and each term is either its constant (d_i, s_j) or the
    road's whole flux, switching at the road's kink (``_kinks``). D is
    evaluated at the sorted kinks and ends; between two of them it is one
    polynomial (one per panel for tabulated fluxes), solved exactly.

    ``hint``, an active set from an earlier solve, is tried first
    (``_warm_root``) on the range where its whole-flux terms are the
    flux's falling (incoming) or rising (outgoing) branch: above the crest
    of every such incoming road, below that of every such outgoing one.
    There a quadratic piece has one root where D falls.

    A gap within ``zero``, 4 ulps of the summed crests, counts as zero:
    plateau values are differences of rounded flux values, that noisy.
    Returns (nan, nan, None) when D does not fall from >= 0 to <= 0 over
    [lo, hi].
    """
    consts = road_constants(codes, params, crits, fcrits, m, ustar)
    if hint is not None:
        a, b = lo, hi
        for h, k in enumerate(hint):
            if k >= 0:
                if h < m:
                    a = max(a, crits[h])
                else:
                    b = min(b, crits[h])
        # a slope of +0.0, as the cold piece starts from [0.0]: -0.0 would
        # keep a symmetric quadratic's c[1] at -0.0 and flip the branch of
        # the quadratic formula
        r = _warm_root(codes, params, crits, fcrits, m, consts, 0.0, 0.0, a,
                       b, hint)
        if r is not None:
            return r, r, hint
    kinks = _kinks(codes, params, crits, fcrits, m, ustar, lo, hi, consts)[1]

    def sign(p):
        g = balance_gap(codes, params, crits, fcrits, m, ustar, p, consts)
        return 1 if g > zero else (-1 if g < -zero else 0)

    pts = sorted([lo, hi, *kinks])
    signs = [sign(p) for p in pts]
    if signs[0] < 0 or signs[-1] > 0:
        return math.nan, math.nan, None
    first = next(t for t, s in enumerate(signs) if s <= 0)
    if signs[first] == 0:
        last = max(t for t, s in enumerate(signs) if s >= 0)
        return pts[first], pts[last], None
    root = _piecewise_root(codes, params, m, consts, kinks, [0.0],
                           pts[first - 1], pts[first], sign)
    return root, root, _active_set(codes, params, crits, fcrits, m, consts,
                                   root)


def solve_visc_w(codes, params, crits, fcrits, m, ustar, eps2dx, lo, hi,
                 hint=None, consts=None):
    """(w, active): the junction value w in [lo, hi] when every road meets
    w as a neighbouring cell, e = eps2dx: G_i(u_i, w) - e (w - u_i) leaves
    an incoming road, G_j(w, u_j) - e (u_j - w) enters an outgoing one; and
    R's active set at w (``_active_set``), the hint for a later solve.

    Their balance R(w) = D(w) - e ((m+n) w - sum(u)), D the balance gap, is
    strictly decreasing, and R(lo) >= 0 >= R(hi) for states in [lo, hi].
    ``consts``, the ``road_constants`` of ustar, spare a caller that has
    them from recomputing them. ``hint``, an active set from an earlier
    solve, is tried first (``_warm_root``). Otherwise a bisection on R's
    exact sign over the sorted kinks brackets the root; the sign at lo or
    hi is read only when the bracket ends there, and where rounding or the
    input slack makes it wrong, w is that end."""
    base, slope = eps2dx * sum(ustar), -eps2dx * len(ustar)
    if consts is None:
        consts = road_constants(codes, params, crits, fcrits, m, ustar)
    if hint is not None:
        w = _warm_root(codes, params, crits, fcrits, m, consts, base, slope,
                       lo, hi, hint)
        if w is not None:
            return w, hint
    kinks = _kinks(codes, params, crits, fcrits, m, ustar, lo, hi, consts)[1]

    def sign(w):
        r = balance_gap(codes, params, crits, fcrits, m, ustar, w,
                        consts) + (base + slope * w)
        return 1 if r > 0.0 else (-1 if r < 0.0 else 0)

    pts = sorted(kinks)
    i, j = _bisect(pts, sign)
    if i == j:
        w = pts[i]
    elif i < 0 and sign(lo) <= 0:
        w = lo
    elif j == len(pts) and sign(hi) >= 0:
        w = hi
    else:
        w = _piecewise_root(codes, params, m, consts, kinks, [base, slope],
                            pts[i] if i >= 0 else lo,
                            pts[j] if j < len(pts) else hi, sign)
    return w, _active_set(codes, params, crits, fcrits, m, consts, w)


def _active_set(codes, params, crits, fcrits, m, consts, w):
    """Which term of each road's share of R is the smaller at w: -1 for its
    constant (d_i <= S_i(w), s_j <= D_j(w)), else the piece of its flux
    containing w (``_panel``)."""
    return tuple(
        -1 if c <= (supply_scalar if h < m else demand_scalar)(
            codes[h], params[h], crits[h], fcrits[h], w)
        else _panel(codes[h], params[h], w)
        for h, c in enumerate(consts))


def _warm_root(codes, params, crits, fcrits, m, consts, base, slope, lo,
               hi, active):
    """The root of R = c + D, c = base + slope p and D the balance gap,
    from its piece on the active set ``active`` of an earlier solve, or
    None where that piece cannot certify it. The coupling solve passes
    base = slope = +0.0, the viscous solve its diffusive terms.

    The piece is c = [base, slope] plus the active terms, added in road
    order as ``_piecewise_root`` adds them; r = poly_root(c, lo, hi). Only
    pieces of degree 1 or 2 with a nonnegative discriminant qualify: there
    ``poly_root`` is the quadratic formula whatever the bracket (higher
    degrees bisect to a bracket-dependent result).

    r is certified on [r - reach, r + reach], reach = _WARM_REACH (hi - lo),
    inside [lo, hi] and inside each active table panel: every road's term
    lies on its active side by more than _WARM_MARGIN of its crest (d_i <
    S_i(x) for a constant, S_i(x) < d_i for a whole flux; D_j against s_j
    alike), checked at the end where S_i falls or D_j rises to the least
    margin, and c has a clear sign at both ends, beyond _WARM_MARGIN of its
    size there. A constant at the crest flux ties with S_i (D_j) exactly
    wherever that end lies on its flat branch, below (above) the crest; the
    term is that constant over the whole reach, and the cold solve's kink
    is the crest itself (``branch_point``), beyond the reach, so the tie
    passes. No kink, table node or end then lies within reach of r, and
    R's sign is right wherever the cold solve reads it: it brackets r with
    this piece and takes the same r bit for bit."""
    c = [base, slope]
    for h, k in enumerate(active):
        if k < 0:
            c[0] += consts[h] if h < m else -consts[h]
            continue
        piece = _piece_coeffs(codes[h], params[h], None, k)
        c.extend([0.0] * (len(piece) - len(c)))
        for t, v in enumerate(piece):
            c[t] += v if h < m else -v
    deg = len(c) - 1
    while deg > 0 and c[deg] == 0.0:
        deg -= 1
    c0, c1, c2 = c[0], c[1], c[2] if deg == 2 else 0.0
    if not (deg == 1 or (deg == 2 and c1 * c1 >= 4.0 * c2 * c0)):
        return None
    r = poly_root(c, lo, hi)
    reach = _WARM_REACH * (hi - lo)
    left, right = r - reach, r + reach
    if not lo <= left < r < right <= hi:
        return None
    for h, k in enumerate(active):
        x = right if (k < 0) == (h < m) else left
        if k < 0 and consts[h] == fcrits[h] and (
                x < crits[h] if h < m else x > crits[h]):
            continue  # a crest tie on the flat branch: constant throughout
        v = (supply_scalar if h < m else demand_scalar)(
            codes[h], params[h], crits[h], fcrits[h], x)
        if not ((v - consts[h]) if k < 0 else (consts[h] - v)) \
                > _WARM_MARGIN * fcrits[h]:
            return None
        if k >= 0 and codes[h] == FAMILY_TABLE:
            xs = _table(params[h])[0]
            if not (xs[k] <= left and right <= xs[k + 1]):
                return None
    # the rounding of R, of c and of each term is a few eps of this size
    big = max(abs(lo), abs(hi))
    size = (abs(base) + sum(fcrits) + abs(c0)
            + (abs(c1) + abs(c2) * big) * big)
    if not ((c2 * left + c1) * left + c0 > _WARM_MARGIN * size
            and (c2 * right + c1) * right + c0 < -_WARM_MARGIN * size):
        return None
    return r


def _bisect(pts, sign):
    """(i, i + 1) with sign > 0 at pts[i], < 0 at pts[i + 1] over sorted pts
    (-1 and len(pts) stand for the ends); (k, k) where sign(pts[k]) is 0."""
    i, j = -1, len(pts)
    while j - i > 1:
        mid = (i + j) // 2
        s = sign(pts[mid])
        if s == 0:
            return mid, mid
        if s > 0:
            i = mid
        else:
            j = mid
    return i, j


def _piecewise_root(codes, params, m, consts, kinks, c, a, b, sign):
    """Root in [a, b] of c(p) + D(p), c ascending coefficients and D the
    balance gap with these road constants and kinks, none inside (a, b);
    sign(p) is the sign of that sum, > 0 at a and < 0 at b. A road's term is
    its whole flux where its kink lies at or below a (incoming) or at or
    above b (outgoing), its constant otherwise. Bisection over the table
    nodes inside (a, b) narrows the bracket to one panel of every table,
    where the sum is one polynomial, which ``poly_root`` solves exactly."""
    terms = [None if ((kinks[h] <= a) if h < m else (kinks[h] >= b))
             else consts[h] for h in range(len(kinks))]
    nodes = []
    for h, t in enumerate(terms):
        if t is None and codes[h] == FAMILY_TABLE:
            xs = _table(params[h])[0]
            nodes.extend(xs[bisect_right(xs, a):bisect_left(xs, b)])
    nodes.sort()
    i, j = _bisect(nodes, sign)
    if i == j:
        return nodes[i]
    a = nodes[i] if i >= 0 else a
    b = nodes[j] if j < len(nodes) else b
    for h, t in enumerate(terms):
        if t is not None:
            c[0] += t if h < m else -t
            continue
        piece = _piece_coeffs(codes[h], params[h], 0.5 * (a + b))
        c.extend([0.0] * (len(piece) - len(c)))
        for k, v in enumerate(piece):
            c[k] += v if h < m else -v
    return poly_root(c, a, b)


# ---------------------------------------------------------------------------
# exact summation

# Above this many terms the extraction passes beat fsum over a list. Measured
# crossover on a 2-vCPU x86 VM: ~450-500 terms (fsum 13 us against 15 us at
# 400 terms; 407 us against 103 us at 12,000).
_TAIL = 512


def exact_sum(x: np.ndarray, top: float | None = None) -> float:
    """The correctly rounded sum of a 1-D float64 array, bit-identical to
    ``math.fsum(x.tolist())`` (NaN and inf propagate as fsum propagates
    them). ``top``, where given, must be a bound top >= max|x| of finite
    terms (a caller that has just checked their range knows one); it
    stands in for max|x|, which is then not read, and any such bound gives
    the same sum.

    Long arrays are first cut down by error-free extraction (Rump, Ogita &
    Oishi, "Accurate floating-point summation I", SIAM J. Sci. Comput. 31,
    2008): with sigma = 2**e a power of two at least (n + 2) * top,
    q = (sigma + x) - sigma keeps the leading bits of every term on one grid
    of sigma's ulps, so q.sum() is exact in any order and x - q is the exact
    remainder, at most 2**(e - 53) in size. That bound gives the next
    sigma, so only the first sigma needs top.

    Usually one pass settles the rounding (Rump, Ogita & Oishi, part II,
    SIAM J. Sci. Comput. 31, 2008): the n remainders of the first pass sum
    in floats to within B = n**2 * 2**(e - 104) of their exact sum, in any
    order (gamma_{n-1} times the sum of their sizes; Higham, "Accuracy and
    Stability of Numerical Algorithms", sec. 4.2). Where the exact sums of
    the first part, that float sum and -B or +B round alike, rounding is
    monotone, so that is the rounded sum. This exit is taken only where B is
    a normal float; an exact zero never passes it. Otherwise the passes go
    on: the remainder is compacted once it is mostly zeros, and fsum rounds
    the exact parts and what remains once.
    """
    parts = []
    if x.shape[0] > _TAIL:
        n = x.shape[0]
        if top is None:
            top = float(np.abs(x).max())
        e = math.frexp(top)[1] + (n + 1).bit_length()
        if math.isfinite(top) and e <= 1023:  # else sigma would overflow
            bound = math.ldexp(float(n * n), e - 104)
            while x.shape[0] > _TAIL:
                sigma = math.ldexp(1.0, e)
                q = sigma + x
                q -= sigma
                parts.append(float(q.sum()))
                x = np.subtract(x, q, out=q)
                if len(parts) == 1 and bound >= _TINY:
                    rest = float(x.sum())
                    low = math.fsum((parts[0], rest, -bound))
                    if low == math.fsum((parts[0], rest, bound)):
                        return low
                nonzero = x != 0.0
                if 2 * np.count_nonzero(nonzero) < x.shape[0]:
                    x = x[nonzero]
                e += (x.shape[0] + 1).bit_length() - 52
    return math.fsum(parts + x.tolist())


def prefix_layers(x: np.ndarray) -> np.ndarray:
    """Exact prefix sums of a finite 1-D float64 array, as layers: row k is
    the running sum of the k-th extraction q of x (as in ``exact_sum``,
    with sigma from the bound the layer before left), and column s of the
    rows adds up exactly to the sum of x[:s + 1]. A layer lies on one grid
    and its prefixes fit in 53 bits, so np.cumsum adds it exactly. Raises
    ValueError on a non-finite term, and OverflowError where the first
    sigma would overflow, i.e. where
    2**(frexp(max|x|)[1] + (n + 1).bit_length()) > 2**1023.
    """
    step = (x.shape[0] + 1).bit_length()
    top = float(np.abs(x).max(initial=0.0))
    if not math.isfinite(top):
        raise ValueError("exact prefix sums need finite terms")
    e = math.frexp(top)[1] + step
    if e > 1023:
        raise OverflowError("terms too large for exact prefix sums")
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
        lost = ((hi - a != b) | (hi - b != a)).any(axis=0)
    total = partial[-1]
    lost |= ~np.isfinite(total)
    return total + 0.0, lost

"""Coupling algebra for a star-shaped junction of m incoming and n outgoing roads.

All roads share one density interval [A, B]. A junction state ("candidate") is
a plain 1-D float vector of length m+n: entries 0..m-1 are the incoming roads'
densities, entries m..m+n-1 the outgoing ones.

The central object is the coupling value p: the junction behaves like a
virtual middle state, sending min(demand_i(u_i), supply_i(p)) out of each
incoming road and min(demand_j(p), supply_j(u_j)) into each outgoing road.
The total incoming and outgoing fluxes agree exactly on a closed interval of
p values; ``solve_junction`` brackets that interval and reports the fluxes,
which do not depend on the choice of p inside it.

On top of the solver sit the equilibrium tests (``is_germ_member`` for
stationary junction states, ``is_strict_germ_member`` for those with strictly
one-sided flux geometry on every road), the entropy-dissipation pairing
``dissipativity``, and the exact self-similar Riemann solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import (ConsistencyError, as_count, as_positive, as_reals,
                     as_road, as_sequence, as_state)
from .fluxes import Flux, conjugate


@dataclass(eq=False)
class JunctionSpec:
    """Topology and per-road fluxes of one junction.

    ``fluxes`` lists the m incoming roads first, then the n outgoing ones.
    Each road's kernel record (family code, parameter tuple, crest density,
    crest flux) is built once here, as Python ints, tuples and floats, and
    shared by every solver call.
    """

    m: int
    n: int
    fluxes: list[Flux]

    def __post_init__(self):
        self.m, self.n = as_count("m", self.m), as_count("n", self.n)
        fluxes = as_sequence("fluxes", self.fluxes, self.m + self.n)
        for f in fluxes:
            if not isinstance(f, Flux):
                raise ValueError(f"fluxes must be Flux objects, got {f!r}")
        self.rho_min = lo = fluxes[0].rho_min
        self.rho_max = hi = fluxes[0].rho_max
        if any((f.rho_min, f.rho_max) != (lo, hi) for f in fluxes):
            raise ValueError("all roads must share one density interval")
        self._roads = tuple((int(f.code), tuple(f.params.tolist()),
                             float(f.rho_crit), float(f.flux_max))
                            for f in self.fluxes)
        # numpy's pairwise sum, which a Python sum matches below 8 roads
        self._zero = 4.0 * kernels._EPS * float(
            np.abs([r[3] for r in self._roads]).sum())
        self._bounds = (lo - 1e-12 * (hi - lo), hi + 1e-12 * (hi - lo))
        self.lipschitz_max = float(max(f.lipschitz for f in self.fluxes))

    @property
    def span(self) -> float:
        return self.rho_max - self.rho_min

    @property
    def incoming(self) -> list[Flux]:
        return self.fluxes[:self.m]

    @property
    def outgoing(self) -> list[Flux]:
        return self.fluxes[self.m:]

    def road_index(self, road) -> int:
        """road, checked to index one of the m + n roads."""
        return as_road(road, self.m + self.n)

    def candidate(self, u) -> np.ndarray:
        """u as a junction state: ``as_state`` against [A, B] widened by
        1e-12 of the span, inline on a float array for every solve, and on
        a list or tuple of Python floats, as a new array."""
        kind = type(u)
        if kind is np.ndarray and u.dtype == float and u.shape == (
                self.m + self.n,):
            lo, hi = self._bounds
            for v in u.tolist():  # on a few entries Python beats numpy
                if not lo <= v <= hi:  # NaN fails this too
                    break
            else:
                return u
        elif (kind is list or kind is tuple) and len(u) == self.m + self.n:
            lo, hi = self._bounds
            for v in u:  # a bool or a numpy scalar is not a float
                if not (type(v) is float and lo <= v <= hi):
                    break
            else:
                return np.array(u)
        return as_state("junction state", u, self.m + self.n, *self._bounds)

    def road_flux_values(self, u: np.ndarray) -> np.ndarray:
        """f_h(u_h) for every road."""
        return np.array([f.eval(u[h]) for h, f in enumerate(self.fluxes)])

    @cached_property
    def _warm(self) -> kernels.WarmPieces:
        """The warm pieces of the coupling, for every hinted solve."""
        return kernels.WarmPieces(self._roads, self.m, self.rho_min,
                                  self.rho_max)


@dataclass(frozen=True, eq=False, init=False)
class JunctionSolution:
    """Coupling interval [p_min, p_max], per-road fluxes (read-only), their
    total, and the balance gap's active set at a point root (None on a
    plateau), which a later solve may take as its hint."""

    p_min: float
    p_max: float
    fluxes: np.ndarray
    total: float
    active: tuple[int, ...] | None = None

    def __init__(self, p_min, p_max, fluxes, total, active=None):
        # one per solve: fill the frozen fields at half the cost of the
        # generated __init__'s object.__setattr__ (as GridState does)
        f = self.__dict__
        f["p_min"], f["p_max"], f["fluxes"], f["total"], f["active"] = (
            p_min, p_max, fluxes, total, active)


def solve_junction(spec: JunctionSpec, u) -> JunctionSolution:
    """Locate the coupling interval and evaluate the junction fluxes: the
    cold solve.

    The interval is the zero set of the balance gap, which falls from sum
    d_i at rho_min to -sum s_j at rho_max by the structure of demand and
    supply: ``kernels.coupling_interval`` brackets it with two bisections
    over the roads' kinks and the ends, reading an end's sign only where a
    bisection reaches it, and solves the bracketing piece exactly. The
    fluxes are evaluated at its midpoint and must balance to 1e-12; a flux
    that is not finite fails, naming its road. A solve hinted with the
    ``active`` set of an earlier one is a stack of one (``_solve_stack``).
    """
    roads, m = spec._roads, spec.m
    consts = kernels.road_constants(roads, m, spec.candidate(u).tolist())
    # the line is +0.0: with -0.0 a sum of symmetric quadratics' c[1]
    # stays -0.0 and flips the branch of the quadratic formula
    p_min, p_max, active = kernels.coupling_interval(
        roads, m, consts, 0.0, 0.0, spec.rho_min, spec.rho_max, spec._zero)
    sol = _solution(spec, consts, float(p_min), float(p_max), active)
    if sol is None:  # consts now hold the fluxes
        for h, f in enumerate(consts):  # NaN fails the balance check too
            if not math.isfinite(f):
                raise ConsistencyError(f"junction flux of road {h} is {f!r}")
        raise ConsistencyError(
            f"junction fluxes do not balance: in={math.fsum(consts[:m])!r} "
            f"out={math.fsum(consts[m:])!r}")
    return sol


def _solution(spec: JunctionSpec, consts: list, p_min: float, p_max: float,
              active) -> JunctionSolution | None:
    """The solution on the coupling interval [p_min, p_max] of a state
    with these road constants, which are overwritten with its fluxes; None
    where the fluxes fail the balance check of 1e-12."""
    m = spec.m
    # Inside a plateau every road takes its own demand or supply, so the
    # midpoint gives exact fluxes there and held equilibria do not drift.
    kernels.fill_junction_fluxes(spec._roads, m, consts,
                                 p_min + 0.5 * (p_max - p_min), consts)
    total_in = math.fsum(consts[:m])  # a list is cheaper to fill and sum
    if not abs(total_in - math.fsum(consts[m:])) <= 1e-12 * max(
            1.0, abs(total_in)):
        return None
    fluxes = np.array(consts)
    # a run hands one solution to every step that repeats its state
    fluxes.setflags(write=False)
    return JunctionSolution(p_min, p_max, fluxes, total_in, active)


def _solve_stack(spec: JunctionSpec, states: np.ndarray,
                 hints) -> list[JunctionSolution]:
    """``solve_junction(spec, state)`` for every row of the stack of
    junction states, shape (rows, m + n), bit for bit, hinted with the
    row's entry of ``hints``: an earlier solution's ``active`` set, or
    None. Each row is solved by the first of these that holds:

    1. warm from its hint's piece: ``kernels.warm_roots``, run once over
       the stack, with the piece computed once per distinct hint
       (``JunctionSpec._warm``), where the piece certifies the row's root
       and the fluxes there balance;
    2. warm, in the same way, from the last active set that the rows
       before it found, where that differs from the row's hint;
    3. cold, by ``solve_junction``, looked up as this module's attribute.

    A solution found warm has the set it was found from as its ``active``.
    A hint never changes a result, only the work. The stack is checked
    value by value against [A, B] widened as ``JunctionSpec.candidate``
    widens it, which refuses a bad row by its own message; the
    ConsistencyError of a row names the row as its ``run``. Every
    solution's fluxes are a read-only array of their own."""
    lo, hi = spec._bounds
    values = states.tolist()
    for row in values:
        for v in row:  # on a step's few rows, cheaper than numpy's min
            if not lo <= v <= hi:  # NaN fails this too; min() skips it
                for state in states:
                    spec.candidate(state)
    warm = spec._warm
    out = []
    before = None  # the last active set that the rows so far found
    for k, (got, hint) in enumerate(zip(kernels.warm_roots(
            warm, values, hints, [0.0] * states.shape[0]), hints)):
        sol = got and _solution(spec, got[1], got[0], got[0], hint)
        if sol is None and before is not None and before != hint:
            got = kernels.warm_roots(warm, [values[k]], [before], [0.0])[0]
            sol = got and _solution(spec, got[1], got[0], got[0], before)
        if sol is None:
            try:
                sol = solve_junction(spec, states[k])
            except ConsistencyError as exc:
                exc.run = k
                raise
        out.append(sol)
        before = sol.active or before
    return out


# ---------------------------------------------------------------------------
# equilibrium (germ) membership
#
# On a bell-shaped f, the interval I between k_h and p holds f's minimum at
# an end, and its maximum at the crest when I contains it, at an end
# otherwise; every chord question is a few comparisons.

def is_germ_member(spec: JunctionSpec, k, tol: float = 1e-9,
                   method: str = "godunov") -> bool:
    """Is k a stationary junction state?

    ``method="godunov"`` checks that every junction flux matches the road's
    own flux value. ``method="oleinik"`` checks that the road fluxes balance
    and the one-sided chord inequalities at the left end p of the coupling
    interval: on the interval between k_h and p, f stays at least f(k_h) -
    tol where it must rise and at most f(k_h) + tol where it must fall,
    decided exactly from the bell shape. The two agree; ``tol`` must be
    positive and finite.
    """
    if method not in ("godunov", "oleinik"):
        raise ValueError(f"unknown method {method!r}")
    tol = as_positive("tol", tol)
    member = _member_by_fluxes if method == "godunov" else _member_by_chords
    return member(spec, spec.candidate(k), tol)


def _member_by_fluxes(spec: JunctionSpec, k: np.ndarray, tol: float) -> bool:
    sol = solve_junction(spec, k)
    gap = np.abs(sol.fluxes - spec.road_flux_values(k))
    return bool(gap.max() <= tol)


def _rises(spec: JunctionSpec, h: int, kh: float, p: float) -> bool:
    """Must road h's flux rise as s leaves k_h toward p? Incoming roads need
    f(s) >= f(k_h) for s above k_h, outgoing ones for s below it."""
    return (p > kh) == (h < spec.m)


def _member_by_chords(spec: JunctionSpec, k: np.ndarray, tol: float) -> bool:
    fk = spec.road_flux_values(k)
    balance = math.fsum(fk[:spec.m].tolist()) - math.fsum(fk[spec.m:].tolist())
    if abs(balance) > tol:
        return False
    p = solve_junction(spec, k).p_min
    for h, flux in enumerate(spec.fluxes):
        kh, fkh = float(k[h]), float(fk[h])
        if p == kh:
            continue
        fp = flux.eval(p)
        if _rises(spec, h, kh, p):
            if fp - fkh < -tol:  # min over I is min(f(k_h), f(p))
                return False
        elif min(kh, p) <= flux.rho_crit <= max(kh, p):
            if flux.flux_max - fkh > tol:
                return False
        elif fp - fkh > tol:  # max over I is max(f(k_h), f(p))
            return False
    return True


def strict_witness(spec: JunctionSpec, k, tol: float = 1e-9) -> float | None:
    """A coupling value certifying strict equilibrium, or None.

    A witness p makes every road's chord inequality strict on the punctured
    interval (k_h, p]: f moves the required way as s leaves k_h (where it
    must rise, k_h lies strictly on the near side of the crest; where it
    must fall, on the crest or beyond it) and the margin |f(p) - f(k_h)|
    at p exceeds tol. On a bell-shaped f the two together make f(s) -
    f(k_h) one-signed on all of (k_h, p]. The search space is the coupling
    interval cut down by each road's analytic admissible window; the exact
    k_h values are always tried as candidates because a point-sized
    coupling interval carries the rounding of the flux inverses that locate
    it. ``tol`` must be positive and finite.
    """
    tol = as_positive("tol", tol)
    k = spec.candidate(k)
    sol = solve_junction(spec, k)
    if np.abs(sol.fluxes - spec.road_flux_values(k)).max() > tol:
        return None

    lo, hi = spec.rho_min, spec.rho_max
    for i, flux in enumerate(spec.incoming):
        ki = float(k[i])
        hi = min(hi, conjugate(flux, ki) if ki < flux.rho_crit else ki)
    for j, flux in enumerate(spec.outgoing):
        kj = float(k[spec.m + j])
        lo = max(lo, conjugate(flux, kj) if kj > flux.rho_crit else kj)
    plo = max(lo, sol.p_min)
    phi = min(hi, sol.p_max)

    candidates: list[float] = []
    if phi >= plo:
        candidates.append(0.5 * (plo + phi))
    candidates.extend(float(kh) for kh in k)
    candidates.extend((plo, phi, sol.p_min, sol.p_max))
    seen = set()
    for p in candidates:
        if p in seen or not spec.rho_min <= p <= spec.rho_max:
            continue
        seen.add(p)
        if _strict_margins_hold(spec, k, p, tol):
            return p
    return None


def is_strict_germ_member(spec: JunctionSpec, k, tol: float = 1e-9) -> bool:
    """True when some coupling value makes every chord inequality strict."""
    return strict_witness(spec, k, tol) is not None


def _strict_margins_hold(spec: JunctionSpec, k: np.ndarray, p: float,
                         tol: float) -> bool:
    # Strict margins on every road imply the flux identities, so a passing p
    # is a genuine witness even if it came from a sloppy candidate list.
    for h, flux in enumerate(spec.fluxes):
        kh = float(k[h])
        if p == kh:
            continue  # the punctured interval is empty
        margin = flux.eval(p) - flux.eval(kh)
        rise = _rises(spec, h, kh, p)
        # the crest lies strictly ahead of k_h on the way to p
        ahead = flux.rho_crit > kh if p > kh else flux.rho_crit < kh
        if ahead != rise or not (margin if rise else -margin) > tol:
            return False
    return True


def dissipativity(spec: JunctionSpec, k1, k2) -> float:
    """Net entropy dissipation pairing of two junction states.

    Incoming roads contribute their entropy flux, outgoing roads subtract
    theirs; the result is nonnegative whenever both states are stationary.
    """
    terms = []
    # each term is Flux.entropy_flux on the scalar kernel, sign(0) = 0
    for (code, par, _, _), a, b in zip(spec._roads,
                                       spec.candidate(k1).tolist(),
                                       spec.candidate(k2).tolist()):
        sign = 1.0 if a > b else -1.0 if a < b else 0.0
        terms.append(sign * (kernels.flux_scalar(code, par, a)
                             - kernels.flux_scalar(code, par, b)))
    return math.fsum(terms[:spec.m]) - math.fsum(terms[spec.m:])


# ---------------------------------------------------------------------------
# exact self-similar Riemann solver

@dataclass(frozen=True, eq=False)
class RiemannSolution:
    """Junction Riemann solution: the coupling data, the road traces at the
    junction and the initial road states; ``sample`` evaluates each road's
    self-similar fan exactly."""

    solution: JunctionSolution
    traces: np.ndarray
    spec: JunctionSpec
    initial: np.ndarray

    def sample(self, road: int, xi):
        """Density on the given road along the ray x/t = xi.

        The road carries the classical fan between its initial state, far
        from the junction, and its trace at it; with left and right the
        states on either side, u(xi) is the argmin over [left, right] of
        f(x) - xi*x when left < right and the argmax when left > right (the
        convex/concave envelope construction). The extremum lies at an end
        or at a root of f' - xi (``kernels.real_roots``), at a node for a
        tabulated flux. xi is clamped to the road's half-line (x <= 0
        incoming, x >= 0 outgoing); ties go to the candidate nearest the
        trace. Scalar in, scalar out; arrays map elementwise.
        """
        flux = self.spec.fluxes[self.spec.road_index(road)]
        incoming = road < self.spec.m
        far, trace = float(self.initial[road]), float(self.traces[road])
        lower = (far < trace) if incoming else (trace < far)
        lo, hi = min(far, trace), max(far, trace)
        if flux.code == kernels.FAMILY_TABLE:
            xs = kernels._table(flux.params)[0]
            nodes = xs[(xs > lo) & (xs < hi)]
        else:
            c = kernels._piece_coeffs(flux.code, flux.params, lo)
            d = [k * c[k] for k in range(1, len(c))]

        def state(x: float) -> float:
            x = min(x, 0.0) if incoming else max(x, 0.0)
            inner = (nodes if flux.code == kernels.FAMILY_TABLE else
                     kernels.real_roots([d[0] - x, *d[1:]], lo, hi))
            cands = np.array([trace, far, *inner])
            cands = cands[np.argsort(np.abs(cands - trace), kind="stable")]
            g = kernels.flux_array(flux.code, flux.params, cands) - x * cands
            return float(cands[np.argmin(g) if lower else np.argmax(g)])

        x = as_reals("xi", xi)
        out = [state(v) for v in np.ravel(x).tolist()]
        return (out[0] if isinstance(x, float)
                else np.array(out).reshape(x.shape))


def riemann_solve(spec: JunctionSpec, u0) -> RiemannSolution:
    """Solve the junction Riemann problem with constant initial road states.

    The junction traces are the argmin/argmax of each road's flux between the
    initial state and the coupling value, which makes every incoming wave
    nonpositive in speed and every outgoing wave nonnegative; each road then
    carries the classical self-similar fan between its initial state and its
    trace, which ``RiemannSolution.sample`` evaluates.
    """
    u0 = spec.candidate(u0)
    sol = solve_junction(spec, u0)
    p = sol.p_min
    traces = np.array([_trace(flux, float(u0[h]), p, h < spec.m)
                       for h, flux in enumerate(spec.fluxes)])
    return RiemannSolution(sol, traces, spec, u0.copy())


def _trace(flux: Flux, u0: float, p: float, incoming: bool) -> float:
    """Junction-side boundary value of one road's self-similar solution;
    u0 and p lie in [A, B], where f needs no range check."""
    crit = flux.rho_crit
    if u0 == p:
        return u0
    if (u0 < p) == incoming:
        # argmin of f between u0 and p; ties keep the road's own state
        f = kernels.flux_scalar
        return u0 if f(flux.code, flux.params, u0) <= f(
            flux.code, flux.params, p) else p
    if incoming:
        if p <= crit <= u0:
            return crit
        return u0 if u0 <= crit else p
    if u0 <= crit <= p:
        return crit
    return p if p <= crit else u0

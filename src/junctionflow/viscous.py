"""Viscous counterparts of the junction model.

``stationary_profile`` solves the steady balance
epsilon * rho' = f_h(rho) - f_h(k_h) out of the junction on every road,
which connects a strict equilibrium state k to its coupling value p; these
profiles exist exactly when the strict chord inequalities hold, and decay
to k_h away from the junction as inverses of distance integrals.

The epsilon-regularized network system itself (Godunov convection plus
centered diffusion, with one junction value w per step: Coclite &
Garavello, "Vanishing viscosity for traffic on networks", 2010) is a run
of ``scheme``: ``RunConfig.epsilon`` > 0, marched by ``run``,
``run_batch`` and ``step`` like any other. ``parabolic_timestep`` is 0.9
of its step bound, and ``run_parabolic`` a lean run of it at that step,
the entry the benchmark calls. The parabolic solver is used as a
cross-check of the hyperbolic scheme as epsilon shrinks, not as a
production solver. ``initial_smoothing`` mollifies cell data for it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (PreconditionError, as_bounded, as_count, as_positive,
                     as_reals, as_road)
from .fluxes import conjugate
from .junction import JunctionSpec, _strict_margins_hold, strict_witness
from .scheme import (_MAX_COUNT, NetworkMesh, RunConfig, _pack,
                     _parabolic_bound, _runs)

_DECAY_CUTOFF = 1e-12
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)
_GRID = 64  # S tabulated at this many points brackets every Newton solve


# ---------------------------------------------------------------------------
# stationary profiles: at distance s from the junction epsilon * S(rho) = s,
# S(rho) = sigma * int_p^rho dr / (f(r) - f(k)), sigma = -1 on incoming and
# +1 on outgoing roads; each family's S comes with dS/dv, v = log|rho - k|.

def _deflate(c: list[float], x: float) -> list[float]:
    """Quotient q of c(r) = (r - x) q(r) + c(x), ascending coefficients."""
    q = list(c[1:])
    for t in range(len(q) - 2, -1, -1):
        q[t] += x * q[t + 1]
    return q


def _pole_log(r: np.ndarray, k: float, kb: float) -> np.ndarray:
    """log|(r - k)/(r - kb)| / (k - kb) = -(log|1 + x|/x)/(r - kb) with
    x = (kb - k)/(r - kb); log1p(x) keeps it exact as kb -> k (the crest)."""
    x = (kb - k) / (r - kb)
    log = np.log(np.abs((r - k) / (r - kb)))
    near = np.abs(x) < 0.5
    log[near] = np.log1p(x[near])
    return -np.divide(log, x, out=np.ones_like(x), where=x != 0.0) / (r - kb)


def _poly_distance(flux, k: float, p: float, sigma: float) -> Callable:
    """S for a polynomial flux: with kb the conjugate of k, f(r) - f(k) =
    (r - k)(r - kb) Q(r), and 1/Q = alpha + beta (r - k) + (r - k)(r - kb) H
    in Newton form. The pole terms integrate in closed form, H by Gauss-
    Legendre (H = 0 for quadratics). Divided differences of Q are
    polynomials: nothing cancels, even at the crest, where kb = k."""
    q1 = _deflate(kernels._piece_coeffs(flux.code, flux.params, k), k)
    # kb from f(k) is off by sqrt(eps) near the crest, where f is flat; as
    # the root of Q1 = (f(r) - f(k))/(r - k) it is well conditioned
    kb = conjugate(flux, k)
    q = _deflate(q1, kb)
    if kernels._horner(q, k) == 0.0 or kernels._horner(q, kb) == 0.0:
        raise PreconditionError(
            f"f' vanishes to higher order at k_h={k}: no decay rate")
    kb -= kernels._horner(q1, kb) / kernels._horner(q, kb)  # Q1' = Q at kb
    q = _deflate(q1, kb)  # drops the rounding of Q1(kb)
    qk, qkb = kernels._horner(q, k), kernels._horner(q, kb)
    q_k = _deflate(q, k)  # Q[k, r]
    dd = kernels._horner(q_k, kb)  # Q[k, kb]
    beta = -dd / (qk * qkb)
    # H(r) = (Q[k,kb] Q[kb,r] - Q(kb) Q[k,kb,r]) / (Q(k) Q(kb) Q(r))
    num = [(dd * a - qkb * b) / (qk * qkb)
           for a, b in zip(_deflate(q, kb), _deflate(q_k, kb) + [0.0])]
    pole_p = _pole_log(np.array([p]), k, kb)[0]

    def distance(rho):
        total = ((_pole_log(rho, k, kb) - pole_p) / qk
                 + beta * np.log(np.abs((rho - kb) / (p - kb))))
        if any(num):
            half = 0.5 * (rho - p)
            r = p + half[:, None] * (1.0 + _GAUSS_X)
            total += half * ((kernels._horner(num, r)
                              / kernels._horner(q, r)) @ _GAUSS_W)
        return sigma * total, sigma / kernels._horner(q1, rho)
    return distance


def _table_distance(flux, k: float, p: float, sigma: float) -> Callable:
    """S for a tabulated flux: the nodes between p and k cut the way into
    segments inside one panel each, where f(r) - f(k) = slope (r - z) and
    the integral is a log; z = k on the segment that ends at k."""
    xs, ys = kernels._table(flux.params)
    toward = 1.0 if k > p else -1.0
    inner = xs[((xs - p) * toward > 0.0) & ((k - xs) * toward > 0.0)]
    starts = np.concatenate(([p], inner[::int(toward)]))
    panel = np.searchsorted(xs, starts, "right" if k > p else "left") - 1
    slope = (ys[panel + 1] - ys[panel]) / (xs[panel + 1] - xs[panel])
    zero = xs[panel] + (flux.eval(k) - ys[panel]) / slope
    zero[-1] = k
    logs = np.log(np.abs((starts[1:] - zero[:-1]) / (starts - zero)[:-1]))
    before = np.concatenate(([0.0], np.cumsum(logs / slope[:-1])))

    def distance(rho):
        seg = np.clip(np.searchsorted(toward * starts, toward * rho, "right")
                      - 1, 0, starts.shape[0] - 1)
        z = zero[seg]
        log = np.log(np.abs((rho - z) / (starts[seg] - z)))
        return (sigma * (before[seg] + log / slope[seg]),
                sigma * (rho - k) / (slope[seg] * (rho - z)))
    return distance


def _invert(distance, k, side, grid, at_grid, target):
    """rho with S(rho) = target: Newton steps in v = log|rho - k| from the
    secant of the target's grid cell, bisecting where a step leaves the
    bracket. S is near linear in v (exp(-v) at a crest): a few steps do."""
    target = np.clip(target, at_grid[0], at_grid[-1])
    cell = np.clip(np.searchsorted(at_grid, target), 1, _GRID - 1)
    far, near = grid[cell - 1], grid[cell]
    v = np.interp(target, at_grid, grid)
    for _ in range(100):
        rho = k + side * np.exp(v)
        dist, slope = distance(rho)
        far = np.where(dist < target, v, far)
        near = np.where(dist < target, near, v)
        new = v - (dist - target) / slope
        out = ~((new - near) * (new - far) <= 0.0)
        new[out] = 0.5 * (near[out] + far[out])
        # done when rho moves by a few ulps, all a density resolves near k
        done = np.abs(new - v) * np.exp(v) <= 4.0 * kernels._EPS * abs(rho)
        v = new
        if done.all():
            break
    return k + side * np.exp(v)


@dataclass(frozen=True, eq=False)
class ViscousProfile:
    """Stationary viscous solution attached to a strict equilibrium state.

    ``samples`` holds one (positions, densities) pair per road with
    ascending positions (negative on incoming roads); the junction value p
    sits at x = 0 on every road. ``residuals`` records the per-road maxima
    of |epsilon * rho' - (f_h(rho) - f_h(k_h))| measured at sample midpoints
    with a high-order difference quotient.
    """

    epsilon: float
    k: np.ndarray
    p: float
    samples: tuple[tuple[np.ndarray, np.ndarray], ...]
    residuals: np.ndarray
    _roads: tuple  # per road: distance from the junction -> density

    def evaluate(self, road: int, x):
        """Density at position x (junction at 0); constant k_h beyond the
        sampled decay window. ``road`` must lie in range(m + n), and x is
        one finite number or an array of them."""
        return self._roads[as_road(road, len(self._roads))](
            np.abs(as_reals("x", x)))


def road_profile(flux, k_h: float, p: float, epsilon: float, window: float,
                 n_samples: int = 257, incoming: bool = True):
    """Solve one road's stationary balance away from the junction.

    Returns (distances, densities, residual, at_distance): ``distances`` is
    an ascending grid of distances from the junction starting at 0 where the
    density equals p; the density relaxes monotonically to k_h. On incoming
    roads distance grows as x decreases, which flips the sign of rho' in
    the balance epsilon * rho'(x) = f(rho) - f(k_h); k_h and p must lie
    in the flux's [rho_min, rho_max]. Raises PreconditionError where no
    profile leads from p to k_h: where the balance drives rho away from
    k_h at p, or where the conjugate of k_h, at which f(rho) = f(k_h)
    stops it, lies between them or at p.
    """
    k_h, p = (as_bounded(name, x, flux.rho_min, flux.rho_max)
              for name, x in (("k_h", k_h), ("p", p)))
    epsilon = as_positive("epsilon", epsilon)
    dist = np.linspace(0.0, as_positive("window", window),
                       as_count("n_samples", n_samples, 3))
    fk = flux.eval(k_h)
    sign = -1.0 if incoming else 1.0
    side = math.copysign(1.0, p - k_h)
    table = flux.code == kernels.FAMILY_TABLE
    stop, distance, grid, at_grid = -1.0, None, None, None  # settled
    if abs(p - k_h) > _DECAY_CUTOFF:
        kb = conjugate(flux, k_h)
        if not (sign * (flux.eval(p) - fk) * (k_h - p) > 0.0
                and (kb == k_h or (kb - p) * (kb - k_h) > 0.0)):
            raise PreconditionError(
                f"no {'incoming' if incoming else 'outgoing'} profile leads "
                f"from p={p!r} to k_h={k_h!r}")
        distance = (_table_distance if table else _poly_distance)(
            flux, k_h, p, sign)
        grid = np.linspace(math.log(abs(p - k_h)), math.log(_DECAY_CUTOFF),
                           _GRID)
        at_grid = distance(k_h + side * np.exp(grid))[0]
        stop = min(window, epsilon * at_grid[-1])

    def at_distance(s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, k_h)
        inside = (s >= 0.0) & (s <= stop)
        if inside.any():
            out[inside] = _invert(distance, k_h, side, grid, at_grid,
                                  s[inside] / epsilon)
        return out if out.ndim else float(out)

    densities = at_distance(dist)
    if stop < 0.0:
        return dist, densities, 0.0, at_distance

    # residual audit at sample midpoints via a 5-point derivative stencil
    # step size balances the h^4 truncation of the stencil (profile
    # derivatives grow like a power of 1/epsilon inside the boundary layer)
    # against rounding noise in the evaluated densities
    h = min(epsilon / 1024.0, (dist[1] - dist[0]) / 4.0)
    mids = 0.5 * (dist[:-1] + dist[1:])
    rho = at_distance(mids + h * np.arange(-2.0, 3.0)[:, None])
    drho_ds = (rho[0] - 8 * rho[1] + 8 * rho[3] - rho[4]) / (12.0 * h)
    if table:
        # rho'' jumps where rho crosses a node: a stencil straddling one
        # becomes one-sided, forward when the node lies behind the midpoint
        below = np.searchsorted(kernels._table(flux.params)[0], rho)
        kinked = below[0] != below[4]  # rho is monotone along the stencil
        step = np.where((below[0] != below[2]) | (mids < 4 * h), h, -h)
        step = step[kinked]
        one = at_distance(mids[kinked] + step * np.arange(5.0)[:, None])
        drho_ds[kinked] = (-25 * one[0] + 48 * one[1] - 36 * one[2]
                           + 16 * one[3] - 3 * one[4]) / (12.0 * step)
    residual = float(np.abs(epsilon * sign * drho_ds
                            - (flux.eval(rho[2]) - fk)).max())
    return dist, densities, residual, at_distance


def stationary_profile(spec: JunctionSpec, k, epsilon: float, window: float,
                       n_samples: int = 257,
                       p: float | None = None) -> ViscousProfile:
    """Stationary viscous profile for a strict equilibrium state.

    The junction value defaults to a strict witness of k; a caller-supplied
    ``p`` is accepted after verifying the strict chord margins at that value.
    Raises PreconditionError when k admits no such value (non-strict
    equilibria have no decaying profile on every road).
    """
    k = spec.candidate(k)
    if p is None:
        p = strict_witness(spec, k)
        if p is None:
            raise PreconditionError(
                "stationary profiles require a strict equilibrium state")
    else:
        p = as_bounded("p", p, spec.rho_min, spec.rho_max)
        if not _strict_margins_hold(spec, k, p, 1e-12):
            raise PreconditionError(
                f"p={p} is not a strict coupling value for this state")
    samples = []
    roads = []
    residuals = np.empty(spec.m + spec.n)
    for h, flux in enumerate(spec.fluxes):
        dist, dens, res, road = road_profile(flux, float(k[h]), float(p),
                                             epsilon, window, n_samples,
                                             incoming=h < spec.m)
        residuals[h] = res
        roads.append(road)
        if h < spec.m:
            samples.append((-dist[::-1], dens[::-1].copy()))
        else:
            samples.append((dist, dens))
    return ViscousProfile(float(epsilon), k, float(p), tuple(samples),
                          residuals, tuple(roads))


# ---------------------------------------------------------------------------
# the viscous system is a run: RunConfig.epsilon

def parabolic_timestep(mesh: NetworkMesh, epsilon: float) -> float:
    """The explicit step: 0.9 of the monotonicity bound
    1 / (L / dx + 3 eps / dx^2) (``scheme._parabolic_bound``)."""
    return 0.9 * _parabolic_bound(mesh, as_positive("epsilon", epsilon))


def run_parabolic(mesh: NetworkMesh, epsilon: float, initial, t_final):
    """A lean ``run`` of ``RunConfig(mesh, 0.9, t_final, epsilon)``."""
    config = RunConfig(mesh, 0.9, t_final, epsilon=as_positive("epsilon",
                                                               epsilon))
    return _runs(config, _pack(mesh, initial), False)[0]


def initial_smoothing(data, epsilon: float, dx: float | None = None,
                      width: int | None = None):
    """Mollify cell data by iterated three-point averages.

    The smoothing radius covers about ``width`` cells, defaulting to
    epsilon/dx. Each pass is a doubly stochastic averaging with reflecting
    ends, so the range, total variation, and L1 norm of the data never grow.
    Accepts a single array or a per-road sequence of arrays.
    """
    if width is None:  # dx=None is refused here too
        cells = as_bounded("epsilon", epsilon, 0.0) / as_positive("dx", dx)
        if not cells < _MAX_COUNT:
            raise ValueError(f"epsilon/dx={cells:g} cells is too wide a "
                             f"smoothing to count")
        width = round(cells)
    width = as_count("width", width, 0)
    single = isinstance(data, np.ndarray)
    arrays = [data] if single else list(data)
    rounds = (width + 1) // 2
    out = []
    for arr in arrays:
        u = np.asarray(arr, dtype=float).copy()
        if u.shape[0] >= 2:
            for _ in range(rounds):
                padded = np.concatenate(([u[0]], u, [u[-1]]))
                u = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
        out.append(u)
    return out[0] if single else tuple(out)

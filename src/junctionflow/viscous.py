"""Viscous counterparts of the junction model.

Two independent tools live here. ``stationary_profile`` integrates the
steady balance epsilon * rho' = f_h(rho) - f_h(k_h) out of the junction on
every road, which connects a strict equilibrium state k to its coupling
value p; these profiles exist exactly when the strict chord inequalities
hold, and they decay exponentially to k_h away from the junction.

``parabolic_step`` / ``run_parabolic`` march the epsilon-regularized network
system (Godunov convection plus centered diffusion) with a single junction
value w per step chosen so the total convective+diffusive flux balances
(Coclite & Garavello, "Vanishing viscosity for traffic on networks", 2010).
They share the hyperbolic scheme's time loop, road update and GridState;
only the junction fluxes differ. The parabolic solver is used as a
cross-check of the hyperbolic scheme as epsilon shrinks, not as a
production solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import kernels
from .errors import ConsistencyError, PreconditionError
from .junction import JunctionSpec, _strict_margins_hold, strict_witness
from .scheme import (GridState, NetworkMesh, _check_timestep, _march, _update,
                     discretize_initial, junction_state)

_DECAY_CUTOFF = 1e-12


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")


@dataclass(frozen=True, eq=False)
class _RoadProfile:
    """One road's half of a stationary profile, parametrized by distance
    from the junction."""

    k_h: float
    stop: float
    dense: object | None  # scipy dense-output interpolant on [0, stop]

    def at_distance(self, s):
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.full(s.shape, self.k_h)
        if self.dense is not None:
            inside = (s >= 0.0) & (s <= self.stop)
            if inside.any():
                out[inside] = self.dense(s[inside])[0]
        return float(out[0]) if scalar else out


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
    _roads: tuple[_RoadProfile, ...]
    _m: int

    def evaluate(self, road: int, x):
        """Density at position x (junction at 0); constant k_h beyond the
        sampled decay window."""
        return self._roads[road].at_distance(np.abs(x))


def road_profile(flux, k_h: float, p: float, epsilon: float, window: float,
                 n_samples: int = 257, incoming: bool = True):
    """Integrate one road's stationary balance away from the junction.

    Returns (distances, densities, residual, road_data): ``distances`` is an
    ascending grid of distances from the junction starting at 0 where the
    density equals p; the density relaxes monotonically to k_h. On incoming
    roads distance grows as x decreases, which flips the sign of rho' in
    the balance epsilon * rho'(x) = f(rho) - f(k_h).
    """
    _check_epsilon(epsilon)
    if not (math.isfinite(window) and window > 0):
        raise ValueError("window must be positive and finite")
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    dist = np.linspace(0.0, window, n_samples)
    fk = flux.eval(k_h)
    sign = -1.0 if incoming else 1.0

    if abs(p - k_h) <= _DECAY_CUTOFF:
        road = _RoadProfile(k_h, -1.0, None)
        return dist, np.full(n_samples, k_h), 0.0, road

    def rhs(_, y):
        return [sign * (flux.eval(float(y[0])) - fk) / epsilon]

    def settled(_, y):
        return abs(y[0] - k_h) - _DECAY_CUTOFF

    settled.terminal = True
    # DOP853: its high-order dense output keeps the derivative audit below
    # the interpolation noise a lower-order interpolant would introduce
    sol = solve_ivp(rhs, (0.0, window), [p], t_eval=dist, events=settled,
                    dense_output=True, method="DOP853", rtol=1e-12,
                    atol=1e-15, max_step=max(epsilon, window / 16.0))
    if not sol.success:
        raise ConsistencyError(f"profile integration failed: {sol.message}")
    stop = window
    if sol.status == 1 and sol.t_events[0].size:
        stop = float(sol.t_events[0][0])
    densities = np.full(n_samples, k_h)
    densities[:sol.y.shape[1]] = sol.y[0]
    road = _RoadProfile(k_h, stop, sol.sol)

    # residual audit at sample midpoints via a 5-point derivative stencil
    # step size balances the h^4 truncation of the stencil (profile
    # derivatives grow like a power of 1/epsilon inside the boundary layer)
    # against rounding noise from the interpolant evaluations
    delta = dist[1] - dist[0]
    h = min(epsilon / 1024.0, delta / 4.0)
    mids = 0.5 * (dist[:-1] + dist[1:])
    r_m2 = road.at_distance(mids - 2 * h)
    r_m1 = road.at_distance(mids - h)
    r_p1 = road.at_distance(mids + h)
    r_p2 = road.at_distance(mids + 2 * h)
    drho_ds = (r_m2 - 8 * r_m1 + 8 * r_p1 - r_p2) / (12.0 * h)
    drho_dx = sign * drho_ds
    residual = float(np.abs(epsilon * drho_dx
                            - (flux.eval(road.at_distance(mids)) - fk)).max())
    return dist, densities, residual, road


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
        if not spec.rho_min <= p <= spec.rho_max:
            raise ValueError("p outside the density interval")
        if not _strict_margins_hold(spec, k, float(p), 1e-12):
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
                          residuals, tuple(roads), spec.m)


# ---------------------------------------------------------------------------
# explicit parabolic solver

def parabolic_timestep(mesh: NetworkMesh, epsilon: float,
                       safety: float = 0.9) -> float:
    """Monotonicity-safe explicit step: the combined convection+diffusion
    bound is the binding one; the two classical bounds are kept visible."""
    dx = mesh.dx
    lmax = mesh.spec.lipschitz_max
    return safety * min(dx / (2.0 * lmax),
                        dx * dx / (4.0 * epsilon),
                        1.0 / (2.0 * lmax / dx + 4.0 * epsilon / (dx * dx)))


def parabolic_step(state: GridState, mesh: NetworkMesh, epsilon: float,
                   dt: float) -> GridState:
    """One explicit update of the epsilon-regularized network system."""
    _check_epsilon(epsilon)
    dx = mesh.dx
    _check_timestep(dt, min(dx / (2.0 * mesh.spec.lipschitz_max),
                            dx * dx / (4.0 * epsilon)))
    new_values, _, _ = _parabolic_advance(state.values, mesh, epsilon, dt)
    return GridState(state.time_step + 1, state.time + dt, new_values)


def _junction_value(values, mesh: NetworkMesh, eps: float) -> float:
    spec = mesh.spec
    ustar = junction_state(spec, values).tolist()
    eps2dx = 2.0 * eps / mesh.dx
    span = spec.rho_max - spec.rho_min
    w = kernels.solve_visc_w(spec._codes, spec._params, spec.m, ustar,
                             eps2dx, spec.rho_min, spec.rho_max,
                             1e-15 * span, 1e-9 * spec.lipschitz_sum)
    if math.isnan(w):
        raise ConsistencyError(
            "junction balance has no sign change over the density interval")
    return float(w)


def _parabolic_advance(values, mesh: NetworkMesh, eps: float, dt: float):
    """The junction value w, the convective+diffusive junction fluxes it
    gives every road, then the shared road update with diffusion; returns
    (new values, boundary flux, w)."""
    spec = mesh.spec
    w = _junction_value(values, mesh, eps)
    eps2dx = 2.0 * eps / mesh.dx
    gstar = np.empty(spec.m + spec.n)
    for h, flux in enumerate(spec.fluxes):
        a = values[h]
        flux._check_range(a)  # every cell in [A, B], as Flux.godunov demands
        gstar[h] = flux.eval(w) - eps2dx * ((w - a[-1]) if h < spec.m
                                            else (a[0] - w))
    return *_update(values, mesh, dt, gstar, eps=eps), w


@dataclass(eq=False)
class ParabolicTrajectory:
    """Record of one parabolic run (all time levels kept)."""

    mesh: NetworkMesh
    epsilon: float
    states: list[GridState]
    times: np.ndarray
    dts: np.ndarray
    junction_values: np.ndarray
    boundary_net: np.ndarray
    masses: np.ndarray

    @property
    def final(self) -> GridState:
        return self.states[-1]


def run_parabolic(mesh: NetworkMesh, epsilon: float, initial,
                  t_final: float) -> ParabolicTrajectory:
    """March the parabolic system to t_final with absorbing outer ends.

    ``initial`` is a GridState or per-road data accepted by
    ``discretize_initial``. The time loop is ``scheme.run``'s: the last
    step is shortened to land on t_final exactly.
    """
    _check_epsilon(epsilon)
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError("t_final must be nonnegative and finite")
    states, _, times, dts, bnet, masses, wlog = _march(
        mesh, discretize_initial(mesh, initial),
        parabolic_timestep(mesh, epsilon), t_final,
        lambda values, dt: _parabolic_advance(values, mesh, epsilon, dt))
    return ParabolicTrajectory(mesh, float(epsilon), states, times, dts,
                               np.array(wlog), bnet, masses)


def initial_smoothing(data, epsilon: float, dx: float | None = None,
                      width: int | None = None):
    """Mollify cell data by iterated three-point averages.

    The smoothing radius covers about ``width`` cells, defaulting to
    epsilon/dx. Each pass is a doubly stochastic averaging with reflecting
    ends, so the range, total variation, and L1 norm of the data never grow.
    Accepts a single array or a per-road sequence of arrays.
    """
    if width is None:
        if dx is None:
            raise ValueError("need dx to derive the smoothing width")
        width = int(round(epsilon / dx))
    if width < 0:
        raise ValueError("width must be nonnegative")
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

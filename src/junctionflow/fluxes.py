"""Bell-shaped scalar flux functions and the two-point Godunov machinery.

A flux is admissible when it vanishes at both endpoints of its density
interval, has a single interior maximizer, and is strictly monotone on each
side of it. Constructors validate the shape exactly (in closed form for the
quadratic families, by the sign changes of f' for polynomial data, at node
level for tabulated data) and precompute the critical density, the crest
value, and a Lipschitz bound on f'.

Piecewise-linear (tabulated) fluxes have f' constant on panels; they are
accepted but flagged via ``satisfies_nld=False`` since some trace-level theory
assumes a nowhere-linear flux. The discrete algorithms only need the bell
shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import as_bounded, as_positive, as_reals


@dataclass(frozen=True, eq=False)
class Flux:
    """One road's flux on the density interval [rho_min, rho_max].

    Attributes
    ----------
    family:
        One of ``quadratic-lwr``, ``symmetric-quadratic``,
        ``custom-polynomial``, ``tabulated``.
    params:
        Packed parameter vector in the kernel layout (see ``kernels``).
    rho_min, rho_max:
        Endpoints of the admissible density interval; f vanishes at both.
    rho_crit:
        The unique interior maximizer of f.
    lipschitz:
        Upper bound on |f'| over the interval.
    flux_max:
        f(rho_crit), the crest value.
    satisfies_nld:
        False when f' is constant on some subinterval (tabulated fluxes).
    code:
        Integer family code used by the kernels.
    """

    family: str
    params: np.ndarray
    rho_min: float
    rho_max: float
    rho_crit: float
    lipschitz: float
    flux_max: float
    satisfies_nld: bool
    code: int

    # -- helpers ------------------------------------------------------------

    @property
    def span(self) -> float:
        return self.rho_max - self.rho_min

    def _check_range(self, name: str, value, array: bool = True):
        """value as densities in [rho_min, rho_max], widened by 1e-12 of the
        span: a float, or where ``array`` (the methods that map arrays
        elementwise) also a float array of one or more (``as_reals``)."""
        slack = 1e-12 * self.span
        return (as_reals if array else as_bounded)(
            name, value, self.rho_min - slack, self.rho_max + slack)

    def _raw(self, rho: np.ndarray) -> np.ndarray:
        return kernels.flux_array(self.code, self.params, rho)

    # -- evaluation ---------------------------------------------------------

    def eval(self, rho):
        """f(rho); scalar in, scalar out; arrays are mapped elementwise."""
        rho = self._check_range("rho", rho)
        if isinstance(rho, float):
            return kernels.flux_scalar(self.code, self.params, rho)
        return self._raw(rho)

    def derivative(self, rho):
        """f'(rho); for tabulated fluxes, the slope of the containing panel."""
        x = self._check_range("rho", rho)
        scalar = isinstance(x, float)
        if self.code == kernels.FAMILY_LWR:
            v, rmax = self.params
            out = v * (1.0 - 2.0 * x / rmax)
        elif self.code == kernels.FAMILY_SYM_QUAD:
            out = -2.0 * self.params[0] * x
        elif self.code == kernels.FAMILY_POLY:
            c = self.params
            d = c[1:] * np.arange(1, c.shape[0])
            out = np.full_like(x, d[-1]) if d.size else np.zeros_like(x)
            for t in range(d.shape[0] - 2, -1, -1):
                out = out * x + d[t]
        else:
            n = int(self.params[0])
            xs = self.params[1:1 + n]
            ys = self.params[1 + n:1 + 2 * n]
            idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, n - 2)
            out = (ys[idx + 1] - ys[idx]) / (xs[idx + 1] - xs[idx])
        return float(out) if scalar else out

    # -- Godunov machinery ----------------------------------------------------

    def demand(self, a: float) -> float:
        """Maximal flux the upstream state a can send: f(a) left of the crest,
        the crest value beyond it."""
        return kernels.demand_scalar(self.code, self.params, self.rho_crit,
                                     self.flux_max,
                                     self._check_range("a", a, False))

    def supply(self, b: float) -> float:
        """Maximal flux the downstream state b can absorb."""
        return kernels.supply_scalar(self.code, self.params, self.rho_crit,
                                     self.flux_max,
                                     self._check_range("b", b, False))

    def godunov(self, a: float, b: float) -> float:
        """Two-point Godunov flux: min of f on [a,b] when a <= b, max of f on
        [b,a] when a >= b; equals min(demand(a), supply(b)) for bell-shaped f.
        The scheme sweeps whole roads with ``kernels.interface_fluxes``."""
        return kernels.godunov_scalar(self.code, self.params, self.rho_crit,
                                      self.flux_max,
                                      self._check_range("a", a, False),
                                      self._check_range("b", b, False))

    def entropy_flux(self, u, k):
        """Kruzhkov entropy flux sign(u-k)*(f(u)-f(k)), with sign(0)=0."""
        u, k = self._check_range("u", u), self._check_range("k", k)
        scalar = isinstance(u, float) and isinstance(k, float)
        u_arr, k_arr = np.broadcast_arrays(np.asarray(u, dtype=float),
                                           np.asarray(k, dtype=float))
        out = np.sign(u_arr - k_arr) * (self._raw(u_arr) - self._raw(k_arr))
        return float(out) if scalar else out


# ---------------------------------------------------------------------------
# constructors

def quadratic_lwr(v: float = 1.0, rho_max: float = 1.0) -> Flux:
    """f(rho) = v * rho * (1 - rho/rho_max) on [0, rho_max]."""
    v, rho_max = as_positive("v", v), as_positive("rho_max", rho_max)
    params = np.array([v, rho_max], dtype=float)
    crit = 0.5 * rho_max
    crest = kernels.flux_scalar(kernels.FAMILY_LWR, params, crit)
    return Flux("quadratic-lwr", params, 0.0, float(rho_max), crit,
                float(v), crest, True, kernels.FAMILY_LWR)


def symmetric_quadratic(h: float = 1.0) -> Flux:
    """f(rho) = h * (1 - rho^2) on [-1, 1]; crest h at rho = 0."""
    h = as_positive("h", h)
    params = np.array([h], dtype=float)
    return Flux("symmetric-quadratic", params, -1.0, 1.0, 0.0,
                2.0 * float(h), float(h), True, kernels.FAMILY_SYM_QUAD)


def custom_polynomial(coeffs, rho_min: float, rho_max: float,
                      rho_crit: float) -> Flux:
    """Polynomial flux with ascending coefficients and a user-supplied crest.

    The bell shape is certified exactly: f' changes sign exactly once on
    (rho_min, rho_max), from + to -, at a root that rho_crit must match to
    1e-12 of the interval, the crest value is positive, and f vanishes at
    both ends to 1e-12 of it. Violations raise ValueError.
    """
    params = np.asarray(coeffs, dtype=float)
    if params.ndim != 1 or params.size < 3 or not np.isfinite(params).all():
        raise ValueError("polynomial flux needs at least 3 finite "
                         "coefficients")
    # a crest at an end fails the positive crest test below
    lo, hi = as_bounded("rho_min", rho_min), as_bounded("rho_max", rho_max)
    crit = as_bounded("rho_crit", rho_crit, lo, hi)
    c = params.tolist()
    crest = kernels.flux_scalar(kernels.FAMILY_POLY, c, crit)
    if not crest > 0:
        raise ValueError("flux crest value must be positive")
    if not max(abs(kernels.flux_scalar(kernels.FAMILY_POLY, c, x))
               for x in (lo, hi)) <= 1e-12 * crest:
        raise ValueError("flux must vanish at both interval endpoints")
    deriv = [k * c[k] for k in range(1, len(c))]
    roots = kernels.real_roots(deriv, lo, hi)
    # one sign change of f', + before it and - after it: f rises strictly
    # to its crest and falls strictly beyond it
    if not (len(roots) == 1
            and kernels._horner(deriv, 0.5 * (lo + roots[0])) > 0
            > kernels._horner(deriv, 0.5 * (roots[0] + hi))):
        raise ValueError("flux must rise strictly then fall strictly "
                         "(plateaus are rejected)")
    # a crest off that root would leave demand falling below rho_crit
    if not abs(crit - roots[0]) <= 1e-12 * (hi - lo):
        raise ValueError(f"rho_crit must be the maximizer of f, which lies "
                         f"at {roots[0]!r}")

    # exact Lipschitz bound: |f'| attains its max at an end or where f''
    # changes sign
    second = [k * deriv[k] for k in range(1, len(deriv))]
    lip = max(abs(kernels._horner(deriv, x))
              for x in (lo, hi, *kernels.real_roots(second, lo, hi)))
    return Flux("custom-polynomial", params, lo, hi, crit, lip, crest, True,
                kernels.FAMILY_POLY)


def tabulated(xs, ys) -> Flux:
    """Piecewise-linear flux through the nodes (xs, ys).

    Nodes must be strictly increasing in x, vanish at both ends, and rise
    strictly to a unique interior maximum then fall strictly. Sets
    ``satisfies_nld=False`` (f' is piecewise constant).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if (xs.ndim != 1 or xs.shape != ys.shape or xs.size < 3
            or not np.isfinite([xs, ys]).all()):
        raise ValueError("tabulated flux needs >= 3 matching finite nodes")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("tabulated nodes must be strictly increasing in x")
    imax = int(np.argmax(ys))
    crest = float(ys[imax])
    if crest <= 0:
        raise ValueError("tabulated flux must be positive at its crest")
    if abs(ys[0]) > 1e-12 * crest or abs(ys[-1]) > 1e-12 * crest:
        raise ValueError("tabulated flux must vanish at both endpoints")
    if imax == 0 or imax == xs.size - 1:
        raise ValueError("tabulated crest must be interior")
    if not (np.all(np.diff(ys[:imax + 1]) > 0)
            and np.all(np.diff(ys[imax:]) < 0)):
        raise ValueError("tabulated flux must be strictly unimodal "
                         "(no plateaus)")
    params = np.concatenate(([float(xs.size)], xs, ys))
    lip = float(np.max(np.abs(np.diff(ys) / np.diff(xs))))
    return Flux("tabulated", params, float(xs[0]), float(xs[-1]),
                float(xs[imax]), lip, crest, False, kernels.FAMILY_TABLE)


# ---------------------------------------------------------------------------
# inverse lookups on the two monotone branches

def branch_point(flux: Flux, y: float, branch: str) -> float:
    """Density where f equals y on the requested branch.

    branch is "rising" (left of the crest) or "falling" (right of it).
    Solved per family by ``kernels.branch_point``.
    """
    y = as_bounded("y", y, -1e-12 * max(flux.flux_max, 1.0),
                   flux.flux_max * (1 + 1e-12))
    if branch == "rising":
        edge = flux.rho_min
    elif branch == "falling":
        edge = flux.rho_max
    else:
        raise ValueError("branch must be 'rising' or 'falling'")
    return kernels.branch_point(flux.code, flux.params, flux.rho_crit,
                                flux.flux_max, y, edge)


def conjugate(flux: Flux, rho: float) -> float:
    """The density on the opposite branch with the same flux value."""
    rho = as_bounded("rho", rho)
    y = flux.eval(rho)  # which checks the density's range
    if rho <= flux.rho_crit:
        return branch_point(flux, y, "falling")
    return branch_point(flux, y, "rising")

"""Godunov finite-volume marching on a truncated star network.

Each road is cut into uniform cells of width dx, with the junction at x = 0:
incoming road cells live on [-N_h dx, 0], outgoing on [0, N_h dx], and the
cell adjacent to the junction supplies that road's entry of the junction
state. A time step has two stages: solve the junction coupling from the
adjacent cells, then march every road conservatively with Godunov interface
fluxes inside roads, the junction fluxes at x = 0, and ghost-cell (absorbing)
or Dirichlet data at the outer truncation ends.

The march holds the network in one float64 buffer: each incoming road as
[ghost, cells...], a pad slot, then each outgoing road as [cells..., ghost].
Interface k lies between slots k and k+1, so every interface between two
roads is a junction interface, overwritten with the junction flux; the pad
keeps the last incoming and first outgoing road from sharing one. Ghosts
and pad are filled whenever a buffer is written, so every slot is in
range, and roads of one flux family side by side share one Godunov sweep.
The march writes each step's level into a row of a block of buffers, its
ring (see ``_march``); a level it keeps is copied out, and
``GridState.values`` are views of its cells. Levels the march holds at a
bitwise fixed point share one buffer.

The scheme is monotone under the CFL bound dt <= dx / (2 max_h L_h), which
gives the maximum principle, order preservation, and discrete L1 contraction
checked by the verification suite. With ``RunConfig.epsilon`` > 0 the same
march, advance and update take the viscous system u_t + f_h(u)_x =
epsilon u_xx: interface fluxes less epsilon times the discrete gradient,
and one junction value w per step (``_visc_node``), monotone under
``_parabolic_bound``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import kernels
from .errors import (ConfigError, ConsistencyError, _refused, as_bounded,
                     as_count, as_positive, as_sequence, as_state)
from .junction import JunctionSpec, _solve_stack, solve_junction

_GAUSS_OFFSET = math.sqrt(0.6) / 2.0
_GAUSS_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
# cells and steps stay below this count, so they index and time exactly
_MAX_COUNT = 2**53
# a block of the march's ring holds 64 levels or _MASS_BLOCK_MAX bytes of
# them, whichever is fewer, and at least two (see ``_march``)
_MASS_BLOCK_MAX = 1 << 20
_MASS_BLOCK_LEVELS = 64


def _cell_count(name: str, length: float, dx: float) -> int:
    """The cells of width dx on a road of this length; a ValueError naming
    ``name`` where they number 2**53 or more (dx may underflow to 0) or do
    not tile the length to 1e-9 of it."""
    cells = round(length / dx) if length < _MAX_COUNT * dx else 0
    if not cells or abs(cells * dx - length) > 1e-9 * length:
        raise _refused(name, f"a width that tiles length {length:g} with "
                             f"fewer than 2**53 cells", dx)
    return cells


@dataclass(eq=False)
class NetworkMesh:
    """Uniform-cell truncation of the star network."""

    spec: JunctionSpec
    dx: float
    cells_per_road: np.ndarray

    def __post_init__(self):
        self.dx = as_positive("dx", self.dx)
        roads = self.spec.m + self.spec.n
        counts = [as_count("cells_per_road", c) for c in (
            [self.cells_per_road] * roads if np.ndim(self.cells_per_road) == 0
            else as_sequence("cells_per_road", self.cells_per_road, roads))]
        # the slots of the network buffer are counted below 2**53
        if sum(counts) + roads + 1 >= _MAX_COUNT:
            raise ValueError(f"cells_per_road must hold fewer than 2**53 "
                             f"cells in all, got {sum(counts)}")
        self.cells_per_road = np.array(counts, dtype=np.int64)
        self._layout = _Layout.build(self.spec, self.cells_per_road)

    def centers(self, road: int) -> np.ndarray:
        """Cell midpoints; negative coordinates on incoming roads."""
        n = int(self.cells_per_road[self.spec.road_index(road)])
        if road < self.spec.m:
            return (np.arange(-n, 0) + 0.5) * self.dx
        return (np.arange(0, n) + 0.5) * self.dx

    def road_length(self, road: int) -> float:
        h = self.spec.road_index(road)
        return float(self.cells_per_road[h]) * self.dx


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each road lives in the network buffer (see the module
    docstring); road-indexed arrays list incoming roads first. A batch of
    R runs lays its buffers end to end, with the layout ``runs(R)``."""

    slots: int
    cells: tuple[slice, ...]
    ghosts: np.ndarray  # ghost slot of every road
    ends: np.ndarray  # outer end cell, which an absorbing ghost copies
    pad: int  # copies the cell before it, at beside_pad
    beside_pad: int
    adj: np.ndarray  # the cell next to the junction
    junc: np.ndarray  # the junction interface
    outer: np.ndarray  # the outer interface
    # (first, stop, code, params, crest density, per-slot crest flux) per
    # sweep; params is Flux.params, or (per-slot v, R[, -1/R]) for LWR
    # roads and (per-slot h,) for symmetric-quadratic ones
    sweeps: tuple

    @classmethod
    def build(cls, spec: JunctionSpec, counts: np.ndarray) -> _Layout:
        incoming = np.arange(counts.shape[0]) < spec.m
        sizes = counts + 1  # cells and a ghost; the pad goes with road m-1
        sizes[spec.m - 1] += 1
        stops = np.cumsum(sizes)
        first = stops - sizes + incoming
        last = first + counts - 1
        ghosts = np.where(incoming, first - 1, last + 1)
        ends = np.where(incoming, first, last)
        # LWR roads side by side, or symmetric-quadratic ones, share one
        # sweep with per-slot v (or h) and crest flux; any other road has
        # its own. The roads share [A, B], so the crest density (R/2, or 0)
        # and LWR's rho_max R are one value per sweep, with -1/R where it
        # is exact (see ``kernels.flux_array``), each a 0-d array: numpy
        # pairs one with an array faster than it does a Python float
        sweeps = []
        roads = spec._roads
        for code, run in groupby(range(len(roads)), lambda h: (
                roads[h][0] if roads[h][0] < kernels.FAMILY_POLY
                else -1 - h)):
            run = list(run)
            each = sizes[run]
            family, par, crit, _ = roads[run[0]]
            if code < 0:
                params = spec.fluxes[run[0]].params
            else:
                params = (np.repeat([roads[h][1][0] for h in run], each),
                          *map(np.array, par[1:]))
                if (family == kernels.FAMILY_LWR
                        and math.frexp(par[1])[0] == 0.5
                        and math.isfinite(1.0 / par[1])):
                    params += (np.array(-1.0 / par[1]),)
            sweeps.append((int(stops[run[0]] - each[0]), int(stops[run[-1]]),
                           family, params, np.array(crit),
                           np.repeat([roads[h][3] for h in run], each)))
        pad = int(stops[spec.m - 1] - 1)
        return cls(int(stops[-1]),
                   tuple(map(slice, first.tolist(), (last + 1).tolist())),
                   ghosts, ends, pad, pad - 1,
                   np.where(incoming, last, first),
                   np.where(incoming, last, first - 1),
                   np.where(incoming, ghosts, ends), tuple(sweeps))

    def runs(self, count: int) -> _Layout:
        """The layout of ``count`` network buffers end to end, made anew
        on each call (one run's is this layout): slot j of run r is slot
        r * slots + j, ``adj``, ``junc``, ``ghosts`` and ``ends`` hold a
        row per run, ``outer`` each run's in turn, and ``cells`` none (each
        run is viewed with this layout). A single sweep (all roads in one
        group, its first param per slot) becomes one over all runs, whose
        interface between two runs nothing reads (``fill`` rewrites both
        ghosts); more sweeps repeat per run."""
        if count == 1:
            return self
        size = count * self.slots
        at = self.slots * np.arange(count)
        rows = at[:, None]
        if len(self.sweeps) == 1:
            (_, _, code, par, crit, fcrit), = self.sweeps
            sweeps = ((0, size, code, (np.tile(par[0], count), *par[1:]),
                       crit, np.tile(fcrit, count)),)
        else:
            sweeps = tuple((first + r, stop + r, *rest)
                           for r in at.tolist()
                           for first, stop, *rest in self.sweeps)
        return _Layout(size, (), self.ghosts + rows, self.ends + rows,
                       self.pad + at, self.beside_pad + at, self.adj + rows,
                       self.junc + rows, (self.outer + rows).reshape(-1),
                       sweeps)

    @cached_property
    def skip(self) -> np.ndarray:
        """The ghost and pad slots, which hold no cell: the columns that
        ``kernels.row_sums`` leaves out of a level's mass."""
        return np.append(self.ghosts, self.pad)

    @cached_property
    def views(self):  # u -> its roads' cells in one call (2 roads or more)
        return itemgetter(*self.cells)

    @cached_property
    def copied(self) -> np.ndarray:  # what absorbing ``skip`` slots copy
        return np.append(self.ends, self.beside_pad)

    def fill(self, u: np.ndarray, ghosts=None) -> None:
        """Ghost cells copy the end cells (absorbing, ``ghosts`` None) or
        hold ``ghosts[h]`` (Dirichlet, the same for every run); the pad
        copies its neighbour, a cell."""
        if ghosts is None:
            u[self.skip] = u[self.copied]
        else:
            u[self.ghosts] = ghosts
            u[self.pad] = u[self.beside_pad]


@dataclass(frozen=True, eq=False, init=False)
class GridState:
    """Cell averages of all roads at one time level. Treat values as read-only."""

    time_step: int
    time: float
    values: tuple[np.ndarray, ...]

    def __init__(self, time_step, time, values):
        # one per kept level: fill the frozen fields at half the cost of
        # the generated __init__'s object.__setattr__
        f = self.__dict__
        f["time_step"], f["time"], f["values"] = time_step, time, values

    def total_mass(self, dx: float) -> float:
        """dx times the correctly rounded sum of all cells, ``math.fsum``'s.
        The march takes it for the first level only; ``kernels.row_sums``
        gives every later mass, bit for bit the same."""
        return dx * math.fsum(np.concatenate(self.values).tolist())


@dataclass(eq=False)
class RunConfig:
    """Everything a simulation run needs besides the initial data.

    The outer ends are absorbing while ``dirichlet_values`` is None; values
    given are the Dirichlet data of the roads' ghosts, one per road in
    [A, B]. ``snapshot_times`` name the levels a lean run keeps (see
    ``run``). ``epsilon`` > 0 marches the viscous system u_t + f_h(u)_x =
    epsilon u_xx (see ``_visc_node``), at ``cfl_number`` times
    ``_parabolic_bound``; at 0, the hyperbolic scheme at ``cfl_timestep``.
    """

    mesh: NetworkMesh
    cfl_number: float
    t_final: float
    dirichlet_values: np.ndarray | None = None
    snapshot_times: tuple[float, ...] = ()
    epsilon: float = 0.0

    def __post_init__(self):
        self.cfl_number = as_positive("cfl_number", self.cfl_number, 1.0)
        self.t_final = as_bounded("t_final", self.t_final, 0.0)
        self.epsilon = as_bounded("epsilon", self.epsilon, 0.0)
        _step_count(self.t_final, _timestep(self))
        if self.dirichlet_values is not None:
            self.dirichlet_values = self.mesh.spec.candidate(
                self.dirichlet_values)
        self.snapshot_times = tuple(sorted({
            as_bounded("snapshot_times", t, 0.0, self.t_final)
            for t in as_sequence("snapshot_times", self.snapshot_times,
                                 empty=True)}))


def discretize_initial(mesh: NetworkMesh, data) -> GridState:
    """Project per-road initial data onto cell averages.

    Each road's entry may be a constant, a callable density profile, a pair
    ``(breakpoints, values)`` describing a piecewise-constant profile (exact
    averaging), or a ready-made array of cell averages (used verbatim). A
    GridState counts as its arrays and is validated like them.
    """
    if isinstance(data, GridState):
        data = data.values
    spec = mesh.spec
    values = []
    for road, (item, count) in enumerate(zip(
            as_sequence("data", data, spec.m + spec.n),
            mesh.cells_per_road.tolist())):
        name = f"road {road}: initial data"
        if callable(item):
            item = _gauss_averages(item, mesh.centers(road), mesh.dx)
        elif isinstance(item, tuple) and len(item) == 2:
            item = _piecewise_averages(item[0], item[1], mesh.centers(road),
                                       mesh.dx)
        elif np.ndim(item) == 0:  # a constant is checked once
            values.append(np.full(count, as_bounded(name, item, *spec._bounds)))
            continue
        values.append(as_state(name, item, count, *spec._bounds))
    return GridState(0, 0.0, tuple(values))


def _gauss_averages(profile, centers: np.ndarray, dx: float) -> np.ndarray:
    off = _GAUSS_OFFSET * dx
    w0, w1, w2 = _GAUSS_WEIGHTS
    lo = np.asarray([profile(x) for x in centers - off], dtype=float)
    mid = np.asarray([profile(x) for x in centers], dtype=float)
    hi = np.asarray([profile(x) for x in centers + off], dtype=float)
    return w0 * lo + w1 * mid + w2 * hi


def _piecewise_averages(breakpoints, piece_values, centers: np.ndarray,
                        dx: float) -> np.ndarray:
    bp = np.asarray(breakpoints, dtype=float)
    pv = np.asarray(piece_values, dtype=float)
    if bp.ndim != 1 or pv.shape != (bp.shape[0] + 1,):
        raise ValueError("piecewise data needs len(values) == "
                         "len(breakpoints) + 1")
    if bp.size and np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    edges = np.concatenate(([-np.inf], bp, [np.inf]))
    out = np.zeros(centers.shape)
    left = centers - 0.5 * dx
    right = centers + 0.5 * dx
    for k in range(pv.shape[0]):
        overlap = (np.minimum(right, edges[k + 1])
                   - np.maximum(left, edges[k])).clip(min=0.0)
        out += pv[k] * overlap
    return out / dx


def cfl_timestep(mesh: NetworkMesh, cfl_number: float) -> float:
    """Largest stable time step scaled by the given CFL number."""
    cfl_number = as_positive("cfl_number", cfl_number, 1.0)
    return cfl_number * mesh.dx / (2.0 * mesh.spec.lipschitz_max)


def _parabolic_bound(mesh: NetworkMesh, epsilon: float) -> float:
    """Largest step that keeps the viscous update monotone:
    1 / (L / dx + 3 eps / dx^2), L the largest Lipschitz constant.

    With lam = dt / dx and mu = eps dt / dx^2, a cell's new value is its
    old one less what its interfaces take, and the update is monotone when
    every weight is nonnegative (Crandall & Majda, Math. Comp. 34, 1980).
    The Godunov flux F(a, b) = min(D(a), S(b)) moves with a only through D
    below the crest and with b only through S above it, so of a cell's two
    convective interfaces at most one moves with the cell, and they take
    at most lam L of its weight. Diffusion takes 2 mu inside a road and
    3 mu at the junction-adjacent cell, whose junction side has
    e = 2 eps / dx. The balance R is strictly decreasing in w, so w is
    nondecreasing in every adjacent state, and the junction fluxes add only
    nonnegative weights. An absorbing ghost copies its end cell: the outer
    flux f(u) and the inner interface take at most lam L of that cell
    together, and no diffusive flux crosses the outer end (a Dirichlet
    ghost's takes mu, as an inner interface does). A weight is then at
    least 1 - lam L - 3 mu, which is nonnegative up to this bound; order
    breaks a little above it (``test_parabolic_bound_is_sharp``)."""
    dx = mesh.dx
    return 1.0 / (mesh.spec.lipschitz_max / dx + 3.0 * epsilon / (dx * dx))


def _timestep(config: RunConfig) -> float:
    """The full step of a run: ``cfl_number`` times ``_parabolic_bound``
    where epsilon > 0, else ``cfl_timestep``."""
    if config.epsilon:
        return config.cfl_number * _parabolic_bound(config.mesh,
                                                    config.epsilon)
    return cfl_timestep(config.mesh, config.cfl_number)


def _pack(mesh: NetworkMesh, data, ghosts=None) -> np.ndarray:
    """Initial data, validated as ``discretize_initial`` validates it, in a
    fresh network buffer with its ghosts and pad filled."""
    layout = mesh._layout
    u = np.empty(layout.slots)
    for cells, values in zip(layout.cells,
                             discretize_initial(mesh, data).values):
        u[cells] = values
    layout.fill(u, ghosts)
    return u


def _flux_grid(u: np.ndarray, mesh: NetworkMesh, gstar, eps: float = 0.0,
               layout: _Layout | None = None, dx=None) -> np.ndarray:
    """The flux at every interface of the network buffer u: Godunov
    interface fluxes, less eps >= 0 times the discrete gradient, and the
    junction fluxes ``gstar`` at x = 0. u may hold R buffers end to end,
    with ``layout`` their ``mesh._layout.runs(R)`` (the mesh's layout by
    default); ``gstar`` then holds a row per run. eps, and dx (``mesh.dx``
    by default), may be 0-d arrays, which numpy pairs with an array faster
    than a float."""
    layout = layout or mesh._layout
    # one run's sweeps abut at junction interfaces; several sweeps of runs
    # end to end leave the interface between two runs unwritten: zero it
    fgrid = (np.empty if len(layout.sweeps) == 1 else np.zeros)(
        layout.slots - 1)
    for first, stop, code, par, crit, fcrit in layout.sweeps:
        kernels.interface_fluxes(code, par, crit, fcrit, u[first:stop],
                                 fgrid[first:stop - 1])
    if eps:  # eps * (u[1:] - u[:-1]) / dx, in one temporary
        grad = np.subtract(u[1:], u[:-1])
        grad *= eps
        grad /= mesh.dx if dx is None else dx
        fgrid -= grad
    fgrid[layout.junc] = gstar
    return fgrid


def _update(u: np.ndarray, mesh: NetworkMesh, lam, gstar, out: np.ndarray,
            ghosts=None, eps: float = 0.0, layout: _Layout | None = None,
            dx=None):
    """One conservative update of the network buffer u, or of the buffers
    it holds end to end, with the fluxes of ``_flux_grid`` (and its eps,
    ``layout`` and dx) and lam = dt / dx (a float, or a 0-d array, which
    numpy pairs with an array faster), written into out, of u's shape and
    not overlapping it. Returns (out, its ghosts and pad filled, each run's
    outer boundary fluxes in turn)."""
    layout = layout or mesh._layout
    fgrid = _flux_grid(u, mesh, gstar, eps, layout, dx)
    inner = np.subtract(fgrid[1:], fgrid[:-1], out=out[1:-1])
    inner *= lam
    np.subtract(u[1:-1], inner, out=inner)
    layout.fill(out, ghosts)
    return out, fgrid[layout.outer]


def _check_timestep(dt: float, limit: float) -> None:
    if as_positive("dt", dt) > limit * (1.0 + 4e-12):
        raise ConfigError(f"dt={dt} exceeds the stability bound {limit}",
                          kind="cfl")


def step(state: GridState, mesh: NetworkMesh, dt: float,
         dirichlet_values=None, epsilon: float = 0.0) -> GridState:
    """Advance one time level, with absorbing outer ends or, given
    ``dirichlet_values``, Dirichlet ones, of the scheme that ``epsilon``
    picks, all as in ``RunConfig``: a run's every level, bit for bit. The
    junction is solved cold. Raises ConfigError if dt exceeds the scheme's
    stability bound (``cfl_timestep`` at CFL 1, or ``_parabolic_bound``),
    ValueError (naming the road) on a state or Dirichlet values run would
    reject."""
    epsilon = as_bounded("epsilon", epsilon, 0.0)
    _check_timestep(dt, _parabolic_bound(mesh, epsilon) if epsilon
                    else cfl_timestep(mesh, 1.0))
    ghosts = (None if dirichlet_values is None
              else mesh.spec.candidate(dirichlet_values))
    u = _pack(mesh, state, ghosts)
    junction = u[mesh._layout.adj]
    gstar = (_visc_node(_visc_pieces(mesh, epsilon), 2.0 * epsilon / mesh.dx,
                        junction.tolist(), None)[1] if epsilon
             else solve_junction(mesh.spec, junction).fluxes)
    u, _ = _update(u, mesh, dt / mesh.dx, gstar, np.empty_like(u), ghosts,
                   epsilon)
    return GridState(state.time_step + 1, state.time + dt,
                     mesh._layout.views(u))


def _visc_pieces(mesh: NetworkMesh, epsilon: float) -> kernels.WarmPieces:
    """The warm pieces of the viscous junction value: the junction's roads
    with the diffusive line's slope -e (m + n), e = 2 eps / dx."""
    spec = mesh.spec
    return kernels.WarmPieces(spec._roads, spec.m, spec.rho_min,
                              spec.rho_max,
                              -(2.0 * epsilon / mesh.dx) * (spec.m + spec.n))


def _visc_node(pieces: kernels.WarmPieces, e: float, ustar: list, hint):
    """(w, fluxes, active) of the viscous node at the junction state
    ustar, a list (Coclite & Garavello, SIAM J. Math. Anal. 42, 2010): the
    one junction value w, each road's Godunov flux at w less its diffusive
    term e (w - u_i) or e (u_j - w), e = 2 eps / dx, as a list, and the
    active set of w's piece, the next solve's hint, which spares work but
    changes no result. w comes from ``kernels.solve_visc_w``, looked up as
    that module's attribute, with the slope of ``pieces``
    (``_visc_pieces``); its road constants become the Godunov fluxes in
    place. ustar must lie in [A, B]: ``_pack`` checks a first level, and
    ``_march``'s guard every later one."""
    w, fluxes, active = kernels.solve_visc_w(pieces, ustar, e * sum(ustar),
                                             hint)
    m = pieces.m
    kernels.fill_junction_fluxes(pieces.roads, m, fluxes, w, fluxes)
    for h, a in enumerate(ustar):
        fluxes[h] -= e * (w - a) if h < m else e * (a - w)
    return w, fluxes, active


def _step_count(t_final: float, dt0: float) -> int:
    """Steps of dt0 to t_final, the last one shortened; ValueError at 2**53
    steps or more, a dt0 that has underflowed to 0 included."""
    if not t_final > 0:
        return 0
    # a quotient that overflows to inf fails too; a dt0 of 0 before dividing
    if not (dt0 > 0 and t_final / dt0 < _MAX_COUNT):
        raise ValueError(f"t_final={t_final:g} takes 2**53 or more steps "
                         f"of dt={dt0:g}")
    return max(1, math.ceil(t_final / dt0 - 1e-12))


def _range_error(mesh: NetworkMesh, u: np.ndarray,
                 step: int) -> ConsistencyError:
    """The error for a buffer that failed the march's range guard, naming
    the first road with a cell outside [A, B] or a NaN one; of R buffers
    end to end, the first run with a slot out of range, as its ``run``."""
    spec = mesh.spec
    lo, hi = spec._bounds
    slots = mesh._layout.slots
    run = int(((u >= lo) & (u <= hi)).argmin()) // slots
    roads = mesh._layout.views(u[run * slots:(run + 1) * slots])
    for h, cells in enumerate(roads):
        inside = (cells >= lo) & (cells <= hi)
        if not inside.all():
            k = int(inside.argmin())
            return ConsistencyError(
                f"step {step}: road {h} cell {k} holds {float(cells[k])!r}, "
                f"outside [{spec.rho_min}, {spec.rho_max}]", run)
    # ghosts and the pad copy cells or hold validated Dirichlet values
    return ConsistencyError(f"step {step}: a ghost or pad slot leaves "
                            f"[{spec.rho_min}, {spec.rho_max}]", run)


def _guard(mesh: NetworkMesh, levels: np.ndarray, step: int) -> float:
    """The march's range guard over a block of levels, one row each, the
    first of them that of ``step``: one min and one max over the block. A
    slot outside [A, B] (beyond the slack of 1e-12 of the span that
    ``JunctionSpec.candidate`` allows) or a NaN one raises the
    ConsistencyError of ``_range_error`` for the first level that has one.
    Returns max|x| over the block, a bound of every row that
    ``kernels.row_sums`` takes."""
    low = float(np.minimum.reduce(levels, axis=None))
    high = float(np.maximum.reduce(levels, axis=None))
    lo, hi = mesh.spec._bounds
    if not (lo <= low and high <= hi):  # NaN fails this too
        for k, level in enumerate(levels):
            if not ((level >= lo) & (level <= hi)).all():
                raise _range_error(mesh, level, step + k)
    return max(-low, high)


def _march(mesh: NetworkMesh, u: np.ndarray, dt0: float, t_final: float,
           advance, keep_states: bool = True, snapshot_times=()):
    """The time loop of every run from u, the network buffers of R >= 1
    independent runs on one mesh end to end (see ``run_batch``): steps of
    dt0, the last one shortened to land exactly on t_final. ``advance(u,
    junction, key, lam, out)`` writes the level after u into out, a
    buffer of u's shape, with lam = dt / dx (of a full step, a 0-d array
    made once per run), and returns (each run's outer boundary fluxes in
    turn, junction record, a float). ``junction`` is u's junction state,
    its junction-adjacent cells with a row per run, shape (R, m + n), and
    ``key`` its bytes: the march gathers them once per level, from the
    first level and from each level that ``advance`` writes. Figures are
    taken per run; one guard, one hold and one block serve all runs.

    The computed levels live in a ring, a block of level buffers that
    ``advance`` writes each level into, a row per level (its view made
    the first time it is written); the level it reads is the row before,
    or the block's last row. A block holds 64
    levels or ``_MASS_BLOCK_MAX`` bytes of them (1 MB, 10 levels of
    3 x 4000 cells), whichever is fewer, at least two and at most the
    steps. Its waiting levels are flushed when it is full, when a hold
    starts (held levels repeat that mass) and at the end:

    - the maximum-principle guard (``_guard``) takes one min and one max
      over the waiting levels: a slot outside [A, B] or a NaN stops the run
      with a ConsistencyError that names the first such step and the road,
      with the run as its ``run``;
    - one ``kernels.row_sums`` call takes the masses of all waiting
      levels, a row per level and run, with the guard's bound, which
      spares it a max|x| pass, and less the ghost and pad columns: each
      mass is dx times ``math.fsum`` of its level's cells, bit for bit, as
      ``GridState.total_mass`` gives the first level's. A non-finite mass
      stops the run, naming its own step.

    The steps after a bad level, up to the flush, are computed from it,
    with numpy's floating-point warnings off. An exception from
    ``advance`` first runs the guard over the waiting levels, so the error
    of an earlier step wins; a ConsistencyError of a junction solve in
    ``advance`` gets the step before it, and keeps its ``run``. The first
    level was validated by ``_pack``.

    ``advance`` must be a pure function of the bytes of u and lam. A
    full-length step that returns its input bitwise is then a fixed point:
    it would return the same buffer, boundary flux and record at every
    later full-length step. The march holds it at the first such step. It
    compares the buffers, as bytes (so -0.0 and 0.0 stay apart), only
    after a step whose level's junction key equals its input's, so a run
    whose junction state moves pays nothing for the hold. A hold repeats the
    step's mass, boundary sum and record over the held levels with slice
    assignments, and jumps to the shortened last step, which is always
    computed, into a row other than the held level's, or to the end.

    A kept level is copied out of the ring, a held one once (the held
    tail's kept levels are added with one ``extend``), so held levels
    share one buffer; a ``GridState`` is built, after the loop,
    only for the levels kept (see the README's "Mass ledger" for the
    cost). Returns (states, buffers, times, dts, boundary_net, masses,
    records), with a list of states and one of the buffers they view, and
    a column of ``boundary_net`` and of ``masses``, per run. The states
    are every level if ``keep_states``, else the first, the last and those
    nearest ``snapshot_times``, each once and in order. The per-step logs
    are typed (``records`` an ``array("d")``), so the march keeps no
    object per step: a lean run's memory is its block, its kept levels
    and 8 bytes per step and log.
    """
    m, k = mesh.spec.m, mesh.spec.m + mesh.spec.n
    n_steps = _step_count(t_final, dt0)

    # time levels are known up front, so the kept ones can be too
    times = np.arange(n_steps + 1) * dt0
    if n_steps:
        times[-1] = t_final
    kept = {n_steps, *(int(np.abs(times - t).argmin())
                       for t in snapshot_times)}
    # the last step's dt, and the last level that a hold repeats: the one
    # before a shortened last step, else the last
    last_dt = times[-1] - (n_steps - 1) * dt0
    end = n_steps - (last_dt != dt0)

    views, slots = mesh._layout.views, mesh._layout.slots
    runs = u.shape[0] // slots
    starts = range(0, runs * k, k)  # where each run's boundary fluxes start
    # the junction-adjacent cells, a row per run; the state of the level
    # the next step reads from, and its bytes
    adj = mesh._layout.adj + np.arange(0, runs * slots, slots)[:, None]
    junction = u[adj]
    key = junction.tobytes()
    masses = np.empty((n_steps + 1, runs))
    every_mass = masses.reshape(-1)  # level by level, run by run
    # the kept levels and the buffers they view, all runs' in one
    steps = range(n_steps + 1) if keep_states else [0, *sorted(kept - {0})]
    buffers = [u]
    lam = np.array(dt0 / mesh.dx)

    # the ring, a row per level, and as a row per level and run; the levels
    # waiting to be flushed are rows start .. start + waiting - 1
    height = min(n_steps, max(2, min(_MASS_BLOCK_LEVELS,
                                     _MASS_BLOCK_MAX // u.nbytes)))
    levels = np.empty((height, u.shape[0]))
    block = levels.reshape(height * runs, slots)
    ring = [None] * height  # a view of each row, made when first written
    start = waiting = 0

    def flush(stop):
        # guard and take the masses of levels stop - waiting + 1 .. stop
        first = stop + 1 - waiting
        top = _guard(mesh, levels[start:start + waiting], first)
        got = [mesh.dx * total for total in kernels.row_sums(
            block[start * runs:(start + waiting) * runs],
            [top] * (waiting * runs), mesh._layout.skip)]
        every_mass[first * runs:(stop + 1) * runs] = got
        if not all(map(math.isfinite, got)):  # name the first that is not
            i = list(map(math.isfinite, got)).index(False)
            raise ConsistencyError(f"step {first + i // runs}: total mass "
                                   f"is {got[i]}", i % runs)

    dts = array("d", [dt0]) * n_steps  # typed: no object kept per step
    bnet = array("d", bytes(8 * n_steps * runs))  # step by step, run by run
    records = array("d", bytes(8 * n_steps))
    s = 0  # the step to compute, from level s to level s + 1
    with np.errstate(all="ignore"):  # a bad level is the guard's to report
        while s < n_steps:
            dt = dt0 if s < n_steps - 1 else last_dt
            if dt != dt0:
                lam = dt / mesh.dx
            out = ring[start + waiting]
            if out is None:
                out = ring[start + waiting] = levels[start + waiting]
            try:
                boundary, record = advance(u, junction, key, lam, out)
            except Exception as exc:
                if waiting:  # the error of a bad level before wins
                    _guard(mesh, levels[start:start + waiting],
                           s + 1 - waiting)
                if not isinstance(exc, ConsistencyError):
                    raise
                raise ConsistencyError(f"step {s + 1}: {exc}",
                                       exc.run) from exc
            junction = out[adj]
            was, key = key, junction.tobytes()
            # compare bytes, so that -0.0 and 0.0 stay apart
            held = key == was and dt == dt0 and out.tobytes() == u.tobytes()
            flows = boundary.tolist()
            at = s * runs
            for r in starts:
                bnet[at] = (math.fsum(flows[r + m:r + k])
                            - math.fsum(flows[r:r + m]))
                at += 1
            u, copy = out, None
            waiting += 1
            dts[s], records[s] = dt, record
            s += 1
            if keep_states or s in kept:
                copy = u.copy()
                buffers.append(copy)
            if held or start + waiting == height:
                flush(s)
                # a held level keeps its row, which the last step writes
                # past
                start = (start + waiting) % height if held else 0
                waiting = 0
                if held and s < end:
                    # levels s + 1 .. end repeat level s: its figures, and
                    # its buffer where kept; the march goes on from end
                    masses[s + 1:] = masses[s]
                    records[s:] = array("d", [record]) * (n_steps - s)
                    bnet[at:] = bnet[at - runs:at] * (n_steps - s)
                    tail = bisect_right(steps, end) - len(buffers)
                    if tail:
                        buffers += [copy if copy is not None
                                    else u.copy()] * tail
                    s = end
    if waiting:
        flush(n_steps)

    def kept_levels(at):
        # one run's buffers, slots at .. at + slots of each kept level's,
        # and its GridStates; held levels share one buffer, and so one
        # values tuple
        last = buffers[0]
        row = last[at:at + slots]
        values = views(row)
        rows = [row] * len(steps)
        states = [GridState(0, 0.0, values)] * len(steps)
        for i, s in enumerate(steps[1:], 1):
            if buffers[i] is not last:
                last = buffers[i]
                row = last[at:at + slots]
                values = views(row)
            rows[i], states[i] = row, GridState(s, times[s], values)
        return rows, states

    rows, states = zip(*map(kept_levels, range(0, runs * slots, slots)))
    masses[0] = [run_states[0].total_mass(mesh.dx) for run_states in states]
    return (states, rows, times, np.frombuffer(dts),
            np.frombuffer(bnet).reshape(n_steps, runs), masses, records)


@dataclass(eq=False)
class Trajectory:
    """Record of one run: its kept time levels (every level, or those of a
    lean run, see ``run``; each names its step in ``time_step``) plus the
    junction log, masses and boundary flows of every step.
    ``junction_solves`` counts the junction solves made: a step whose
    junction state repeats the previous step's bitwise reuses its solution.
    ``buffers[s]`` is the network buffer (ghosts and pad filled) whose cells
    ``states[s].values`` view; levels held at a bitwise fixed point (see
    ``_march``) share one. Treat every buffer and values as read-only;
    ``times`` and ``dts`` are, and a batch's runs share them. A viscous
    run (``RunConfig.epsilon`` > 0) logs its junction value w as ``p_min``
    and ``p_max``, each road's flux to the node (Godunov at w less the
    diffusive term, see ``_visc_node``) as ``junction_fluxes``, and their
    incoming sum as ``totals``."""

    config: RunConfig
    states: list[GridState]
    buffers: list[np.ndarray]
    times: np.ndarray
    dts: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    junction_fluxes: np.ndarray
    totals: np.ndarray
    boundary_net: np.ndarray
    masses: np.ndarray
    junction_solves: int

    @property
    def final(self) -> GridState:
        return self.states[-1]

    @property
    def mesh(self) -> NetworkMesh:
        return self.config.mesh


def _runs(config: RunConfig, u: np.ndarray,
          keep_states: bool) -> list[Trajectory]:
    """The Trajectory of a run from each network buffer that u holds end
    to end (``_pack``'s), marched as one (see ``run_batch``) by the one
    advance of every run, hyperbolic or viscous. It only steps: the march
    hands it each level's junction state and key (see ``_march``). A run
    reuses its last junction fluxes while its span of the key repeats (the
    bytes keep -0.0 and 0.0 apart; a batch of one compares the whole key).
    Each run whose state changed is solved, hinted with the last active
    set it found (a plateau's or a kink's solve finds none): a hint spares
    work but changes no result. At epsilon = 0 their rows of the junction
    state go to one stacked solve (``junction._solve_stack``), at epsilon
    > 0 each row to ``_visc_node``, and the update takes epsilon and dx as
    0-d arrays made once.

    A run logs each solution it finds as one typed row (p_min, p_max,
    total, the m + n fluxes), from which its Trajectory's junction arrays
    are taken; a viscous row's total, the incoming sum, is taken after the
    march, by numpy. Every run gets the march's ``times`` and ``dts``,
    read-only, and its own column of ``boundary_net`` and ``masses``. A
    broken invariant raises the march's ConsistencyError, with the run as
    its ``run``."""
    mesh = config.mesh
    spec = mesh.spec
    ghosts, eps = config.dirichlet_values, config.epsilon
    count, m, k = u.shape[0] // mesh._layout.slots, spec.m, spec.m + spec.n
    layout = mesh._layout.runs(count)
    eps_arg, dx_arg = 0.0, None  # the update's, 0-d arrays where eps > 0
    if eps:
        pieces, e = _visc_pieces(mesh, eps), 2.0 * eps / mesh.dx
        eps_arg, dx_arg = np.array(eps), np.array(mesh.dx)
    # each run and its span of the march's key, the bytes of its row
    cuts = [(r, 8 * k * r, 8 * k * (r + 1)) for r in range(count)]
    keys, hints = [None] * count, [None] * count
    # each run's distinct solutions, a typed row of (p_min, p_max, total,
    # the m + n fluxes) each, and the index of its last row
    solved = [array("d") for _ in range(count)]
    at = [-1] * count
    table = array("q")  # ``at`` after each step that solves, flat
    row = -1  # the row of table in force
    gstar = np.empty((count, k))
    flat = gstar.reshape(layout.junc.shape)

    def advance(u, junction, key, lam, out):
        # the step's record is the row of table in force after it
        nonlocal row
        if count == 1:
            rows = () if key == keys[0] else (0,)
            keys[0] = key
        else:
            rows = []
            for r, start, stop in cuts:
                if (own := key[start:stop]) != keys[r]:
                    keys[r] = own
                    rows.append(r)
        if rows:
            if eps:
                states = junction.tolist()
                for r in rows:
                    w, fluxes, active = _visc_node(pieces, e, states[r],
                                                   hints[r])
                    solved[r].fromlist([w, w, 0.0, *fluxes])
                    at[r] += 1
                    hints[r] = active or hints[r]
                    gstar[r] = fluxes
            else:
                every = len(rows) == count
                try:
                    sols = _solve_stack(
                        spec, junction if every else junction[rows],
                        hints if every else [hints[r] for r in rows])
                except ConsistencyError as exc:  # it names the row
                    exc.run = rows[exc.run]
                    raise
                for r, sol in zip(rows, sols):
                    log = solved[r]
                    log.extend((sol.p_min, sol.p_max, sol.total))
                    log.frombytes(sol.fluxes.tobytes())
                    at[r] += 1
                    hints[r] = sol.active or hints[r]
                    gstar[r] = sol.fluxes
            row += 1
            table.fromlist(at)
        return _update(u, mesh, lam, flat, out, ghosts, eps_arg, layout,
                       dx_arg)[1], row

    states, buffers, times, dts, bnet, masses, rows = _march(
        mesh, u, _timestep(config), config.t_final, advance, keep_states,
        config.snapshot_times)
    # each step's row of table, one index per run
    index = np.frombuffer(table, np.int64).reshape(-1, count)[
        np.frombuffer(rows).astype(np.intp)]
    times.setflags(write=False)
    dts.setflags(write=False)
    trajs = []
    for r, i in enumerate(index.T):
        log = np.frombuffer(solved[r]).reshape(-1, 3 + k)
        if eps:  # the incoming sums, once per distinct solve
            log[:, 2] = log[:, 3:3 + m].sum(axis=1)
        trajs.append(Trajectory(
            config, states[r], buffers[r], times, dts, log[:, 0].take(i),
            log[:, 1].take(i), log[:, 3:].take(i, axis=0), log[:, 2].take(i),
            np.ascontiguousarray(bnet[:, r]),
            np.ascontiguousarray(masses[:, r]), len(log)))
    return trajs


def run(config: RunConfig, initial, keep_states: bool = True) -> Trajectory:
    """March from t=0 to t_final with the fixed time step of ``config``
    (a CFL step, or at ``epsilon`` > 0 the viscous system's, see
    ``RunConfig``).

    ``initial`` is either a GridState or per-road data accepted by
    ``discretize_initial``. The final step is shortened to land exactly on
    t_final. All time levels are kept unless ``keep_states`` is False;
    then, to bound memory on fine meshes, ``states`` keeps the first level,
    the last and those nearest ``config.snapshot_times``, each once, and
    the run grows by its per-step logs only, typed arrays of about 100
    bytes per step on 3 roads (see ``_march``). A batch of one
    (``run_batch``) whose errors name no run.
    """
    u = _pack(config.mesh, initial, config.dirichlet_values)
    return _runs(config, u, keep_states)[0]


def run_batch(config: RunConfig, initials,
              keep_states: bool = True) -> list[Trajectory]:
    """``[run(config, x, keep_states) for x in initials]``, every
    Trajectory bit for bit the same, marched as one (``_runs``): the runs'
    network buffers lie end to end in one (``_Layout.runs``), so each step
    makes its sweeps and one update for all runs at once, and each block of
    levels one range guard and one mass sum. It pays where many independent
    runs share one mesh and one config: the fixed cost of a step on a
    coarse mesh is then shared, and what is left per run is mostly its
    junction solve, hyperbolic or viscous. ``run`` is a batch of one.

    The batch holds a bitwise fixed point only once every run repeats its
    input (see ``_march``); a run that settles earlier is recomputed, which
    gives the same bits and makes no solve. An invalid initial datum raises
    ValueError naming its run, and a broken invariant ConsistencyError
    naming the run, the step and the road or the junction flux."""
    packed = []
    for r, initial in enumerate(as_sequence("initials", initials,
                                            empty=True)):
        try:
            packed.append(_pack(config.mesh, initial,
                                config.dirichlet_values))
        except ValueError as exc:
            raise ValueError(f"run {r}: {exc}") from None
    if not packed:
        return []
    try:
        return _runs(config, np.concatenate(packed), keep_states)
    except ConsistencyError as exc:  # the march names the step and the road
        raise ConsistencyError(f"run {exc.run}: {exc}", exc.run) from exc


@dataclass(frozen=True, eq=False)
class MassLedger:
    """Conservation audit: defect(s) compares the mass at step s with the
    initial mass corrected by everything that left through the outer ends."""

    masses: np.ndarray
    boundary_outflow: np.ndarray
    defects: np.ndarray

    @property
    def max_abs_defect(self) -> float:
        """The largest |defect|; inf when any defect is NaN or infinite, so
        a broken run can never pass a tolerance check."""
        worst = np.abs(self.defects)
        return float(worst.max()) if np.isfinite(worst).all() else math.inf


def mass_ledger(traj: Trajectory) -> MassLedger:
    """Per-step mass bookkeeping; the junction itself contributes nothing.

    outflow[s] is the correctly rounded sum of dt * boundary_net over the
    first s steps, and defects[s] that of mass[s] - mass[0] plus it: each
    rounds, once, the exact value that ``math.fsum`` over the prefix would
    round. ``kernels.prefix_layers`` gives the flows' exact prefix sums as
    a few layers; an outflow row holds the layers, a defect row mass[s],
    -mass[0] and the layers, and one ``kernels.cascade_sums`` rounds every
    row. Only a row whose cascade lost an error, or that holds a non-finite
    term, goes to ``math.fsum``, with the non-finite flows among its terms.
    Flows too large for an exact prefix sum (see ``prefix_layers``) raise
    OverflowError.
    """
    flows = traj.dts * traj.boundary_net
    masses = traj.masses
    special = ~np.isfinite(flows)
    layers = kernels.prefix_layers(np.where(special, 0.0, flows))
    # one cascade rounds both rows of every level: the defect rows in the
    # first n columns, the outflow rows (heads 0) in the last n; level 0
    # holds no flow
    n = masses.shape[0]
    rows = np.zeros((layers.shape[0] + 2, 2 * n))
    rows[0, :n] = masses
    rows[1, :n] = -masses[0]
    rows[2:, 1:n] = rows[2:, n + 1:] = layers
    sums, redo = kernels.cascade_sums(rows)
    if special.any():  # a non-finite flow is in every row after its step
        first = int(special.argmax()) + 1
        redo[first:n] = redo[n + first:] = True
    for c in redo.nonzero()[0].tolist():
        s = c % n
        sums[c] = math.fsum(rows[:, c].tolist()
                            + flows[:s][special[:s]].tolist())
    return MassLedger(masses.copy(), sums[n:], sums[:n])

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
checked by the verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from . import kernels
from .errors import (ConfigError, ConsistencyError, _refused, as_bounded,
                     as_count, as_positive, as_sequence, as_state)
from .junction import JunctionSpec, _solve_stack, solve_junction

_GAUSS_OFFSET = math.sqrt(0.6) / 2.0
_GAUSS_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
# cells and steps stay below this count, so they index and time exactly
_MAX_COUNT = 2**53
# the march's first block of levels fills this many bytes, and at least two
# levels; each block that fills up doubles the next, up to 64 levels or
# _MASS_BLOCK_MAX bytes, whichever is smaller (see ``_march``)
_MASS_BLOCK = 65536
_MASS_BLOCK_MAX = 1 << 20
_MASS_BLOCK_LEVELS = 64
# slices of the slot axis, of one buffer or of every buffer of a stack;
# made once, they index faster than a slice written out each time
_INNER, _LEFT, _RIGHT = np.s_[..., 1:-1], np.s_[..., :-1], np.s_[..., 1:]


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
    docstring); road-indexed arrays list incoming roads first. ``stacked``
    is the same layout for a stack of buffers, shape (runs, slots): each of
    its slot indices has an Ellipsis before it (see ``run_batch``)."""

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
    stacked: _Layout | None = None

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
        index = dict(
            cells=tuple(map(slice, first.tolist(), (last + 1).tolist())),
            ghosts=ghosts, ends=ends, pad=pad, beside_pad=pad - 1,
            adj=np.where(incoming, last, first),
            junc=np.where(incoming, last, first - 1),
            outer=np.where(incoming, ghosts, ends))
        stacked = {name: (..., at) for name, at in index.items()}
        stacked["cells"] = tuple((..., at) for at in index["cells"])
        slots, sweeps = int(stops[-1]), tuple(sweeps)
        return cls(slots, **index, sweeps=sweeps,
                   stacked=cls(slots, **stacked, sweeps=sweeps))

    @cached_property
    def skip(self) -> np.ndarray:
        """The ghost and pad slots, which hold no cell: the columns that
        ``kernels.row_sums`` leaves out of a level's mass."""
        return np.append(self.ghosts, self.pad)

    def views(self, u: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(map(u.__getitem__, self.cells))

    def fill(self, u: np.ndarray, ghosts=None) -> None:
        """Ghost cells copy the end cells (absorbing, ``ghosts`` None) or
        hold ``ghosts[h]`` (Dirichlet); the pad copies its neighbour."""
        u[self.ghosts] = u[self.ends] if ghosts is None else ghosts
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
    ``run``)."""

    mesh: NetworkMesh
    cfl_number: float
    t_final: float
    dirichlet_values: np.ndarray | None = None
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        self.cfl_number = as_positive("cfl_number", self.cfl_number, 1.0)
        self.t_final = as_bounded("t_final", self.t_final, 0.0)
        _step_count(self.t_final, cfl_timestep(self.mesh, self.cfl_number))
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


def _flux_grid(u: np.ndarray, mesh: NetworkMesh, gstar,
               eps: float = 0.0) -> np.ndarray:
    """The flux at every interface of the network buffer u: Godunov
    interface fluxes, less eps times the discrete gradient, and the junction
    fluxes ``gstar`` at x = 0. For a stack of buffers, shape (runs, slots),
    each row has its own row of ``gstar``, and the grid has a row per
    buffer."""
    if u.ndim == 1:
        layout = mesh._layout
        fgrid = np.empty(layout.slots - 1)
    else:
        layout = mesh._layout.stacked
        fgrid = np.empty((u.shape[0], layout.slots - 1))
    for first, stop, code, par, crit, fcrit in layout.sweeps:
        kernels.interface_fluxes(code, par, crit, fcrit, u[..., first:stop],
                                 fgrid[..., first:stop - 1])
    if eps > 0:  # eps * (u[1:] - u[:-1]) / dx, in one temporary
        grad = np.subtract(u[_RIGHT], u[_LEFT])
        grad *= eps
        grad /= mesh.dx
        fgrid -= grad
    fgrid[layout.junc] = gstar
    return fgrid


def _update(u: np.ndarray, mesh: NetworkMesh, lam, gstar, out: np.ndarray,
            ghosts=None, eps: float = 0.0):
    """One conservative update of the network buffer u, or of each buffer
    of a stack, with the fluxes of ``_flux_grid`` and lam = dt / dx (a
    float, or a 0-d array, which numpy pairs with an array faster),
    written into out, of u's shape and not overlapping it. Returns (out,
    its ghosts and pad filled, per-road outer boundary flux)."""
    layout = mesh._layout if u.ndim == 1 else mesh._layout.stacked
    fgrid = _flux_grid(u, mesh, gstar, eps)
    inner = np.subtract(fgrid[_RIGHT], fgrid[_LEFT], out=out[_INNER])
    inner *= lam
    np.subtract(u[_INNER], inner, out=inner)
    layout.fill(out, ghosts)
    return out, fgrid[layout.outer]


def _check_timestep(dt: float, limit: float) -> None:
    if as_positive("dt", dt) > limit * (1.0 + 4e-12):
        raise ConfigError(f"dt={dt} exceeds the stability bound {limit}",
                          kind="cfl")


def step(state: GridState, mesh: NetworkMesh, dt: float,
         dirichlet_values=None) -> GridState:
    """Advance one time level, with absorbing outer ends or, given
    ``dirichlet_values``, Dirichlet ones as in ``RunConfig``. Raises
    ConfigError if dt violates the CFL bound, ValueError (naming the road)
    on a state or Dirichlet values run would reject."""
    _check_timestep(dt, cfl_timestep(mesh, 1.0))
    ghosts = (None if dirichlet_values is None
              else mesh.spec.candidate(dirichlet_values))
    u = _pack(mesh, state, ghosts)
    sol = solve_junction(mesh.spec, u[mesh._layout.adj])
    u, _ = _update(u, mesh, dt / mesh.dx, sol.fluxes, np.empty_like(u),
                   ghosts)
    return GridState(state.time_step + 1, state.time + dt,
                     mesh._layout.views(u))


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
    the first road with a cell outside [A, B] or a NaN one; for a stack of
    buffers, the first run with one, by its row."""
    spec = mesh.spec
    lo, hi = spec._bounds
    if u.ndim > 1:
        r = int(((u >= lo) & (u <= hi)).all(axis=1).argmin())
        return ConsistencyError(f"run {r}: {_range_error(mesh, u[r], step)}")
    for h, cells in enumerate(mesh._layout.views(u)):
        inside = (cells >= lo) & (cells <= hi)
        if not inside.all():
            k = int(inside.argmin())
            return ConsistencyError(
                f"step {step}: road {h} cell {k} holds {float(cells[k])!r}, "
                f"outside [{spec.rho_min}, {spec.rho_max}]")
    # ghosts and the pad copy cells or hold validated Dirichlet values
    return ConsistencyError(f"step {step}: a ghost or pad slot leaves "
                            f"[{spec.rho_min}, {spec.rho_max}]")


def _guard(mesh: NetworkMesh, levels: np.ndarray, step: int) -> float:
    """The march's range guard over a block of levels, shape (levels,
    slots) or, of a stack, (levels, runs, slots), the first of them that of
    ``step``: one min and one max over the block. A slot outside [A, B]
    (beyond the slack of 1e-12 of the span that ``JunctionSpec.candidate``
    allows) or a NaN one raises the ConsistencyError of ``_range_error``
    for the first level that has one. Returns max|x| over the block, a
    bound of every row that ``kernels.row_sums`` takes."""
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
    """The time loop of every run from the network buffer u: steps of dt0,
    the last one shortened to land exactly on t_final. ``advance(u, lam,
    out)`` writes the level after u into out, a buffer of u's shape, with
    lam = dt / dx (of a full step, a 0-d array made once per run), and
    returns (out, per-road outer boundary flux, junction record, never
    None).

    u may be a stack of buffers, shape (runs, slots), of independent runs
    on one mesh (see ``run_batch``): ``advance`` then steps every row at
    once and returns one boundary row per run. Every per-level figure
    below is then taken per run, and one guard, one hold and one block
    serve the whole stack.

    The computed levels live in a ring, a block of level buffers that
    ``advance`` writes each level into, a row per level (and run); the
    level it reads is the row before, or the last row of the block
    before. The first block fills ``_MASS_BLOCK`` bytes (64 KB: 40 levels
    of 2 x 100 cells, 10 of 2 x 400) and holds at least two levels. Each
    block that fills up doubles the next, up to 64 levels or
    ``_MASS_BLOCK_MAX`` bytes (1 MB, 10 levels of 3 x 4000 cells),
    whichever is smaller, and to no more levels than steps are left: a
    short run pays for a small block, a long one for few flushes. The
    levels waiting in a block are flushed when it is full, when a hold
    starts (held levels repeat that mass) and at the end:

    - the maximum-principle guard (``_guard``) takes one min and one max
      over the waiting levels: a slot outside [A, B] or a NaN stops the run
      with a ConsistencyError that names the first such step and the road
      (and the run, of a stack);
    - one ``kernels.row_sums`` call takes the masses of all waiting
      levels, with the guard's bound, which spares it a max|x| pass, and
      less the ghost and pad columns: each mass is dx times ``math.fsum``
      of its level's cells, bit for bit, as ``GridState.total_mass`` gives
      the first level's. A non-finite mass stops the run, naming its own
      step.

    The steps after a bad level, up to the flush, are computed from it,
    with numpy's floating-point warnings off. An exception from
    ``advance`` first runs the guard over the waiting levels, so the error
    of an earlier step wins; a ConsistencyError of a junction solve in
    ``advance`` gets the step, and the run that ``advance`` names as its
    ``run``, before it. The first level was validated by ``_pack``.

    ``advance`` must be a pure function of the bytes of u and lam. A
    full-length step that returns its input bitwise, with the junction
    record of the step before, is then a fixed point: it would return the
    same buffer, boundary flux and record at every later full-length step.
    From there on the march holds that buffer and repeats the step's mass
    and boundary sum instead of advancing. The shortened last step is
    always computed, into a row other than the held level's.

    A kept level is copied out of the ring, a held one once, so held
    levels share one buffer; a ``GridState`` is built, after the loop,
    only for the levels kept (see the README's "Mass ledger" for the
    cost). Returns (states, buffers, times, dts, boundary_net, masses,
    records). ``states`` keeps every level if ``keep_states``, else the
    first, the last and those nearest ``snapshot_times``, each once and in
    order; ``buffers`` holds the buffer each kept level views. Of a stack,
    ``states`` and ``buffers`` hold one such list per run, and
    ``boundary_net`` and ``masses`` one column per run.
    """
    m = mesh.spec.m
    n_steps = _step_count(t_final, dt0)

    # time levels are known up front, so the kept ones can be too
    times = np.arange(n_steps + 1) * dt0
    if n_steps:
        times[-1] = t_final
    kept = {n_steps, *(int(np.abs(times - t).argmin())
                       for t in snapshot_times)}

    layout = mesh._layout
    views = layout.views
    batch = u.ndim > 1
    runs = u.shape[:-1]  # () for one run, (R,) for a stack of R
    width = len(u) if batch else 1
    firsts = [GridState(0, 0.0, views(row)) for row in (u if batch else [u])]
    masses = np.empty((n_steps + 1, *runs))
    masses[0] = np.reshape([state.total_mass(mesh.dx) for state in firsts],
                           runs)
    every_mass = masses.reshape(-1)  # level by level, run by run
    # the kept levels and their buffers
    steps = range(n_steps + 1) if keep_states else [0, *sorted(kept - {0})]
    buffers = [u]
    cap = max(2, min(_MASS_BLOCK_LEVELS, _MASS_BLOCK_MAX // u.nbytes))
    lam = np.array(dt0 / mesh.dx)

    def ring(height):
        # a block of height levels: its rows, and the same rows by level
        block = np.empty((height * width, layout.slots))
        return block, block.reshape(height, *runs, layout.slots)

    # the levels waiting to be flushed are rows start .. start + waiting - 1
    block, levels = ring(min(n_steps, max(2, _MASS_BLOCK // u.nbytes)))
    start = waiting = 0

    def flush(stop):
        # guard and take the masses of levels stop - waiting + 1 .. stop
        first = stop + 1 - waiting
        top = _guard(mesh, levels[start:start + waiting], first)
        got = [mesh.dx * total for total in kernels.row_sums(
            block[start * width:(start + waiting) * width],
            [top] * (waiting * width), layout.skip)]
        every_mass[first * width:(stop + 1) * width] = got
        if not all(map(math.isfinite, got)):  # name the first that is not
            level, r = divmod(list(map(math.isfinite, got)).index(False),
                              width)
            raise ConsistencyError(
                f"{f'run {r}: ' if batch else ''}step {first + level}: "
                f"total mass is {got[level * width + r]}")

    dts = [dt0] * n_steps
    bnet = [0.0] * n_steps
    records = [None] * n_steps
    record = None
    held = False
    copy = None  # what buffers holds of u, once it is kept
    with np.errstate(all="ignore"):  # a bad level is the guard's to report
        for s in range(n_steps):
            dt = times[s + 1] - s * dt0 if s == n_steps - 1 else dt0
            if not held or dt != dt0:
                if dt != dt0:
                    lam = dt / mesh.dx
                last = record
                out = levels[start + waiting]
                try:
                    _, boundary, record = advance(u, lam, out)
                except Exception as exc:
                    if waiting:  # the error of a bad level before wins
                        _guard(mesh, levels[start:start + waiting],
                               s + 1 - waiting)
                    if not isinstance(exc, ConsistencyError):
                        raise
                    run = getattr(exc, "run", None)  # a junction solve's
                    raise ConsistencyError(
                        f"{'' if run is None else f'run {run}: '}"
                        f"step {s + 1}: {exc}") from exc
                # compare bytes, so that -0.0 and 0.0 stay apart
                held = (dt == dt0 and record is last
                        and out.tobytes() == u.tobytes())
                flows = boundary.tolist()
                net = ([math.fsum(f[m:]) - math.fsum(f[:m]) for f in flows]
                       if batch
                       else math.fsum(flows[m:]) - math.fsum(flows[:m]))
                u, copy = out, None
                waiting += 1
                dts[s], records[s], bnet[s] = dt, record, net
                if held or start + waiting == len(levels):
                    flush(s + 1)
                    if held:  # held levels repeat this step's figures
                        masses[s + 2:] = masses[s + 1]
                        records[s + 1:] = [record] * (n_steps - s - 1)
                        bnet[s + 1:] = [net] * (n_steps - s - 1)
                        # the last step writes past the held row
                        start = (start + waiting) % len(levels)
                    else:
                        start = 0
                        grown = min(2 * len(levels), cap, n_steps - s - 1)
                        if grown > len(levels):
                            block, levels = ring(grown)
                    waiting = 0
            if keep_states or s + 1 in kept:
                if copy is None:
                    copy = u.copy()
                buffers.append(copy)
    if waiting:
        flush(n_steps)

    def kept_levels(first, rows):
        # one run's GridStates over the buffers of its kept levels; held
        # levels share one buffer, and so one values tuple
        states, last = [first], rows[0]
        for s, row in zip(steps[1:], rows[1:]):
            if row is not last:
                last, values = row, views(row)
            states.append(GridState(s, times[s], values))
        return states

    if batch:  # each kept stack split into its rows, a held one's once
        split = []
        for k, stack in enumerate(buffers):
            split.append(split[-1] if k and stack is buffers[k - 1]
                         else list(stack))
        buffers = [list(rows) for rows in zip(*split)]
        states = list(map(kept_levels, firsts, buffers))
    else:
        states = kept_levels(firsts[0], buffers)
    return (states, buffers, times, np.array(dts),
            np.array(bnet).reshape(n_steps, *runs), masses, records)


@dataclass(eq=False)
class Trajectory:
    """Record of one run: its kept time levels (every level, or those of a
    lean run, see ``run``; each names its step in ``time_step``) plus the
    junction log, masses and boundary flows of every step.
    ``junction_solves`` counts the junction solves made: a step whose
    junction state repeats the previous step's bitwise reuses its solution.
    ``buffers[s]`` is the network buffer (ghosts and pad filled) whose cells
    ``states[s].values`` view; levels held at a bitwise fixed point (see
    ``_march``) share one. Treat every buffer and values as read-only."""

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


def _trajectory(config: RunConfig, states, buffers, times, dts, bnet, masses,
                sols, solves: int) -> Trajectory:
    """One run's Trajectory from what ``_march`` returned for it and the
    junction solution of every step."""
    return Trajectory(config, states, buffers, times, dts,
                      np.array([sol.p_min for sol in sols]),
                      np.array([sol.p_max for sol in sols]),
                      np.array([sol.fluxes for sol in sols]).reshape(
                          len(sols), config.mesh.spec.m + config.mesh.spec.n),
                      np.array([sol.total for sol in sols]), bnet, masses,
                      solves)


def run(config: RunConfig, initial, keep_states: bool = True) -> Trajectory:
    """March from t=0 to t_final with a fixed CFL time step.

    ``initial`` is either a GridState or per-road data accepted by
    ``discretize_initial``. The final step is shortened to land exactly on
    t_final. All time levels are kept unless ``keep_states`` is False;
    then, to bound memory on fine meshes, ``states`` keeps the first level,
    the last and those nearest ``config.snapshot_times``, each once.
    """
    mesh = config.mesh
    ghosts = config.dirichlet_values
    adj = mesh._layout.adj
    key = known = hint = None
    solves = 0

    def advance(u, lam, out):
        # solve_junction is a pure function of the junction state, so a step
        # whose state repeats the previous one bitwise (an equilibrium, or
        # once the waves have left the node) reuses its solution; the bytes
        # keep -0.0 and 0.0 apart. Any other step hands the last active set
        # found on as a hint (a plateau's solve finds none), which spares
        # the scan but changes no result.
        nonlocal key, known, hint, solves
        state = u[adj]
        if (seen := state.tobytes()) != key:
            key, known = seen, solve_junction(mesh.spec, state, hint)
            hint = known.active or hint
            solves += 1
        return *_update(u, mesh, lam, known.fluxes, out, ghosts), known

    *marched, sols = _march(
        mesh, _pack(mesh, initial, ghosts),
        cfl_timestep(mesh, config.cfl_number), config.t_final, advance,
        keep_states, config.snapshot_times)
    return _trajectory(config, *marched, sols, solves)


def run_batch(config: RunConfig, initials,
              keep_states: bool = True) -> list[Trajectory]:
    """``[run(config, x, keep_states) for x in initials]``, every
    Trajectory bit for bit the same, marched as one stack of buffers,
    shape (runs, slots): each step makes one sweep per family group and
    one update for all runs at once, and each block of levels one range
    guard and one mass sum. It pays where many independent runs share one
    mesh and one config: the fixed cost of a step on a coarse mesh is then
    shared, and what is left per run is mostly its junction solve. ``run``
    marches its one buffer.

    Each run keeps its own bytewise reuse of the last solution, its own
    warm hint and its own solve count, as in ``run``; the runs whose
    junction state changed go to one stacked warm solve
    (``junction._solve_stack``), and the rows it leaves to
    ``solve_junction`` one by one. The stack holds a bitwise fixed point
    only once every run repeats its input (see ``_march``); a run that
    settles earlier is recomputed, which gives the same bits and makes no
    solve. An invalid initial datum raises ValueError naming its run, and a
    broken invariant ConsistencyError naming the run, the step and the road
    or the junction flux."""
    mesh = config.mesh
    spec = mesh.spec
    ghosts = config.dirichlet_values
    adj = mesh._layout.adj
    packed = []
    for r, initial in enumerate(as_sequence("initials", initials,
                                            empty=True)):
        try:
            packed.append(_pack(mesh, initial, ghosts))
        except ValueError as exc:
            raise ValueError(f"run {r}: {exc}") from None
    if not packed:
        return []
    count = len(packed)
    keys, known, solves = [None] * count, [None] * count, [0] * count
    hints = [None] * count  # each run's last active set found
    gstar = np.empty((count, spec.m + spec.n))
    stack_key = record = None

    def advance(u, lam, out):
        # run's reuse and hints, run by run; a step on which no run solves
        # returns the record of the step before, the same object. The runs
        # that solve go to one stacked warm solve, and what it leaves to
        # the scalar solve, one by one
        nonlocal stack_key, record
        junction = u[:, adj]
        if (seen := junction.tobytes()) != stack_key:
            stack_key = seen
            rows = []
            for r, state in enumerate(junction):
                if (key := state.tobytes()) != keys[r]:
                    keys[r] = key
                    rows.append(r)
            for r, sol in zip(rows, _solve_stack(
                    spec, junction if len(rows) == count else junction[rows],
                    [hints[r] for r in rows])):
                if sol is None:  # the stack has tried the hint: cold
                    try:
                        sol = solve_junction(spec, junction[r])
                    except ConsistencyError as exc:
                        exc.run = r  # _march names the run and the step
                        raise
                known[r] = sol
                hints[r] = sol.active or hints[r]
                solves[r] += 1
                gstar[r] = sol.fluxes
            record = tuple(known)
        return *_update(u, mesh, lam, gstar, out, ghosts), record

    states, buffers, times, dts, bnet, masses, records = _march(
        mesh, np.stack(packed), cfl_timestep(mesh, config.cfl_number),
        config.t_final, advance, keep_states, config.snapshot_times)
    return [_trajectory(config, states[r], buffers[r], times.copy(),
                        dts.copy(), bnet[:, r].copy(), masses[:, r].copy(),
                        [record[r] for record in records], solves[r])
            for r in range(count)]


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

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
and pad are filled whenever a buffer is made, so every slot is in range,
and roads of one flux family side by side share one Godunov sweep. Each
step makes a fresh buffer, and ``GridState.values`` are views of its cells;
levels the march holds at a bitwise fixed point share one buffer.

The scheme is monotone under the CFL bound dt <= dx / (2 max_h L_h), which
gives the maximum principle, order preservation, and discrete L1 contraction
checked by the verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import kernels
from .errors import ConfigError, ConsistencyError
from .junction import JunctionSpec, solve_junction

_GAUSS_OFFSET = math.sqrt(0.6) / 2.0
_GAUSS_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
# cells and steps stay below this count, so they index and time exactly
_MAX_COUNT = 2**53


@dataclass(eq=False)
class NetworkMesh:
    """Uniform-cell truncation of the star network."""

    spec: JunctionSpec
    dx: float
    cells_per_road: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise ValueError("dx must be positive and finite")
        try:
            counts = np.asarray(self.cells_per_road, dtype=np.int64)
        except OverflowError:  # a count beyond int64 fails the shape test
            counts = np.zeros(0, dtype=np.int64)
        roads = self.spec.m + self.spec.n
        if counts.shape == ():
            counts = np.full(roads, int(counts))
        # the slots of the network buffer are counted below 2**53
        if (counts.shape != (roads,) or counts.min() < 1
                or sum(counts.tolist()) + roads + 1 >= _MAX_COUNT):
            raise ValueError(f"cells_per_road must be {roads} positive "
                             f"counts, fewer than 2**53 cells in all")
        self.cells_per_road = counts
        self._layout = _Layout.build(self.spec, counts)

    def centers(self, road: int) -> np.ndarray:
        """Cell midpoints; negative coordinates on incoming roads."""
        n = int(self.cells_per_road[road])
        if road < self.spec.m:
            return (np.arange(-n, 0) + 0.5) * self.dx
        return (np.arange(0, n) + 0.5) * self.dx

    def road_length(self, road: int) -> float:
        return float(self.cells_per_road[road]) * self.dx


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each road lives in the network buffer (see the module
    docstring); road-indexed arrays list incoming roads first."""

    slots: int
    cells: tuple[slice, ...]
    ghosts: np.ndarray  # ghost slot of every road
    ends: np.ndarray  # outer end cell, which an absorbing ghost copies
    pad: int  # copies the cell before it
    adj: np.ndarray  # the cell next to the junction
    junc: np.ndarray  # the junction interface
    outer: np.ndarray  # the outer interface
    sweeps: tuple  # (first, stop, code, params, crit, fcrit) per sweep

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
        adj = np.where(incoming, last, first)
        # LWR roads side by side, or symmetric-quadratic ones, share one
        # sweep with per-slot parameters; any other road has its own
        sweeps = []
        for code, run in groupby(range(len(spec.fluxes)), lambda h: (
                spec._codes[h] if spec._codes[h] < kernels.FAMILY_POLY
                else -1 - h)):
            run = list(run)
            each = sizes[run]
            params = (spec.fluxes[run[0]].params if code < 0 else np.repeat(
                np.array([spec._params[h] for h in run]).T, each, axis=1))
            sweeps.append((int(stops[run[0]] - each[0]), int(stops[run[-1]]),
                           spec._codes[run[0]], params,
                           np.repeat([spec._crits[h] for h in run], each),
                           np.repeat([spec._fcrits[h] for h in run], each)))
        return cls(int(stops[-1]),
                   tuple(map(slice, first.tolist(), (last + 1).tolist())),
                   ghosts, ends, int(stops[spec.m - 1] - 1), adj,
                   np.where(incoming, last, first - 1),
                   np.where(incoming, ghosts, ends),
                   tuple(sweeps))

    def views(self, u: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(u[c] for c in self.cells)

    def fill(self, u: np.ndarray, ghosts=None) -> None:
        """Ghost cells copy the end cells (absorbing, ``ghosts`` None) or
        hold ``ghosts[h]`` (Dirichlet); the pad copies its neighbour."""
        u[self.ghosts] = u[self.ends] if ghosts is None else ghosts
        u[self.pad] = u[self.pad - 1]


@dataclass(frozen=True, eq=False)
class GridState:
    """Cell averages of all roads at one time level. Treat values as read-only."""

    time_step: int
    time: float
    values: tuple[np.ndarray, ...]

    def total_mass(self, dx: float, top: float | None = None) -> float:
        """dx times the correctly rounded sum of all cells. ``top``, a bound
        on every |cell|, spares ``kernels.exact_sum`` reading max|cell|;
        the sum is the same either way."""
        return dx * kernels.exact_sum(np.concatenate(self.values), top)


@dataclass(eq=False)
class RunConfig:
    """Everything a simulation run needs besides the initial data."""

    mesh: NetworkMesh
    cfl_number: float
    t_final: float
    outer_bc: str = "absorbing"
    dirichlet_values: np.ndarray | None = None
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.cfl_number <= 1.0:
            raise ValueError("cfl_number must lie in (0, 1]")
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError("t_final must be nonnegative and finite")
        _step_count(self.t_final, cfl_timestep(self.mesh, self.cfl_number))
        if self.outer_bc not in ("absorbing", "dirichlet"):
            raise ValueError(f"unknown outer_bc {self.outer_bc!r}")
        if self.outer_bc == "dirichlet":
            if self.dirichlet_values is None:
                raise ValueError("dirichlet boundaries need dirichlet_values")
            self.dirichlet_values = self.mesh.spec.candidate(
                self.dirichlet_values)
        self.snapshot_times = tuple(sorted(set(float(t)
                                               for t in self.snapshot_times)))
        if not all(0.0 <= t <= self.t_final for t in self.snapshot_times):
            raise ValueError("snapshot_times must lie in [0, t_final]")


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
    if len(data) != spec.m + spec.n:
        raise ValueError(f"need initial data for {spec.m + spec.n} roads")
    slack = 1e-12 * spec.span
    values = []
    for road, item in enumerate(data):
        centers = mesh.centers(road)
        if callable(item):
            cells = _gauss_averages(item, centers, mesh.dx)
        elif isinstance(item, tuple) and len(item) == 2:
            cells = _piecewise_averages(item[0], item[1], centers, mesh.dx)
        elif np.ndim(item) == 0:
            cells = np.full(centers.shape, float(item))
        else:
            cells = np.asarray(item, dtype=float).copy()
            if cells.shape != centers.shape:
                raise ValueError(f"road {road}: expected "
                                 f"{centers.shape[0]} cell values")
        if not np.isfinite(cells).all():
            raise ValueError(f"road {road}: initial data must be finite")
        if (cells.min() < spec.rho_min - slack
                or cells.max() > spec.rho_max + slack):
            raise ValueError(f"road {road}: initial data outside "
                             f"[{spec.rho_min}, {spec.rho_max}]")
        values.append(cells)
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
    if not 0.0 < cfl_number <= 1.0:
        raise ValueError("cfl_number must lie in (0, 1]")
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
    fluxes ``gstar`` at x = 0."""
    layout = mesh._layout
    fgrid = np.empty(layout.slots - 1)
    for first, stop, code, par, crit, fcrit in layout.sweeps:
        kernels.interface_fluxes(code, par, crit, fcrit, u[first:stop],
                                 fgrid[first:stop - 1])
    if eps > 0:  # eps * (u[1:] - u[:-1]) / dx, in one temporary
        grad = np.subtract(u[1:], u[:-1])
        grad *= eps
        grad /= mesh.dx
        fgrid -= grad
    fgrid[layout.junc] = gstar
    return fgrid


def _update(u: np.ndarray, mesh: NetworkMesh, dt: float, gstar, ghosts=None,
            eps: float = 0.0):
    """One conservative update of the network buffer u with the fluxes of
    ``_flux_grid``. Returns (the new buffer, its ghosts and pad filled,
    per-road outer boundary flux)."""
    layout = mesh._layout
    fgrid = _flux_grid(u, mesh, gstar, eps)
    new = np.empty(layout.slots)
    diff = fgrid[1:] - fgrid[:-1]
    diff *= dt / mesh.dx
    np.subtract(u[1:-1], diff, out=new[1:-1])
    layout.fill(new, ghosts)
    return new, fgrid[layout.outer]


def _check_timestep(dt: float, limit: float) -> None:
    if not dt > 0:
        raise ValueError("dt must be positive")
    if dt > limit * (1.0 + 4e-12):
        raise ConfigError(f"dt={dt} exceeds the stability bound {limit}",
                          kind="cfl")


def step(state: GridState, mesh: NetworkMesh, dt: float,
         outer_bc: str = "absorbing", dirichlet_values=None) -> GridState:
    """Advance one time level. Raises ConfigError if dt violates the CFL
    bound, ValueError (naming the road) on a state run would reject."""
    _check_timestep(dt, mesh.dx / (2.0 * mesh.spec.lipschitz_max))
    ghosts = None
    if outer_bc == "dirichlet":
        ghosts = mesh.spec.candidate(dirichlet_values)
    elif outer_bc != "absorbing":
        raise ValueError(f"unknown outer_bc {outer_bc!r}")
    u = _pack(mesh, state, ghosts)
    sol = solve_junction(mesh.spec, u[mesh._layout.adj])
    u, _ = _update(u, mesh, dt, sol.fluxes, ghosts)
    return GridState(state.time_step + 1, state.time + dt,
                     mesh._layout.views(u))


def _step_count(t_final: float, dt0: float) -> int:
    """Steps of dt0 to t_final, the last one shortened; ValueError at 2**53
    steps or more."""
    if not t_final / dt0 < _MAX_COUNT:  # an overflow to inf fails this too
        raise ValueError(f"t_final={t_final:g} takes 2**53 or more steps "
                         f"of dt={dt0:g}")
    return max(1, math.ceil(t_final / dt0 - 1e-12)) if t_final > 0 else 0


def _range_error(mesh: NetworkMesh, u: np.ndarray,
                 step: int) -> ConsistencyError:
    """The error for a buffer that failed the march's range guard, naming
    the first road with a cell outside [A, B] or a NaN one."""
    spec = mesh.spec
    lo, hi = spec._bounds
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


def _march(mesh: NetworkMesh, u: np.ndarray, dt0: float, t_final: float,
           advance, keep_states: bool = True, snapshot_times=()):
    """The time loop of every run from the network buffer u: steps of dt0,
    the last one shortened to land exactly on t_final. ``advance(u, dt)``
    returns (new buffer, per-road outer boundary flux, junction record,
    never None).

    Each computed buffer gets one min/max pass, the maximum-principle
    guard: a slot outside [A, B] (beyond the slack of 1e-12 of the span
    that ``JunctionSpec.candidate`` allows) or a NaN stops the run with a
    ConsistencyError that names the step and the road. The same bound
    spares the exact mass its own max|x| pass; a non-finite mass stops the
    run too. The first level was validated by ``_pack``, and a step that
    returns its input bitwise with the record of the step before repeats
    a buffer that has passed.

    ``advance`` must be a pure function of the bytes of u and dt. A
    full-length step that returns its input bitwise, with the junction
    record of the step before, is then a fixed point: it would return the
    same buffer, boundary flux and record at every later full-length step.
    From there on the march holds that buffer and repeats the step's mass
    and boundary sum instead of advancing; held levels share one buffer.
    The shortened last step is always computed.

    Returns (states, buffers, snapshots, times, dts, boundary_net, masses,
    records); ``states`` keeps the first and last level only unless
    ``keep_states``, ``buffers`` the buffer each kept level views,
    ``snapshots`` the levels nearest 0, t_final and ``snapshot_times``.
    """
    m = mesh.spec.m
    lo_ok, hi_ok = mesh.spec._bounds
    n_steps = _step_count(t_final, dt0)

    # time levels are known up front, so snapshot indices can be too
    times = np.empty(n_steps + 1)
    times[0] = 0.0
    for s in range(n_steps):
        times[s + 1] = t_final if s == n_steps - 1 else (s + 1) * dt0
    snap_idx = {int(np.abs(times - t).argmin())
                for t in (*snapshot_times, 0.0, t_final)}

    views = mesh._layout.views
    state = GridState(0, 0.0, views(u))
    states, buffers = [state], [u]
    snapshots = [state]
    masses = np.empty(n_steps + 1)
    masses[0] = state.total_mass(mesh.dx)
    dts = np.empty(n_steps)
    bnet = np.empty(n_steps)
    records = []
    record = None
    held = False
    for s in range(n_steps):
        dt = times[s + 1] - s * dt0 if s == n_steps - 1 else dt0
        if not held or dt != dt0:
            last = record
            new, boundary, record = advance(u, dt)
            # compare bytes, so that -0.0 and 0.0 stay apart
            repeat = record is last and new.tobytes() == u.tobytes()
            if not repeat:  # else the buffer has passed the guard already
                lo, hi = float(new.min()), float(new.max())
                if not (lo_ok <= lo and hi <= hi_ok):  # NaN fails this too
                    raise _range_error(mesh, new, s + 1)
            state = GridState(s + 1, times[s + 1], views(new))
            mass = state.total_mass(mesh.dx, max(-lo, hi))
            if not math.isfinite(mass):
                raise ConsistencyError(f"step {s + 1}: total mass is {mass}")
            net = (math.fsum(boundary[m:].tolist())
                   - math.fsum(boundary[:m].tolist()))
            held = repeat and dt == dt0
            u = new
        else:
            state = GridState(s + 1, times[s + 1], state.values)
        if keep_states or s == n_steps - 1:
            states.append(state)
            buffers.append(u)
        if s + 1 in snap_idx:
            snapshots.append(state)
        masses[s + 1] = mass
        dts[s] = dt
        records.append(record)
        bnet[s] = net
    return states, buffers, snapshots, times, dts, bnet, masses, records


@dataclass(eq=False)
class Trajectory:
    """Full record of one run: every time level plus the junction log.
    ``junction_solves`` counts the junction solves made: a step whose
    junction state repeats the previous step's bitwise reuses its solution.
    ``buffers[s]`` is the network buffer (ghosts and pad filled) whose cells
    ``states[s].values`` view; levels held at a bitwise fixed point (see
    ``_march``) share one. Treat every buffer and values as read-only."""

    config: RunConfig
    states: list[GridState]
    buffers: list[np.ndarray]
    snapshots: list[GridState]
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


def run(config: RunConfig, initial, keep_states: bool = True) -> Trajectory:
    """March from t=0 to t_final with a fixed CFL time step.

    ``initial`` is either a GridState or per-road data accepted by
    ``discretize_initial``. The final step is shortened to land exactly on
    t_final. All time levels are kept unless ``keep_states`` is False (then
    only the first and last survive, to bound memory on fine meshes);
    ``snapshots`` holds the states nearest the requested snapshot times
    (plus the initial and final states) either way.
    """
    mesh = config.mesh
    ghosts = config.dirichlet_values if config.outer_bc == "dirichlet" else None
    adj = mesh._layout.adj
    key = known = None
    solves = 0

    def advance(u, dt):
        # solve_junction is a pure function of the junction state, so a step
        # whose state repeats the previous one bitwise (an equilibrium, or
        # once the waves have left the node) reuses its solution; the bytes
        # keep -0.0 and 0.0 apart. Any other step hands the last active set
        # on as a hint, which spares the scan but changes no result.
        nonlocal key, known, solves
        state = u[adj]
        if state.tobytes() != key:
            key, known = state.tobytes(), solve_junction(
                mesh.spec, state, None if known is None else known.active)
            solves += 1
        return *_update(u, mesh, dt, known.fluxes, ghosts), known

    states, buffers, snapshots, times, dts, bnet, masses, sols = _march(
        mesh, _pack(mesh, initial, ghosts),
        cfl_timestep(mesh, config.cfl_number), config.t_final, advance,
        keep_states, config.snapshot_times)
    return Trajectory(config, states, buffers, snapshots, times, dts,
                      np.array([sol.p_min for sol in sols]),
                      np.array([sol.p_max for sol in sols]),
                      np.array([sol.fluxes for sol in sols]).reshape(
                          len(sols), mesh.spec.m + mesh.spec.n),
                      np.array([sol.total for sol in sols]), bnet, masses,
                      solves)


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
    for c in np.flatnonzero(redo):
        s = c % n
        sums[c] = math.fsum(rows[:, c].tolist()
                            + flows[:s][special[:s]].tolist())
    return MassLedger(masses.copy(), sums[n:], sums[:n])

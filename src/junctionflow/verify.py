"""Verification harness for the network scheme.

The central object is a discrete two-solution audit: for trajectories u and
u-hat on the same mesh, the Crandall-Majda cell inequalities sum against a
nonnegative test weight into a quadratic form that must stay nonpositive.
Its fluxes are the scheme's own: the march's network buffer of each time
level goes unchanged to its flux grid. The junction enters through the flux
differences of the coupled solves at the componentwise max and min states;
its weight coefficient vanishes identically because the test weight is flat
across the junction, and the coupled solves conserve total flux. On top of
that sit an L1 contraction check on shrinking windows, entropy residuals
against equilibrium states, grid-refinement studies against the exact
similarity sampler, and seeded samplers producing equilibrium states for
ensemble tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigError, ConsistencyError, PreconditionError,
                     as_bounded, as_count, as_positive, as_sequence)
from .fluxes import quadratic_lwr
from .junction import (JunctionSpec, _solve_stack, is_germ_member,
                       is_strict_germ_member, riemann_solve, solve_junction)
from .scheme import (NetworkMesh, RunConfig, Trajectory, _cell_count,
                     _flux_grid, _pack, run)


# ---------------------------------------------------------------------------
# test weights

@dataclass(eq=False)
class TestFunction:
    """Nonnegative tensor-product weight xi(t, x) for the discrete audits.

    ``space_profile`` must be exactly constant on [-plateau, plateau] so the
    two junction-adjacent cell centers carry the same weight as the junction
    point itself; ``time_profile`` must vanish at t = 0, stay zero through
    the first time level, and vanish again at the final recorded time.
    """

    time_profile: Callable[[float], float]
    space_profile: Callable[[float], float]
    plateau: float

    def time_levels(self, times: np.ndarray) -> np.ndarray:
        return np.array([self.time_profile(t) for t in times.tolist()])

    def space_cells(self, mesh: NetworkMesh) -> list[np.ndarray]:
        return [np.array([self.space_profile(x)
                          for x in mesh.centers(h).tolist()])
                for h in range(mesh.spec.m + mesh.spec.n)]


def bump_test_function(t_on: float, t_off: float, reach: float,
                       plateau: float) -> TestFunction:
    """Smooth bump in time on (t_on, t_off), times a space profile equal to
    1 on [-plateau, plateau] and falling smoothly to 0 at distance reach."""
    t_on, t_off, reach, plateau = (as_bounded(name, x, 0.0) for name, x in zip(
        ("t_on", "t_off", "reach", "plateau"), (t_on, t_off, reach, plateau)))
    if not (t_on < t_off and 0 < plateau < reach):
        raise ValueError(f"need 0 <= t_on < t_off and 0 < plateau < reach, "
                         f"got {t_on!r}, {t_off!r}, {plateau!r}, {reach!r}")

    def time_profile(t: float) -> float:
        z = (2.0 * t - t_on - t_off) / (t_off - t_on)
        if abs(z) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - z * z))

    def space_profile(x: float) -> float:
        r = abs(x)
        if r <= plateau:
            return 1.0
        if r >= reach:
            return 0.0
        z = (r - plateau) / (reach - plateau)
        return 1.0 - z * z * z * (10.0 - 15.0 * z + 6.0 * z * z)

    return TestFunction(time_profile, space_profile, plateau)


# ---------------------------------------------------------------------------
# discrete two-solution audit

@dataclass(frozen=True)
class KatoReport:
    """Outcome of a two-solution audit: the assembled quadratic form and the
    mass-scaled tolerance it must stay below."""

    value: float
    tolerance: float
    passed: bool


def _shared_mesh(traj_a: Trajectory, traj_b: Trajectory) -> NetworkMesh:
    """The mesh two trajectories must share; their time levels must agree."""
    a, b = traj_a.mesh, traj_b.mesh
    if not (a is b or (a.spec is b.spec and a.dx == b.dx and np.array_equal(
            a.cells_per_road, b.cells_per_road))):
        raise ConfigError("trajectories live on different meshes")
    if not np.array_equal(traj_a.times, traj_b.times):
        raise ConfigError("trajectories have different time levels")
    return a


def _all_levels(what: str, *trajs: Trajectory) -> None:
    """ConfigError unless every trajectory kept all its time levels."""
    if any(len(traj.states) != len(traj.times) for traj in trajs):
        raise ConfigError(f"{what} needs all time levels recorded")


def _assemble_audit(mesh: NetworkMesh, levels_a, levels_b, times, dts,
                    xi: TestFunction) -> float:
    """The summed form over the network buffers of two runs' time levels
    (``Trajectory.buffers``): for each recorded step s >= 1,

        -dx * sum_cells |u - u_hat|^s * (xi^{s+1} - xi^s)
        -dt_s * sum_interfaces Q^s * (xi^{s+1}_right - xi^{s+1}_left)

    where Q is the scheme's flux grid (``scheme._flux_grid``, with the
    coupled junction solve at x = 0) at the componentwise max minus the one
    at the componentwise min, taken in absolute value at the outer ends,
    whose absorbing ghosts (refilled after a Dirichlet run) make it f(end);
    the weight beyond the outer ends is zero, and the weight at the junction
    point is the plateau value. A non-finite slot has no flux: the form is inf.
    """
    # 64 levels at a time: few numpy calls, and a bounded copy
    levels = (*levels_a, *levels_b)
    if not all(np.isfinite(np.concatenate(levels[k:k + 64])).all()
               for k in range(0, len(levels), 64)):
        return math.inf
    spec = mesh.spec
    layout = mesh._layout
    tv = xi.time_levels(times).tolist()
    x0 = xi.space_profile(0.0)
    if len(times) < 3:
        raise PreconditionError("audit needs at least two recorded steps")
    if tv[0] != 0.0 or tv[1] != 0.0 or tv[-1] != 0.0:
        raise PreconditionError(
            "time profile must vanish at t=0, at the first level, "
            "and at the final level")
    if xi.plateau < mesh.dx / 2 * (1 - 1e-12):
        raise PreconditionError(
            "space plateau must cover the junction-adjacent cell centers")
    weight = np.zeros(layout.slots)  # ghosts and the pad weigh nothing
    for cells, xs in zip(layout.cells, xi.space_cells(mesh)):
        weight[cells] = xs
    adj = layout.adj
    if (weight[adj] != x0).any():
        raise PreconditionError("space profile not flat at the junction")
    rise = np.diff(weight)
    # the junction point weighs x0, as do the cells on either side of it
    rise[layout.junc] = 0.0

    # the levels go through in stacks of up to 64, end to end in one buffer
    # (``_Layout.runs``): a stack's max and min states, flux grids and q are
    # one numpy call each, and its junction solves are ``_level_solves``
    slots = layout.slots
    terms = []
    dts = dts.tolist()
    hints = stack = None
    for start in range(1, len(times) - 1, 64):
        steps = range(start, min(start + 64, len(times) - 1))
        if stack is None or stack.slots != len(steps) * slots:
            stack = layout.runs(len(steps))  # of 64 levels, then the rest
        ua = np.concatenate([levels_a[s] for s in steps])
        ub = np.concatenate([levels_b[s] for s in steps])
        hi, lo = np.maximum(ua, ub), np.minimum(ua, ub)
        stack.fill(hi)
        stack.fill(lo)
        chains, hints = _level_solves(spec, np.stack((
            hi[stack.adj], lo[stack.adj])).reshape(2, len(steps), -1), hints)
        g_hi, g_lo = np.array([[sol.fluxes for sol in chain]
                               for chain in chains])
        q = (_flux_grid(hi, mesh, g_hi, layout=stack)
             - _flux_grid(lo, mesh, g_lo, layout=stack))
        q[stack.outer] = np.abs(q[stack.outer])
        gaps = np.abs(ua - ub)  # a dot per level; q between two is unread
        for at, s in zip(range(0, gaps.shape[0], slots), steps):
            terms.append(-mesh.dx * (tv[s + 1] - tv[s])
                         * float(np.dot(gaps[at:at + slots], weight)))
            terms.append(-dts[s] * tv[s + 1]
                         * float(np.dot(q[at:at + slots - 1], rise)))
    return math.fsum(terms)


def _level_solves(spec: JunctionSpec, states: np.ndarray, hints):
    """The junction solution of every level of each chain of states, shape
    (chains, levels, m + n), the audit's max states and its min states:
    ``solve_junction(spec, state, hint)`` hinted with the last active set
    its chain has found (a plateau's solve finds none), bit for bit, and
    each chain's hint after its last level. ``hints`` holds each chain's
    hint before the first level, or is None at the first audited level,
    which is solved cold.

    Rows of one stacked solve (``junction._solve_stack``) cannot chain, so
    every later level is hinted with its chain's hint before the first;
    the rows it leaves are solved one by one, in order, hinted by the last
    set found where that is not the set the stack tried."""
    if hints is None:
        sols = [[solve_junction(spec, chain[0])] for chain in states]
        hints = [chain[0].active for chain in sols]
        states = states[:, 1:]
    else:
        sols = [[] for _ in hints]
    levels = states.shape[1]
    got = _solve_stack(spec, states.reshape(-1, states.shape[2]),
                       [hint for hint in hints for _ in range(levels)])
    for c, chain in enumerate(sols):
        tried = hint = hints[c]
        for k, sol in enumerate(got[c * levels:(c + 1) * levels]):
            if sol is None:  # the stack has tried its hint
                sol = solve_junction(spec, states[c, k],
                                     None if hint == tried else hint)
            chain.append(sol)
            hint = sol.active or hint
        hints[c] = hint
    return sols, hints


def _mass_scale(mesh: NetworkMesh) -> float:
    return mesh.dx * mesh.spec.span * float(np.sum(mesh.cells_per_road))


def kato_audit(traj_a: Trajectory, traj_b: Trajectory,
               xi: TestFunction) -> KatoReport:
    """Audit two trajectories against each other; the assembled form must be
    nonpositive up to 1e-10 of the mass scale dx * (B - A) * total cells."""
    mesh = _shared_mesh(traj_a, traj_b)
    _all_levels("audit", traj_a, traj_b)
    tol = 1e-10 * _mass_scale(mesh)
    value = _assemble_audit(mesh, traj_a.buffers, traj_b.buffers,
                            traj_a.times, traj_a.dts, xi)
    return KatoReport(value, tol, value <= tol)


def adapted_entropy_residual(traj: Trajectory, k, xi: TestFunction) -> float:
    """Entropy residual of a trajectory against one equilibrium state k.

    Equals minus the two-solution audit value with the second trajectory
    frozen at k (an exact steady state of the scheme), so admissible output
    must keep it above -1e-10 times the mass scale.
    """
    mesh = traj.mesh
    spec = mesh.spec
    k = spec.candidate(k)
    if not is_germ_member(spec, k):
        raise PreconditionError(
            "comparison state must be an equilibrium of the junction")
    _all_levels("residual", traj)
    return -_assemble_audit(mesh, traj.buffers,
                            [_pack(mesh, k)] * len(traj.times), traj.times,
                            traj.dts, xi)


# ---------------------------------------------------------------------------
# L1 contraction on shrinking windows

@dataclass(frozen=True)
class ContractionReport:
    """Per-step L1 distances over windows shrinking by one cell per step."""

    distances: np.ndarray
    window_cells: np.ndarray
    tolerance: float
    passed: bool


def l1_contraction_check(traj_a: Trajectory, traj_b: Trajectory,
                         window: float) -> ContractionReport:
    """L1 distance near the junction must not grow while the window outruns
    the discrete domain of dependence (one cell per step); both trajectories
    must keep every time level."""
    mesh = _shared_mesh(traj_a, traj_b)
    _all_levels("L1 contraction check", traj_a, traj_b)
    spec = mesh.spec
    try:
        k0 = int(math.floor(as_positive("window", window) / mesh.dx + 1e-9))
    except ValueError as exc:
        raise ConfigError(str(exc), kind="range") from None
    if k0 < 1:
        raise ConfigError("window covers no cells", kind="range")
    if k0 > int(mesh.cells_per_road.min()):
        raise ConfigError("window larger than the truncated roads",
                          kind="range")
    n_steps = len(traj_a.states) - 1
    last = min(n_steps, k0 - 1)
    distances = np.empty(last + 1)
    windows = np.empty(last + 1, dtype=np.int64)
    for s in range(last + 1):
        cells = k0 - s
        va = traj_a.states[s].values
        vb = traj_b.states[s].values
        acc = 0.0
        for h in range(spec.m):
            acc += float(np.abs(va[h][-cells:] - vb[h][-cells:]).sum())
        for h in range(spec.m, spec.m + spec.n):
            acc += float(np.abs(va[h][:cells] - vb[h][:cells]).sum())
        distances[s] = mesh.dx * acc
        windows[s] = cells
    tol = 1e-12
    passed = bool(np.all(np.diff(distances) <= tol))
    return ContractionReport(distances, windows, tol, passed)


# ---------------------------------------------------------------------------
# convergence studies

@dataclass(eq=False)
class RiemannProblem:
    """Constant-per-road initial data with a known similarity solution."""

    spec: JunctionSpec
    initial: np.ndarray
    t_final: float
    road_length: float = 1.0
    cfl: float = 0.9

    def __post_init__(self):
        self.initial = self.spec.candidate(self.initial)
        self.t_final = as_positive("t_final", self.t_final)
        self.road_length = as_positive("road_length", self.road_length)
        self.cfl = as_positive("cfl", self.cfl, 1.0)

    def exact_cells(self, mesh: NetworkMesh) -> tuple[np.ndarray, ...]:
        """Similarity solution sampled at cell centers at t_final."""
        rs = riemann_solve(self.spec, self.initial)
        out = []
        for h in range(self.spec.m + self.spec.n):
            out.append(rs.sample(h, mesh.centers(h) / self.t_final))
        return tuple(out)


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of (dx, L1 error, observed order); order is reported only."""

    rows: tuple[tuple[float, float, float], ...]
    decreasing: bool


def _final_values(problem: RiemannProblem, dx: float,
                  cells: int) -> tuple[NetworkMesh, tuple]:
    mesh = NetworkMesh(problem.spec, dx,
                       np.full(problem.spec.m + problem.spec.n, cells))
    config = RunConfig(mesh, problem.cfl, problem.t_final)
    traj = run(config, problem.initial, keep_states=False)
    return mesh, traj.final.values


def convergence_study(problem: RiemannProblem, dx_list,
                      reference: str = "exact",
                      fine_dx: float | None = None) -> ConvergenceReport:
    """L1 errors at t_final on a ladder of meshes (given coarse to fine).

    ``reference`` picks the comparison: "exact" samples the similarity
    solution; "fine" block-averages one extra run on a mesh of width
    fine_dx (default: a quarter of the finest requested dx), which must
    divide every requested dx. Every dx and fine_dx must be positive and
    finite and tile the road length, and dx_list must not be empty; all of
    it is checked before the first run.
    """
    if reference not in ("exact", "fine"):
        raise ValueError("reference must be 'exact' or 'fine'")
    dx_list = [as_positive("dx", d) for d in as_sequence("dx_list", dx_list)]
    if fine_dx is not None:
        fine_dx = as_positive("fine_dx", fine_dx)
    cells = [_cell_count("dx", problem.road_length, dx) for dx in dx_list]
    if reference == "fine":
        if fine_dx is None:
            fine_dx = min(dx_list) / 4.0
        fine_cells = _cell_count("fine_dx", problem.road_length, fine_dx)
        ratios = [round(dx / fine_dx) for dx in dx_list]
        # to 1e-9 of each dx, relative as in ``_cell_count``
        if any(abs(r * fine_dx - dx) > 1e-9 * dx
               for r, dx in zip(ratios, dx_list)):
            raise ValueError("fine_dx must divide every dx")
        _, ref_values = _final_values(problem, fine_dx, fine_cells)

    rows = []
    prev = None
    for k, dx in enumerate(dx_list):
        mesh, values = _final_values(problem, dx, cells[k])
        err_parts = []
        if reference == "exact":
            exact = problem.exact_cells(mesh)
            for h in range(problem.spec.m + problem.spec.n):
                err_parts.append(dx * float(np.abs(values[h]
                                                   - exact[h]).sum()))
        else:
            for h in range(problem.spec.m + problem.spec.n):
                blocks = ref_values[h].reshape(cells[k], ratios[k]).mean(
                    axis=1)
                err_parts.append(dx * float(np.abs(values[h] - blocks).sum()))
        err = math.fsum(err_parts)
        if prev is None:
            order = math.nan
        else:
            pdx, perr = prev
            order = (math.log(perr / err) / math.log(pdx / dx)
                     if err > 0 and perr > 0 else math.nan)
        rows.append((dx, err, order))
        prev = (dx, err)
    errs = [r[1] for r in rows]
    decreasing = all(errs[i + 1] <= errs[i] + 1e-12
                     for i in range(len(errs) - 1))
    return ConvergenceReport(tuple(rows), decreasing)


# ---------------------------------------------------------------------------
# samplers

def germ_sampler(spec: JunctionSpec, count: int, seed: int,
                 strict_only: bool = False) -> list[np.ndarray]:
    """Seeded equilibrium states: random constant data pushed through the
    similarity solver; the traces it leaves at the junction are equilibria."""
    count = as_count("count", count)
    rng = np.random.default_rng(as_count("seed", seed, 0))
    span = spec.span
    out: list[np.ndarray] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count:
            raise ConsistencyError("sampler starved; spec admits too few "
                                   "strict equilibria")
        u0 = spec.rho_min + span * rng.random(spec.m + spec.n)
        k = riemann_solve(spec, u0).traces
        if strict_only and not is_strict_germ_member(spec, k):
            continue
        out.append(k)
    return out


def nonstrict_germ_sampler(count: int, seed: int) \
        -> list[tuple[JunctionSpec, np.ndarray]]:
    """Seeded family of equilibria that are members but never strict.

    Construction on a 2-in/1-out junction of quadratic fluxes: put the first
    incoming road at p on the falling branch (pinning the coupling value),
    the second at the equal-flux point 1-p on the rising branch (an exact
    flux tie at p), and let the outgoing road sit at its crest with the
    capacity to swallow both. The tie shows the chord inequality cannot be
    strict at the only admissible coupling value.
    """
    count = as_count("count", count)
    rng = np.random.default_rng(as_count("seed", seed, 0))
    out = []
    for _ in range(count):
        p = 0.55 + 0.35 * rng.random()
        v3 = 8.0 * p * (1.0 - p)
        spec = JunctionSpec(2, 1, (quadratic_lwr(), quadratic_lwr(),
                                   quadratic_lwr(v=v3)))
        out.append((spec, np.array([p, 1.0 - p, 0.5])))
    return out

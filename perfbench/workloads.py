"""The benchmark's four seeded workloads.

Each workload has a ``setup`` that turns the seed into the program's inputs
(this is what ``setup_s`` times), a ``run_pass`` that makes the timed calls
into the package once and checks every result, and a ``check_*`` function
that turns raw results into named pass/fail checks. A check that fails is
counted, never raised, so one bad result does not abort a run.

Every call into the package goes through a module attribute
(``scheme.run``, ``cli.main``, ...) so the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from junctionflow import cli, scheme, verify, viscous
from junctionflow.fluxes import (custom_polynomial, quadratic_lwr,
                                 symmetric_quadratic, tabulated)
from junctionflow.junction import JunctionSpec

TOL_DEFECT = 1e-12
TOL_DRIFT = 1e-12
TOL_PROFILE = 1e-8


@dataclass
class PassResult:
    """One pass of a workload: element times, work done and checks.

    An element is the workload's repeated unit: one equilibrium run with
    its ledger for well_balance, the whole pass for the other workloads.
    """

    spans: list[tuple[float, float]] = field(default_factory=list)
    cell_updates: int = 0
    output_bytes: int = 0
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def element_s(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.spans]

    @property
    def wall_s(self) -> float:
        return math.fsum(self.element_s)

    def timed(self, label: str, fn, *args, **kwargs):
        """Call fn as one timed element; an exception counts as a failed
        check and returns None."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.checks.append((f"{label} raised", False))
            return None
        finally:
            self.spans.append((t0, perf_counter()))


def summary(passes: list[PassResult]) -> dict:
    """Checks of all passes as the result line's correctness fields."""
    checks = [ok for p in passes for _, ok in p.checks]
    failed = checks.count(False)
    return {"correct": failed == 0, "attempted": len(checks),
            "failed": failed}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], object]
    run_pass: Callable[[object], PassResult]


def _lwr(m: int, n: int, speeds) -> JunctionSpec:
    return JunctionSpec(m, n, tuple(quadratic_lwr(v=v) for v in speeds))


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(2**31,
                                                                 size=count)]


# ---------------------------------------------------------------------------
# fine_run: one CLI run on 3 x 4000 cells

FINE_SPEEDS = (1.0, 1.0, 2.0)  # two incoming LWR roads, one outgoing v=2
FINE_CELLS = 4000
FINE_PIECES = 40
FINE_CFL = 0.9
FINE_T = 0.25
FINE_SNAPSHOTS = (0.05, 0.1, 0.15, 0.2)
# time levels and snapshot count, derived here rather than read back from
# the program: dt0 = cfl * dx / (2 * max v), snapshots add t = 0 and t_final
FINE_STEPS = math.ceil(FINE_T / (FINE_CFL / FINE_CELLS / (2 * max(FINE_SPEEDS)))
                       - 1e-12)
FINE_SNAPSHOT_ROWS = (len(FINE_SNAPSHOTS) + 2) * len(FINE_SPEEDS) * FINE_CELLS


@dataclass(frozen=True)
class FineInputs:
    config: Path
    out: Path


def fine_run_config(seed: int) -> str:
    """A 2-in/1-out config with a random 40-piece initial state per road,
    breakpoints on cell edges so the projection is exact."""
    rng = np.random.default_rng(seed)
    dx = 1.0 / FINE_CELLS
    blocks = []
    for h, v in enumerate(FINE_SPEEDS):
        incoming = h < 2
        edges = np.sort(rng.choice(np.arange(1, FINE_CELLS), FINE_PIECES - 1,
                                   replace=False))
        breakpoints = (edges - FINE_CELLS if incoming else edges) * dx
        values = rng.random(FINE_PIECES)
        blocks.append("\n".join([
            "[road]",
            f"direction = {'in' if incoming else 'out'}",
            "flux.family = quadratic-lwr",
            f"flux.params = {v!r} 1",
            "length = 1",
            f"cells = {FINE_CELLS}",
            "initial.breakpoints = " + " ".join(repr(float(b))
                                                for b in breakpoints),
            "initial.values = " + " ".join(repr(float(x)) for x in values),
        ]))
    blocks.append("\n".join([
        "[run]",
        f"cfl = {FINE_CFL!r}",
        f"t_final = {FINE_T!r}",
        "snapshots = " + " ".join(repr(t) for t in FINE_SNAPSHOTS),
        "outer_bc = absorbing",
    ]))
    return "\n\n".join(blocks) + "\n"


def fine_run_setup(seed: int, workdir: Path) -> FineInputs:
    path = workdir / "fine_run.cfg"
    path.write_text(fine_run_config(seed))
    return FineInputs(path, workdir / "fine_run_out")


def _data_rows(path: Path) -> int:
    if not path.exists():
        return -1
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def check_fine_run(code, stdout: str, snapshot_rows: int,
                   log_rows: int) -> list[tuple[str, bool]]:
    found = re.search(r"max conservation defect (\S+)", stdout)
    defect = float(found.group(1)) if found else math.inf
    return [
        ("run exit code 0", code == 0),
        (f"ledger defect <= {TOL_DEFECT:g}", defect <= TOL_DEFECT),
        (f"junction_log.csv has {FINE_STEPS} rows", log_rows == FINE_STEPS),
        (f"snapshots.csv has {FINE_SNAPSHOT_ROWS} rows",
         snapshot_rows == FINE_SNAPSHOT_ROWS),
    ]


def fine_run_pass(inputs: FineInputs) -> PassResult:
    res = PassResult()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = res.timed("run", cli.main, ["run", "--config",
                                           str(inputs.config), "--out",
                                           str(inputs.out)])
    snapshots = inputs.out / "snapshots.csv"
    log = inputs.out / "junction_log.csv"
    log_rows = _data_rows(log)
    res.checks += check_fine_run(code, captured.getvalue(),
                                 _data_rows(snapshots), log_rows)
    res.cell_updates = len(FINE_SPEEDS) * FINE_CELLS * max(log_rows, 0)
    res.output_bytes = sum(p.stat().st_size for p in (snapshots, log)
                           if p.exists())
    for p in (snapshots, log):
        p.unlink(missing_ok=True)
    return res


# ---------------------------------------------------------------------------
# well_balance: criterion-3 ensemble of held equilibria on coarse meshes

WB_PER_TOPOLOGY = 25
WB_CELLS = 50
WB_STEPS = 200
WB_CFL = 0.9


def well_balance_topologies() -> list[tuple[str, JunctionSpec]]:
    table = tabulated(np.linspace(0.0, 1.0, 9),
                      [0.0, 0.22, 0.38, 0.47, 0.5, 0.44, 0.33, 0.18, 0.0])
    cubic = custom_polynomial([0.0, 1.0, 0.0, -1.0], 0.0, 1.0,
                              1.0 / math.sqrt(3.0))
    return [
        ("1-1", _lwr(1, 1, (1.0, 1.0))),
        ("2-1-symq", JunctionSpec(2, 1, (symmetric_quadratic(1.0),
                                         symmetric_quadratic(2.0),
                                         symmetric_quadratic(3.0)))),
        ("2-3", _lwr(2, 3, (1.0, 1.5, 1.0, 0.75, 1.25))),
        ("1-2-mixed", JunctionSpec(1, 2, (quadratic_lwr(), cubic, table))),
    ]


@dataclass(frozen=True)
class BalanceGroup:
    label: str
    config: scheme.RunConfig
    states: list[np.ndarray]


def well_balance_setup(seed: int, workdir: Path) -> list[BalanceGroup]:
    groups = []
    for (label, spec), s in zip(well_balance_topologies(), _seeds(seed, 4)):
        roads = spec.m + spec.n
        mesh = scheme.NetworkMesh(spec, 1.0 / WB_CELLS,
                                  np.full(roads, WB_CELLS))
        config = scheme.RunConfig(
            mesh, WB_CFL, WB_STEPS * scheme.cfl_timestep(mesh, WB_CFL))
        groups.append(BalanceGroup(label, config,
                                   verify.germ_sampler(spec, WB_PER_TOPOLOGY,
                                                       s)))
    return groups


def check_well_balance(drift: float, defect: float) -> list[tuple[str, bool]]:
    return [(f"drift <= {TOL_DRIFT:g}", drift <= TOL_DRIFT),
            (f"ledger defect <= {TOL_DEFECT:g}", defect <= TOL_DEFECT)]


def _run_with_ledger(config: scheme.RunConfig, k: np.ndarray):
    traj = scheme.run(config, k, keep_states=False)
    return traj, scheme.mass_ledger(traj)


def well_balance_pass(groups: list[BalanceGroup]) -> PassResult:
    res = PassResult()
    for group in groups:
        cells = int(group.config.mesh.cells_per_road.sum())
        for k in group.states:
            out = res.timed(group.label, _run_with_ledger, group.config, k)
            if out is None:
                continue
            traj, ledger = out
            drift = max(float(np.abs(v - k[h]).max())
                        for h, v in enumerate(traj.final.values))
            res.checks += check_well_balance(drift, ledger.max_abs_defect)
            res.cell_updates += cells * len(traj.dts)
    return res


# ---------------------------------------------------------------------------
# verify_suite: the bundled audit suite through the CLI

# The suite's own march, counted from its definition in cli._suite_rows:
# roads of 40 cells on the 1-1, 2-1 and 2-3 networks; per network 20
# equilibrium runs of 50 steps and 5 pairs of 12-step runs.
VERIFY_CELL_UPDATES = 40 * (2 + 3 + 5) * (20 * 50 + 5 * 2 * 12)


@dataclass(frozen=True)
class VerifyInputs:
    seed: int
    out: Path


def verify_suite_setup(seed: int, workdir: Path) -> VerifyInputs:
    return VerifyInputs(_seeds(seed, 1)[0], workdir / "verify_out")


def check_verify_suite(code, rows: list[dict]) -> list[tuple[str, bool]]:
    checks = [("verify exit code 0", code == 0),
              ("verify.csv has rows", len(rows) > 0)]
    checks += [(f"{row.get('name')} passes", row.get("passed") == "true")
               for row in rows]
    return checks


def verify_suite_pass(inputs: VerifyInputs) -> PassResult:
    res = PassResult()
    with contextlib.redirect_stdout(io.StringIO()):
        code = res.timed("verify", cli.main,
                         ["verify", "--seed", str(inputs.seed), "--out",
                          str(inputs.out)])
    table = inputs.out / "verify.csv"
    rows = []
    if table.exists():
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        res.output_bytes = table.stat().st_size
        table.unlink()
    res.checks += check_verify_suite(code, rows)
    res.cell_updates = VERIFY_CELL_UPDATES
    return res


# ---------------------------------------------------------------------------
# vanishing_viscosity: criterion-10 epsilon sweep plus stationary profiles

VV_CELLS = 400
VV_T = 0.2
VV_EPSILONS = (0.04, 0.02, 0.01)
VV_PROFILES = 10
VV_PROFILE_EPS = 0.05
VV_WINDOW = 0.75


@dataclass(frozen=True)
class ViscousInputs:
    mesh: scheme.NetworkMesh
    datum: np.ndarray
    spec23: JunctionSpec
    equilibria: list[np.ndarray]


def vanishing_viscosity_setup(seed: int, workdir: Path) -> ViscousInputs:
    rng = np.random.default_rng(seed)
    datum = np.array([rng.uniform(0.1, 0.4), rng.uniform(0.6, 0.9)])
    mesh = scheme.NetworkMesh(_lwr(1, 1, (1.0, 1.0)), 1.0 / VV_CELLS,
                              np.array([VV_CELLS, VV_CELLS]))
    spec23 = _lwr(2, 3, (1.0, 1.5, 1.0, 0.75, 1.25))
    equilibria = verify.germ_sampler(spec23, VV_PROFILES,
                                     int(rng.integers(2**31)),
                                     strict_only=True)
    return ViscousInputs(mesh, datum, spec23, equilibria)


def check_vanishing_viscosity(distances, residuals) -> list[tuple[str, bool]]:
    checks = [(f"L1 distance at eps={a} > at eps={b}", da > db)
              for (a, da), (b, db) in zip(zip(VV_EPSILONS, distances),
                                          zip(VV_EPSILONS[1:],
                                              distances[1:]))]
    checks += [(f"profile residual <= {TOL_PROFILE:g}", r <= TOL_PROFILE)
               for r in residuals]
    return checks


def _parabolic(mesh: scheme.NetworkMesh, eps: float, datum: np.ndarray):
    init = viscous.initial_smoothing(
        [np.full(VV_CELLS, datum[0]), np.full(VV_CELLS, datum[1])],
        epsilon=eps, dx=mesh.dx)
    return viscous.run_parabolic(mesh, eps, list(init), t_final=VV_T)


def _viscous_sweep(inputs: ViscousInputs):
    """Hyperbolic reference, the parabolic runs and the profiles; returns
    (cell updates, L1 distances to the reference, profile residuals)."""
    mesh = inputs.mesh
    cells = int(mesh.cells_per_road.sum())
    hyper = scheme.run(scheme.RunConfig(mesh, 0.9, VV_T), inputs.datum,
                       keep_states=False)
    updates = cells * len(hyper.dts)
    distances = []
    for eps in VV_EPSILONS:
        traj = _parabolic(mesh, eps, inputs.datum)
        updates += cells * len(traj.dts)
        distances.append(math.fsum(
            mesh.dx * float(np.abs(traj.final.values[h]
                                   - hyper.final.values[h]).sum())
            for h in range(2)))
        del traj  # all time levels are kept; free them before the next run
    residuals = [float(viscous.stationary_profile(
        inputs.spec23, k, VV_PROFILE_EPS, VV_WINDOW).residuals.max())
        for k in inputs.equilibria]
    return updates, distances, residuals


def vanishing_viscosity_pass(inputs: ViscousInputs) -> PassResult:
    res = PassResult()
    out = res.timed("viscous sweep", _viscous_sweep, inputs)
    if out is not None:
        res.cell_updates, distances, residuals = out
        res.checks += check_vanishing_viscosity(distances, residuals)
    return res


WORKLOADS = {w.name: w for w in (
    Workload("fine_run", fine_run_setup, fine_run_pass),
    Workload("well_balance", well_balance_setup, well_balance_pass),
    Workload("verify_suite", verify_suite_setup, verify_suite_pass),
    Workload("vanishing_viscosity", vanishing_viscosity_setup,
             vanishing_viscosity_pass),
)}

"""Command line front end.

Subcommands: ``run`` (march a configured network and write snapshot and
junction-log CSVs), ``riemann`` (solve one junction Riemann problem),
``germ-check`` (equilibrium verdicts via both membership paths),
``profile`` (stationary viscous profile CSV), ``verify`` (the bundled
audit suite), and ``convergence`` (grid-refinement error table).

Exit codes: 0 success, 1 failed assertion or precondition, 2 configuration
error, 3 internal consistency error. All numbers are serialized with 17
significant digits so outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .config import ConfigDocument, build_network, mesh_and_run, parse_config
from .errors import ConfigError, ConsistencyError, PreconditionError
from .fluxes import quadratic_lwr, symmetric_quadratic
from .junction import (JunctionSpec, dissipativity, is_germ_member,
                       is_strict_germ_member, riemann_solve, solve_junction)
from .scheme import _MAX_COUNT, NetworkMesh, RunConfig, mass_ledger, run
from .viscous import stationary_profile


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v
                              for v in row) + "\n")


def _load_document(args) -> ConfigDocument:
    if not getattr(args, "config", None):
        raise ConfigError("this subcommand needs --config")
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.config}: {exc.strerror}") from exc
    doc = parse_config(text)
    if getattr(args, "t_final", None) is not None:
        if not (math.isfinite(args.t_final) and args.t_final >= 0):
            raise ConfigError("--t-final must be nonnegative and finite",
                              kind="range")
        if any(t > args.t_final for t in doc.snapshots):
            raise ConfigError(f"--t-final {args.t_final:g} lies before the "
                              f"snapshot at {max(doc.snapshots):g}",
                              kind="range")
        doc.t_final = args.t_final
    if getattr(args, "epsilon", None) is not None:
        if not (math.isfinite(args.epsilon) and args.epsilon > 0):
            raise ConfigError("--epsilon must be positive and finite",
                              kind="range")
        doc.epsilon = args.epsilon
    return doc


def _cells_for_dx(dx: float, lengths, coarsest: float = 1.0) -> list[int]:
    """Cells of width dx on roads of these lengths. A range error names
    --dx where dx is not positive and finite, makes 2**53 or more cells on
    a road, or where coarsest * dx (the coarsest mesh of a ladder) does not
    tile a length."""
    if not (math.isfinite(dx) and dx > 0):
        raise ConfigError("--dx must be positive and finite", kind="range")
    width = coarsest * dx
    cells = []
    for length in lengths:
        if not length / dx < _MAX_COUNT:
            raise ConfigError(f"--dx {dx:g} cuts road length {length:g} into "
                              f"2**53 or more cells", kind="range")
        c = round(length / width)
        if c < 1 or abs(c * width - length) > 1e-9 * length:
            where = "" if coarsest == 1.0 else f" at {coarsest:g} * dx"
            raise ConfigError(f"--dx {dx:g} does not tile road length "
                              f"{length:g}{where}", kind="range")
        cells.append(round(length / dx))
    return cells


def _mesh_with_dx(doc: ConfigDocument, dx: float | None):
    spec, mesh, initial, run_config = build_network(doc)
    if dx is None:
        return spec, mesh, initial, run_config
    cells = _cells_for_dx(dx, [r.length for r in doc.roads])
    mesh, run_config = mesh_and_run(doc, spec, dx, cells)
    return spec, mesh, initial, run_config


def _constant_initial(doc: ConfigDocument, what: str) -> np.ndarray:
    values = []
    for r in doc.roads:
        if not isinstance(r.initial, float):
            raise ConfigError(f"{what} needs constant initial data on "
                              "every road", kind="range", line=r.line)
        values.append(r.initial)
    return np.array(values)


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(args) -> int:
    doc = _load_document(args)
    spec, mesh, initial, run_config = _mesh_with_dx(doc, args.dx)
    traj = run(run_config, initial, keep_states=False)
    out = _out_dir(args)

    # both files are written from .tolist() columns, formatted as _fmt
    # would ("%.17g" is ".17g"): each road's x column is formatted once, and
    # one template per road and snapshot takes its densities in one %. Rows
    # start with their line break, so a template is one replace of the
    # road's breaks by break and head, and the file's last break comes last
    bodies = ["".join(f"\n{x:.17g},%.17g" for x in mesh.centers(h).tolist())
              for h in range(spec.m + spec.n)]
    with open(out / "snapshots.csv", "w", newline="\n") as fh:
        fh.write("t,road,x,rho")
        for state in traj.snapshots:
            for h, body in enumerate(bodies):
                head = f"\n{_fmt(state.time)},{h + 1},"
                fh.write(body.replace("\n", head)
                         % tuple(state.values[h].tolist()))
        fh.write("\n")

    header = (["t", "p_min", "p_max"]
              + [f"gstar_{h + 1}" for h in range(spec.m + spec.n)]
              + ["total_flux"])
    columns = (traj.times[:-1], traj.p_min, traj.p_max,
               *traj.junction_fluxes.T, traj.totals)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(out / "junction_log.csv", "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in
                      zip(*(c.tolist() for c in columns)))

    ledger = mass_ledger(traj)
    print(f"run: {len(traj.dts)} steps to t={_fmt(run_config.t_final)}, "
          f"{len(traj.snapshots)} snapshots")
    print(f"final mass {_fmt(ledger.masses[-1])}, "
          f"max conservation defect {_fmt(ledger.max_abs_defect)}")
    print(f"wrote {out / 'snapshots.csv'} and {out / 'junction_log.csv'}")
    return 0


def _cmd_riemann(args) -> int:
    doc = _load_document(args)
    spec, _, _, _ = build_network(doc)
    u0 = _constant_initial(doc, "riemann")
    rs = riemann_solve(spec, u0)
    sol = rs.solution
    print(f"coupling interval [{_fmt(sol.p_min)}, {_fmt(sol.p_max)}]")
    print(f"total flux {_fmt(sol.total)}")
    rows = []
    for h in range(spec.m + spec.n):
        rows.append((h + 1, u0[h], rs.traces[h], sol.fluxes[h],
                     sol.p_min, sol.p_max))
        kind = "in" if h < spec.m else "out"
        print(f"road {h + 1} ({kind}): initial {_fmt(u0[h])}, "
              f"trace {_fmt(rs.traces[h])}, flux {_fmt(sol.fluxes[h])}")
    out = _out_dir(args)
    _write_csv(out / "riemann.csv",
               ["road", "initial", "trace", "flux", "p_min", "p_max"], rows)
    print(f"wrote {out / 'riemann.csv'}")
    return 0


def _cmd_germ_check(args) -> int:
    doc = _load_document(args)
    spec, _, _, _ = build_network(doc)
    tol = args.tol if args.tol is not None else 1e-9
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError("--tol must be positive and finite", kind="range")
    candidates = [_constant_initial(doc, "germ-check")]
    if args.sample:
        candidates.extend(verify_mod.germ_sampler(spec, args.sample,
                                                  args.seed))
    k_cols = [f"k_{h + 1}" for h in range(spec.m + spec.n)]
    rows = []
    for idx, k in enumerate(candidates):
        by_fluxes = is_germ_member(spec, k, tol=tol, method="godunov")
        by_chords = is_germ_member(spec, k, tol=tol, method="oleinik")
        strict = is_strict_germ_member(spec, k, tol=tol)
        rows.append((idx, *k, by_fluxes, by_chords, strict))
        print(f"candidate {idx}: member(flux-identity)={by_fluxes} "
              f"member(chords)={by_chords} strict={strict}")
    out = _out_dir(args)
    _write_csv(out / "germ_check.csv",
               ["candidate", *k_cols, "member_godunov", "member_oleinik",
                "strict"], rows)
    print(f"wrote {out / 'germ_check.csv'}")
    return 0


def _cmd_profile(args) -> int:
    doc = _load_document(args)
    spec, _, _, _ = build_network(doc)
    k = _constant_initial(doc, "profile")
    if doc.epsilon is None:
        raise ConfigError("profile needs [viscous] epsilon or --epsilon")
    window = doc.window if doc.window is not None else 1.0
    profile = stationary_profile(spec, k, doc.epsilon, window)
    rows = []
    for h, (xs, rhos) in enumerate(profile.samples):
        for x, rho in zip(xs, rhos):
            rows.append((h + 1, x, rho))
    out = _out_dir(args)
    _write_csv(out / "profile.csv", ["road", "x", "rho"], rows)
    print(f"profile at coupling value {_fmt(profile.p)}, "
          f"max residual {_fmt(profile.residuals.max())}")
    print(f"wrote {out / 'profile.csv'}")
    return 0


def _cmd_convergence(args) -> int:
    doc = _load_document(args)
    spec, mesh, initial, _ = build_network(doc)
    if doc.t_final <= 0:
        raise ConfigError("convergence needs a positive t_final",
                          kind="range")
    lengths = {r.length for r in doc.roads}
    if len(lengths) != 1:
        raise ConfigError("convergence needs equal road lengths",
                          kind="topology")
    length = lengths.pop()
    base_dx = args.dx if args.dx is not None else mesh.dx
    # the ladder runs from 8 dx down to dx; where 8 dx tiles, all do
    cells = _cells_for_dx(base_dx, [length], coarsest=8.0)[0] * len(doc.roads)
    dx_list = [base_dx * f for f in (8.0, 4.0, 2.0, 1.0)]

    constant = all(isinstance(r.initial, float) for r in doc.roads)
    if constant:
        problem = verify_mod.RiemannProblem(
            spec, _constant_initial(doc, "convergence"), doc.t_final,
            road_length=length, cfl=doc.cfl)
        try:
            report = verify_mod.convergence_study(problem, dx_list)
        except MemoryError:
            raise ConfigError(f"a mesh of {cells} cells does not fit in "
                              f"memory", kind="range") from None
    else:
        raise ConfigError("convergence needs constant initial data "
                          "(similarity reference)", kind="range")

    rows = list(report.rows)
    out = _out_dir(args)
    _write_csv(out / "convergence.csv", ["dx", "error", "order"], rows)
    print(f"{'dx':>12} {'L1 error':>14} {'order':>8}")
    for dx, err, order in rows:
        otxt = "-" if math.isnan(order) else f"{order:.2f}"
        print(f"{dx:>12.6g} {err:>14.6e} {otxt:>8}")
    print(f"errors decreasing: {report.decreasing}")
    print(f"wrote {out / 'convergence.csv'}")
    return 0 if report.decreasing else 1


# ---------------------------------------------------------------------------
# bundled verification suite

def _default_networks() -> list[tuple[str, JunctionSpec]]:
    return [
        ("1-1", JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr()))),
        ("2-1", JunctionSpec(2, 1, (quadratic_lwr(), quadratic_lwr(),
                                    quadratic_lwr(v=2.0)))),
        ("2-3", JunctionSpec(2, 3, (quadratic_lwr(), quadratic_lwr(v=1.5),
                                    quadratic_lwr(), quadratic_lwr(v=0.75),
                                    quadratic_lwr(v=1.25)))),
    ]


def _random_pair(spec: JunctionSpec, mesh: NetworkMesh, rng,
                 inner_cells: int):
    """Two initial states differing only within inner_cells of the junction."""
    lo, hi = spec.rho_min, spec.rho_max
    base = []
    other = []
    for h, cells in enumerate(mesh.cells_per_road):
        a = lo + (hi - lo) * rng.random(int(cells))
        b = a.copy()
        sl = slice(-inner_cells, None) if h < spec.m else slice(0, inner_cells)
        b[sl] = lo + (hi - lo) * rng.random(inner_cells)
        base.append(a)
        other.append(b)
    return base, other


def _suite_rows(networks, seed: int) -> list[tuple]:
    rows = []

    spec_we = JunctionSpec(2, 1, (symmetric_quadratic(1.0),
                                  symmetric_quadratic(2.0),
                                  symmetric_quadratic(3.0)))
    u_we = np.array([-math.sqrt(0.5), 0.25, math.sqrt(1.0 / 6.0)])
    sol = solve_junction(spec_we, u_we)
    flux_err = float(np.abs(sol.fluxes - np.array([0.5, 2.0, 2.5])).max())
    rows.append(("worked-example-fluxes", flux_err, 1e-10, "<=",
                 flux_err <= 1e-10))
    p_err = max(abs(sol.p_min + math.sqrt(1.0 / 6.0)), abs(sol.p_max))
    rows.append(("worked-example-p-interval", p_err, 1e-7, "<=",
                 p_err <= 1e-7))

    for label, spec in networks:
        rng = np.random.default_rng(seed)
        mesh = NetworkMesh(spec, 1.0 / 40.0, np.full(spec.m + spec.n, 40))
        samples = verify_mod.germ_sampler(spec, 20, seed)
        drift = 0.0
        defect = 0.0
        for k in samples:
            config = RunConfig(mesh, 0.8, 50 * 0.8 * mesh.dx
                               / (2 * spec.lipschitz_max))
            traj = run(config, list(k))
            for h in range(spec.m + spec.n):
                # np.maximum keeps a NaN, where max(drift, nan) drops it;
                # the same holds for the contraction and Kato folds below
                drift = float(np.maximum(drift, np.abs(traj.final.values[h]
                                                       - k[h]).max()))
            defect = max(defect, mass_ledger(traj).max_abs_defect)
        rows.append((f"well-balance-drift-{label}", drift, 1e-12, "<=",
                     drift <= 1e-12))

        dt0 = 0.8 * mesh.dx / (2 * spec.lipschitz_max)
        t_final = 12 * dt0
        xi = verify_mod.bump_test_function(1.5 * dt0, 0.95 * t_final,
                                           0.5, 0.05)
        worst_contraction = 0.0
        worst_kato = -math.inf
        kato_tol = 0.0
        for _ in range(5):
            a0, b0 = _random_pair(spec, mesh, rng, 16)
            config = RunConfig(mesh, 0.8, t_final)
            ta = run(config, a0)
            tb = run(config, b0)
            rep = verify_mod.l1_contraction_check(ta, tb, 16 * mesh.dx)
            worst_contraction = float(np.maximum(
                worst_contraction, np.diff(rep.distances).max()))
            krep = verify_mod.kato_audit(ta, tb, xi)
            worst_kato = float(np.maximum(worst_kato, krep.value))
            kato_tol = krep.tolerance
            defect = max(defect, mass_ledger(ta).max_abs_defect,
                         mass_ledger(tb).max_abs_defect)
        rows.append((f"l1-contraction-growth-{label}", worst_contraction,
                     1e-12, "<=", worst_contraction <= 1e-12))
        rows.append((f"kato-form-{label}", worst_kato, kato_tol, "<=",
                     worst_kato <= kato_tol))

        delta_min = math.inf
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                delta_min = min(delta_min,
                                dissipativity(spec, samples[i], samples[j]))
        rows.append((f"dissipativity-{label}", delta_min, -1e-12, ">=",
                     delta_min >= -1e-12))
        rows.append((f"mass-defect-{label}", defect, 1e-12, "<=",
                     defect <= 1e-12))
    return rows


def _cmd_verify(args) -> int:
    if getattr(args, "config", None):
        doc = _load_document(args)
        spec, _, _, _ = build_network(doc)
        networks = [("config", spec)]
    else:
        networks = _default_networks()
    rows = _suite_rows(networks, args.seed)
    width = max(len(r[0]) for r in rows)
    all_pass = True
    for name, value, tol, require, passed in rows:
        all_pass &= passed
        status = "pass" if passed else "FAIL"
        print(f"{name:<{width}}  {value: .6e} {require} {tol: .6e}  "
              f"{status}")
    out = _out_dir(args)
    _write_csv(out / "verify.csv",
               ["name", "value", "tolerance", "require", "passed"], rows)
    print(f"wrote {out / 'verify.csv'}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="junctionflow",
        description="Finite-volume solver for traffic junctions")
    sub = parser.add_subparsers(dest="command", required=True)

    # options beyond --config and --out, offered only where they are read
    options = {
        "--seed": dict(type=int, default=0,
                       help="random seed for sampled ensembles"),
        "--dx": dict(type=float, help="override cell width"),
        "--t-final": dict(dest="t_final", type=float,
                          help="override final time"),
        "--epsilon": dict(type=float, help="override viscosity parameter"),
        "--tol": dict(type=float, help="override membership tolerance"),
        "--sample": dict(type=int, default=0,
                         help="additionally check this many sampled states"),
    }

    def add(name, handler, help_text, *names, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=needs_config,
                       help="path to a network config file")
        p.add_argument("--out", help="output directory (default: .)")
        for opt in names:
            p.add_argument(opt, **options[opt])

    add("run", _cmd_run, "march a configured network, write CSV output",
        "--dx", "--t-final")
    add("riemann", _cmd_riemann, "solve one junction Riemann problem")
    add("germ-check", _cmd_germ_check,
        "check equilibrium membership via both paths",
        "--tol", "--seed", "--sample")
    add("profile", _cmd_profile, "stationary viscous profile CSV",
        "--epsilon")
    add("verify", _cmd_verify, "run the bundled audit suite", "--seed",
        needs_config=False)
    add("convergence", _cmd_convergence, "grid refinement study",
        "--dx", "--t-final")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for option in ("seed", "sample"):
            if getattr(args, option, 0) < 0:
                raise ConfigError(f"--{option} must be a nonnegative "
                                  f"integer", kind="range")
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

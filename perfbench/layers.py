"""Per-layer instrumentation for the traced run, and the metrics it yields.

Layers are the package modules. Each public function is wrapped at the
module attribute its callers look it up through (``scheme`` calls
``solve_junction`` as ``scheme.solve_junction``, the CLI calls ``run`` as
``cli.run``, and so on), so the wrappers see every call without any change
to the package. A metric of a layer that a workload never calls reads 0.
"""

from __future__ import annotations

import numpy as np

from junctionflow import cli, junction, kernels, scheme, verify, viscous
from tracing import TraceData, Tracer

# name -> unit, in the order they are printed
METRICS = {
    "junction.solve_us_p50": "us",
    "junction.solve_us_p99": "us",
    "junction.solves": "count",
    "junction.share": "frac",
    "kernels.gap_evals_per_solve": "count",
    "junction.riemann_ms_p50": "ms",
    "verify.germ_sampler_ms_p50": "ms",
    "kernels.sweep_ns_per_interface": "ns",
    "kernels.sweep_share": "frac",
    "scheme.total_mass_us_p50": "us",
    "scheme.total_mass_share": "frac",
    "scheme.mass_ledger_ms_p50": "ms",
    "scheme.mass_ledger_share": "frac",
    "scheme.steps": "count",
    "scheme.self_share": "frac",
    "verify.kato_audit_ms_p50": "ms",
    "verify.l1_check_ms_p50": "ms",
    "verify.self_share": "frac",
    "viscous.parabolic_step_us": "us",
    "kernels.visc_w_us_p50": "us",
    "kernels.visc_w_share": "frac",
    "viscous.stationary_profile_ms_p50": "ms",
    "config.parse_ms": "ms",
    "cli.self_share": "frac",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "frac",
}

VERIFY_SPANS = ("verify.germ_sampler", "verify.kato_audit", "verify.l1_check")


def _steps(args, traj) -> int:
    return len(traj.dts)


def _interfaces(args, result) -> int:
    return args[5].shape[0]  # the ``out`` array of interface_fluxes


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function at each attribute its callers use."""
    for owner in (scheme, verify, cli, junction):
        tracer.span(owner, "solve_junction", "junction.solve")
    for owner in (verify, cli):
        tracer.span(owner, "riemann_solve", "junction.riemann")
    tracer.span(cli, "dissipativity", "junction.dissipativity")
    tracer.count(kernels, "balance_gap", "kernels.balance_gap")
    tracer.span(kernels, "interface_fluxes", "kernels.sweep", _interfaces)
    tracer.span(kernels, "solve_visc_w", "kernels.visc_w")
    for owner in (scheme, cli, verify):
        tracer.span(owner, "run", "scheme.run", _steps)
    tracer.span(scheme.GridState, "total_mass", "scheme.total_mass")
    for owner in (scheme, cli):
        tracer.span(owner, "mass_ledger", "scheme.mass_ledger")
    tracer.span(verify, "germ_sampler", "verify.germ_sampler")
    tracer.span(verify, "kato_audit", "verify.kato_audit")
    tracer.span(verify, "l1_contraction_check", "verify.l1_check")
    tracer.span(viscous, "run_parabolic", "viscous.run_parabolic", _steps)
    tracer.span(viscous, "stationary_profile", "viscous.stationary_profile")
    tracer.span(cli, "parse_config", "config.parse")
    tracer.span(cli, "build_network", "config.build")
    tracer.span(cli, "main", "cli.main")


def _quantile(samples, q: float, scale: float) -> float:
    return float(np.percentile(samples, q)) * scale if samples else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: TraceData, passes: TraceData, wall_s: float,
                  n_passes: int, output_bytes: float,
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the traced passes (and, for the samplers
    that run while inputs are generated, the traced set-up).

    ``wall_s`` is the summed program time of the traced passes; shares are
    fractions of it. Counts are per pass.
    """
    d = passes
    both = {name: setup.spans.get(name, []) + d.spans.get(name, [])
            for name in ("junction.riemann", "verify.germ_sampler")}
    solves = d.calls("junction.solve")
    config_s = d.total("config.parse") + d.total("config.build")
    return {
        "junction.solve_us_p50": _quantile(d.spans.get("junction.solve"),
                                           50, 1e6),
        "junction.solve_us_p99": _quantile(d.spans.get("junction.solve"),
                                           99, 1e6),
        "junction.solves": solves / n_passes,
        "junction.share": _ratio(d.total("junction.solve"), wall_s),
        "kernels.gap_evals_per_solve": _ratio(
            d.counts.get("kernels.balance_gap", 0), solves),
        "junction.riemann_ms_p50": _quantile(both["junction.riemann"],
                                             50, 1e3),
        "verify.germ_sampler_ms_p50": _quantile(both["verify.germ_sampler"],
                                                50, 1e3),
        "kernels.sweep_ns_per_interface": _ratio(
            d.total("kernels.sweep") * 1e9,
            d.counts.get("kernels.sweep", 0)),
        "kernels.sweep_share": _ratio(d.total("kernels.sweep"), wall_s),
        "scheme.total_mass_us_p50": _quantile(
            d.spans.get("scheme.total_mass"), 50, 1e6),
        "scheme.total_mass_share": _ratio(d.total("scheme.total_mass"),
                                          wall_s),
        "scheme.mass_ledger_ms_p50": _quantile(
            d.spans.get("scheme.mass_ledger"), 50, 1e3),
        "scheme.mass_ledger_share": _ratio(d.total("scheme.mass_ledger"),
                                           wall_s),
        "scheme.steps": d.counts.get("scheme.run", 0) / n_passes,
        "scheme.self_share": _ratio(d.self_time.get("scheme.run", 0.0),
                                    wall_s),
        "verify.kato_audit_ms_p50": _quantile(
            d.spans.get("verify.kato_audit"), 50, 1e3),
        "verify.l1_check_ms_p50": _quantile(d.spans.get("verify.l1_check"),
                                            50, 1e3),
        "verify.self_share": _ratio(
            sum(d.self_time.get(name, 0.0) for name in VERIFY_SPANS), wall_s),
        "viscous.parabolic_step_us": _ratio(
            d.total("viscous.run_parabolic") * 1e6,
            d.counts.get("viscous.run_parabolic", 0)),
        "kernels.visc_w_us_p50": _quantile(d.spans.get("kernels.visc_w"),
                                           50, 1e6),
        "kernels.visc_w_share": _ratio(d.total("kernels.visc_w"), wall_s),
        "viscous.stationary_profile_ms_p50": _quantile(
            d.spans.get("viscous.stationary_profile"), 50, 1e3),
        "config.parse_ms": _ratio(config_s * 1e3, d.calls("config.parse")),
        "cli.self_share": _ratio(d.self_time.get("cli.main", 0.0), wall_s),
        "cli.output_bytes": output_bytes / n_passes,
        "trace.overhead_frac": overhead_frac,
    }

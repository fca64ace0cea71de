"""The benchmark's per-layer tracer against the package: every attribute it
wraps must exist, and the work counts it reads from arguments and results
must still be there (``out`` as the sixth argument of
``kernels.interface_fluxes``, ``dts`` on a trajectory)."""

import sys
from pathlib import Path

import numpy as np

from junctionflow import (JunctionSpec, NetworkMesh, RunConfig, kernels,
                          quadratic_lwr, scheme, verify, viscous)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracing import TraceData, Tracer  # noqa: E402


def test_layers_instrument_the_package():
    spec = JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr(1.5)))
    mesh = NetworkMesh(spec, 0.05, np.full(2, 20))
    originals = (scheme.run, verify.solve_junction, kernels.interface_fluxes)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        assert scheme.run is not originals[0]
        config = RunConfig(mesh, 0.9, 0.2)
        ta = scheme.run(config, [np.full(20, 0.35), np.full(20, 0.65)])
        tb = verify.run(config, [np.full(20, 0.3), np.full(20, 0.6)])
        xi = verify.bump_test_function(0.03, 0.18, reach=0.4, plateau=0.05)
        assert verify.kato_audit(ta, tb, xi).passed
        viscous.run_parabolic(mesh, 0.02, [0.3, 0.6], 0.01)
        data = tracer.reset()
    finally:
        tracer.restore()
    assert (scheme.run, verify.solve_junction,
            kernels.interface_fluxes) == originals
    metrics = layers.layer_metrics(TraceData(), data, 1.0, 1, 0.0, 0.0)
    assert list(metrics) == list(layers.METRICS)
    assert metrics["scheme.steps"] == len(ta.dts) + len(tb.dts)
    for name in ("junction.solves", "kernels.sweep_ns_per_interface",
                 "scheme.total_mass_us_p50", "verify.kato_audit_ms_p50",
                 "viscous.parabolic_step_us", "kernels.visc_w_us_p50"):
        assert metrics[name] > 0, name

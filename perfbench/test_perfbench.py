"""Tests of the benchmark itself: broken results must be counted as failed
checks, the tracer's self-time accounting must add up, and the speed probe
must scale to reference speed and leave no timer behind.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import signal
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402


def _failed(checks) -> int:
    return sum(not ok for _, ok in checks)


def test_fine_run_checks():
    good = "final mass 0.5, max conservation defect 2.7755575615628914e-17"
    assert _failed(wl.check_fine_run(0, good, wl.FINE_SNAPSHOT_ROWS,
                                     wl.FINE_STEPS)) == 0
    assert _failed(wl.check_fine_run(
        0, good.replace("2.7755575615628914e-17", "3e-09"),
        wl.FINE_SNAPSHOT_ROWS, wl.FINE_STEPS)) == 1
    assert _failed(wl.check_fine_run(0, good, wl.FINE_SNAPSHOT_ROWS - 1,
                                     wl.FINE_STEPS + 1)) == 2
    assert _failed(wl.check_fine_run(3, "", -1, -1)) == 4


def test_other_checks():
    assert _failed(wl.check_well_balance(1e-14, 0.0)) == 0
    assert _failed(wl.check_well_balance(1e-9, 1e-9)) == 2
    row = {"name": "kato-form-2-1", "passed": "true"}
    assert _failed(wl.check_verify_suite(0, [row])) == 0
    assert _failed(wl.check_verify_suite(
        1, [row, dict(row, passed="false")])) == 2
    assert _failed(wl.check_verify_suite(0, [])) == 1
    assert _failed(wl.check_vanishing_viscosity(
        [0.03, 0.02, 0.01], [1e-10] * 3)) == 0
    assert _failed(wl.check_vanishing_viscosity(
        [0.01, 0.02, 0.02], [1e-10, float("nan"), 1e-6])) == 4


def _tiny_group():
    spec = wl.well_balance_topologies()[0][1]
    mesh = wl.scheme.NetworkMesh(spec, 0.1, np.array([10, 10]))
    config = wl.scheme.RunConfig(mesh, 0.9,
                                 5 * wl.scheme.cfl_timestep(mesh, 0.9))
    states = wl.verify.germ_sampler(spec, 2, seed=3)
    return wl.BalanceGroup("1-1", config, states)


def test_broken_program_raises_checks_failed(monkeypatch):
    group = _tiny_group()
    good = wl.well_balance_pass([group])
    assert len(good.checks) == 4
    assert wl.summary([good])["failed"] == 0

    real_run = wl.scheme.run

    def drifting_run(config, initial, keep_states=True):
        traj = real_run(config, initial, keep_states)
        traj.final.values[0][0] += 1e-6  # a held equilibrium that drifts
        return traj

    monkeypatch.setattr(wl.scheme, "run", drifting_run)
    broken = wl.well_balance_pass([group])
    summary = wl.summary([good, broken])
    assert summary["attempted"] == 8
    assert summary["failed"] == 2
    assert summary["correct"] is False

    def failing_run(*args, **kwargs):
        raise RuntimeError("deliberately broken")

    monkeypatch.setattr(wl.scheme, "run", failing_run)
    crashed = wl.well_balance_pass([group])
    assert _failed(crashed.checks) == 2
    assert len(crashed.element_s) == 2


def test_tracer_self_time_and_restore():
    ns = types.SimpleNamespace()
    ns.inner = lambda n: sum(range(n))
    ns.outer = lambda n: ns.inner(n) + ns.inner(n)
    original = ns.inner
    tracer = Tracer()
    tracer.span(ns, "inner", "inner", lambda args, result: args[0])
    tracer.span(ns, "outer", "outer")
    assert ns.outer(20000) == 2 * sum(range(20000))
    data = tracer.reset()
    tracer.restore()
    assert ns.inner is original
    assert data.calls("inner") == 2 and data.calls("outer") == 1
    assert data.counts["inner"] == 40000
    nested = data.total("inner")
    assert data.self_time["outer"] == pytest.approx(data.total("outer")
                                                    - nested)
    assert data.self_time["inner"] == pytest.approx(nested)


def test_speed_probe_scales_to_reference():
    probe = SpeedProbe()
    probe.ends = [1.0, 2.0, 3.0]
    probe.durations = [2 * REFERENCE_S] * 3  # the machine runs at half speed
    assert probe.normalize(0.5, 3.5) == pytest.approx(
        (3.0 - 3 * 2 * REFERENCE_S) * 0.5)
    assert probe.normalize(10.0, 10.2) == pytest.approx(0.1)  # nearest
    assert SpeedProbe().normalize(0.0, 1.0) == 1.0


def test_speed_probe_samples_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        t_end = perf_counter() + 0.2
        while perf_counter() < t_end:
            pass
    assert len(probe.durations) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_names_every_printed_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == layers.METRICS
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)

"""Tests for the config format and the command line tool.

Config parsing is tested in-process; the command line is exercised through
subprocesses so exit codes, stdout, and the CSV files are observed exactly
as a user would see them.
"""

import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import junctionflow
from junctionflow import (ConfigError, JunctionSpec, cli, kernels,
                          quadratic_lwr, scheme)
from junctionflow.config import build_network, parse_config

# the subprocesses run in tmp_path, where a relative PYTHONPATH no longer
# resolves: put the imported package's own source directory first
_SRC = str(Path(junctionflow.__file__).resolve().parent.parent)
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))))

SQ6 = math.sqrt(1.0 / 6.0)

MINIMAL = """\
[road]
direction = in
length = 1
cells = 50
initial = 0.3

[road]
direction = out
length = 1
cells = 50
initial = 0.6
"""

WORKED = f"""\
[road]
direction = in
flux.family = symmetric-quadratic
flux.params = 1
length = 1
cells = 40
initial = {-math.sqrt(0.5)!r}

[road]
direction = in
flux.family = symmetric-quadratic
flux.params = 2
length = 1
cells = 40
initial = 0.25

[road]
direction = out
flux.family = symmetric-quadratic
flux.params = 3
length = 1
cells = 40
initial = {SQ6!r}

[run]
cfl = 0.9
t_final = 0.1
"""


def _cli(tmp_path, *argv):
    return subprocess.run(
        [sys.executable, "-m", "junctionflow.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=_ENV)


def _write(tmp_path, text, name="net.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# parsing and defaults

def test_parse_minimal_fills_defaults():
    doc = parse_config(MINIMAL)
    assert doc.m == 1 and doc.n == 1
    assert doc.cfl == 0.9
    assert doc.t_final == 0.0
    assert doc.snapshots == ()
    assert doc.dirichlet_values is None
    assert doc.epsilon is None and doc.window is None
    for road in doc.roads:
        assert road.flux.family == "quadratic-lwr"
        assert road.length == 1.0 and road.cells == 50
    assert doc.roads[0].initial == 0.3
    assert doc.roads[1].initial == 0.6


def test_parse_worked_example_network():
    doc = parse_config(WORKED)
    assert doc.m == 2 and doc.n == 1
    assert [r.flux.family for r in doc.roads] == ["symmetric-quadratic"] * 3
    assert doc.roads[0].initial == -math.sqrt(0.5)
    assert doc.roads[2].initial == SQ6
    assert doc.t_final == 0.1
    spec, mesh, initial, run_config = build_network(doc)
    assert spec.m == 2 and spec.n == 1
    assert spec.rho_min == -1.0 and spec.rho_max == 1.0
    assert mesh.dx == pytest.approx(1.0 / 40)
    assert list(mesh.cells_per_road) == [40, 40, 40]
    assert run_config.t_final == 0.1
    assert initial == [-math.sqrt(0.5), 0.25, SQ6]


def test_parse_comments_piecewise_and_run_options():
    text = """\
# a full example
[road]
direction = in
flux.params = 1 1   # v and rho_max
length = 2
cells = 100
initial = constant 0.25

[road]
direction = out
length = 1
cells = 50
initial.breakpoints = 0.5
initial.values = 0.7 0.1

[run]
cfl = 0.5
t_final = 0.25
snapshots = 0.1 0.25
outer_bc = dirichlet 0.3 0.2

[viscous]
epsilon = 0.02
window = 0.5
"""
    doc = parse_config(text)
    assert doc.roads[0].initial == 0.25
    bp, vals = doc.roads[1].initial
    np.testing.assert_array_equal(bp, [0.5])
    np.testing.assert_array_equal(vals, [0.7, 0.1])
    assert doc.cfl == 0.5 and doc.t_final == 0.25
    assert doc.snapshots == (0.1, 0.25)
    np.testing.assert_array_equal(doc.dirichlet_values, [0.3, 0.2])
    assert doc.epsilon == 0.02 and doc.window == 0.5
    # the two roads share dx = 0.02
    _, mesh, _, _ = build_network(doc)
    assert mesh.dx == pytest.approx(0.02)


def test_parse_flux_families_from_config():
    text = """\
[road]
direction = in
flux.family = custom-polynomial
flux.params = 0 2.4 -1.8 -1.2 0.6
flux.rho_min = 0
flux.rho_max = 1
flux.rho_crit = 0.5
length = 1
cells = 10
initial = 0.2

[road]
direction = out
flux.family = tabulated
flux.xs = 0 0.25 0.5 0.75 1
flux.ys = 0 0.19 0.25 0.19 0
length = 1
cells = 10
initial = 0.8
"""
    doc = parse_config(text)
    assert doc.roads[0].flux.family == "custom-polynomial"
    assert doc.roads[1].flux.family == "tabulated"
    assert doc.roads[0].flux.eval(0.5) == pytest.approx(0.6375)
    assert doc.roads[1].flux.eval(0.5) == pytest.approx(0.25)



def test_parse_rejects_a_polynomial_crest_off_the_maximizer():
    # f = r - r^3 peaks at 1/sqrt(3), not 3.5e-4 beyond it
    text = MINIMAL.replace("direction = in", f"""direction = in
flux.family = custom-polynomial
flux.params = 0 1 0 -1
flux.rho_min = 0
flux.rho_max = 1
flux.rho_crit = {1 / math.sqrt(3) + 3.5e-4!r}""", 1)
    with pytest.raises(ConfigError, match="rho_crit") as err:
        parse_config(text)
    assert err.value.kind == "range"

@pytest.mark.parametrize("mutation, kind, line", [
    # line 3 holds 'length = 1' in MINIMAL
    (("length = 1", "length = abc"), "syntax", 3),
    (("length = 1", "length 1"), "syntax", 3),
    (("cells = 50", "speed = 50"), "unknown-key", 4),
    (("cells = 50", "cells = 0"), "range", 4),
    (("cells = 50", "cells = 12.5"), "range", 4),
    (("initial = 0.3", "initial = 1.7"), "range", 5),
    (("direction = in", "direction = sideways"), "range", 2),
    (("[road]\ndirection = in", "[road\ndirection = in"), "syntax", 1),
    (("[road]\ndirection = in", "[street]\ndirection = in"),
     "unknown-key", 1),
])
def test_parse_errors_report_kind_and_line(mutation, kind, line):
    old, new = mutation
    text = MINIMAL.replace(old, new, 1)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.kind == kind
    assert err.value.line == line
    assert f"line {line}" in str(err.value)


@pytest.mark.parametrize("flux, line, message", [
    # MINIMAL's first road with these flux lines from line 3 on
    ("flux.params = -1 1", 3, "v must be positive and finite, got -1.0"),
    ("flux.params = 1 1 1", 3, "flux.params for quadratic-lwr is"),
    ("flux.family = symmetric-quadratic\nflux.params = -2", 4,
     "h must be positive"),
    ("flux.family = custom-polynomial\nflux.params = 0 1 1\n"
     "flux.rho_min = 0\nflux.rho_max = 1\nflux.rho_crit = 0.5", 4,
     "flux must vanish at both interval endpoints"),
    ("flux.family = custom-polynomial\nflux.params = 0 1 -1\n"
     "flux.rho_min = 0\nflux.rho_max = 1\nflux.rho_crit = 1.7", 7,
     "rho_crit must be a finite number in [0, 1]"),
    ("flux.family = custom-polynomial\nflux.params = 0 1 -1\n"
     "flux.rho_min = 0\nflux.rho_max = 1\nflux.rho_crit = 0.7", 7,
     "rho_crit must be the maximizer of f"),
    ("flux.family = tabulated\nflux.xs = 0 1\nflux.ys = 0 0", 4,
     "tabulated flux needs >= 3"),
    ("flux.family = tabulated\nflux.xs = 0 1 0.5\nflux.ys = 0 1 0", 4,
     "tabulated nodes must be strictly increasing in x"),
    ("flux.family = tabulated\nflux.xs = 0 0.5 1\nflux.ys = 0 1", 5,
     "tabulated flux needs >= 3"),
    ("flux.family = tabulated\nflux.xs = 0 0.5 1\nflux.ys = 0 1 1", 5,
     "tabulated flux must vanish at both endpoints"),
])
def test_refused_flux_values_name_their_key_line(tmp_path, capsys, flux,
                                                  line, message):
    # a value a flux constructor refuses is reported at its key's line,
    # not at the [road] header's, in the parser and at the command line
    text = MINIMAL.replace("direction = in", f"direction = in\n{flux}", 1)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (err.value.kind, err.value.line) == ("range", line)
    assert str(err.value).startswith(f"line {line}: [range] {message}")
    assert cli.main(["run", "--config", _write(tmp_path, text),
                     "--out", str(tmp_path)]) == 2
    assert (f"configuration error: line {line}: [range] {message}"
            in capsys.readouterr().err)


def test_parse_topology_errors():
    # a single road
    single = MINIMAL.split("\n\n")[0]
    with pytest.raises(ConfigError) as err:
        parse_config(single)
    assert err.value.kind == "topology"
    # outgoing declared before incoming
    flipped = MINIMAL.replace("direction = in", "direction = TMP")
    flipped = flipped.replace("direction = out", "direction = in")
    flipped = flipped.replace("direction = TMP", "direction = out")
    with pytest.raises(ConfigError) as err:
        parse_config(flipped)
    assert err.value.kind == "topology"
    # mismatched density intervals
    mixed = MINIMAL.replace("direction = out",
                            "direction = out\nflux.family = "
                            "symmetric-quadratic")
    with pytest.raises(ConfigError) as err:
        parse_config(mixed)
    assert err.value.kind == "topology"
    # mismatched cell widths
    uneven = MINIMAL.replace("cells = 50\ninitial = 0.6",
                             "cells = 40\ninitial = 0.6")
    with pytest.raises(ConfigError) as err:
        parse_config(uneven)
    assert err.value.kind == "topology"
    # dirichlet values must cover every road
    short_bc = MINIMAL + "\n[run]\nouter_bc = dirichlet 0.3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(short_bc)
    assert err.value.kind == "topology"


@pytest.mark.parametrize("directions, line", [
    (["in"], 1), (["out"], 1),  # a single road
    (["in", "in"], 7), (["out", "out"], 1)])
def test_topology_errors_name_the_road_that_breaks_them(directions, line):
    # these two errors named no line; each now names the header of the
    # road that breaks the rule: with every road in, the last would have
    # to go out, with every road out, the first would have to come in
    text = "\n".join(f"[road]\ndirection = {d}\nlength = 1\ncells = 10\n"
                     f"initial = 0.3\n" for d in directions)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (err.value.kind, err.value.line) == ("topology", line)
    assert str(err.value).startswith(f"line {line}: [topology] need ")


@pytest.mark.parametrize("values, kind", [
    ("0.3", "topology"), ("0.3 0.2 0.5", "topology"), ("0.3 1.5", "range"),
    ("-0.1 0.2", "range")])
def test_dirichlet_errors_name_their_line(tmp_path, capsys, values, kind):
    # the values are counted and range-checked against the roads after
    # parsing, and the error still names the outer_bc line
    text = MINIMAL + f"\n[run]\ncfl = 0.9\nouter_bc = dirichlet {values}\n"
    line = text.splitlines().index(f"outer_bc = dirichlet {values}") + 1
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (err.value.kind, err.value.line) == (kind, line)
    assert str(err.value).startswith(f"line {line}: [{kind}] dirichlet")
    assert cli.main(["run", "--config", _write(tmp_path, text),
                     "--out", str(tmp_path)]) == 2
    assert f"line {line}: " in capsys.readouterr().err


def test_parse_structure_errors():
    with pytest.raises(ConfigError) as err:
        parse_config("cfl = 0.9\n")
    assert err.value.kind == "syntax"  # assignment before any section
    dup = MINIMAL + "\n[run]\ncfl = 0.9\n\n[run]\ncfl = 0.8\n"
    with pytest.raises(ConfigError) as err:
        parse_config(dup)
    assert err.value.kind == "syntax"  # duplicate [run]
    dup_key = MINIMAL.replace("initial = 0.3",
                              "initial = 0.3\ninitial = 0.4")
    with pytest.raises(ConfigError) as err:
        parse_config(dup_key)
    assert err.value.kind == "syntax"
    both = MINIMAL.replace(
        "initial = 0.3",
        "initial = 0.3\ninitial.breakpoints = 0.5\ninitial.values = 0.1 0.2")
    with pytest.raises(ConfigError) as err:
        parse_config(both)
    assert err.value.kind == "syntax"
    missing_poly = """\
[road]
direction = in
flux.family = custom-polynomial
length = 1
cells = 10
initial = 0.2

[road]
direction = out
length = 1
cells = 10
initial = 0.4
"""
    with pytest.raises(ConfigError) as err:
        parse_config(missing_poly)
    assert err.value.kind == "range"
    unknown_family = MINIMAL.replace(
        "direction = in", "direction = in\nflux.family = cubic-spline")
    with pytest.raises(ConfigError) as err:
        parse_config(unknown_family)
    assert err.value.kind == "range"


def test_parse_run_range_errors():
    for frag, kind in [("cfl = 1.5", "range"), ("cfl = 0", "range"),
                       ("t_final = -1", "range"),
                       ("snapshots = -0.1 0.2", "range"),
                       ("outer_bc = periodic", "range"),
                       ("t_final = nan", "range"),
                       ("snapshots = 0.1 inf", "range"),
                       ("t_final = 0.1\nsnapshots = 0.05 0.2", "range"),
                       ("snapshots = 0.05", "range")]:  # t_final = 0
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"\n[run]\n{frag}\n")
        assert err.value.kind == kind, frag
    # every number of the format is finite, road lengths included
    for bad in ("nan", "inf"):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("length = 1", f"length = {bad}", 1))
        assert err.value.kind == "range"


# ---------------------------------------------------------------------------
# command line

def test_cli_riemann_worked_example(tmp_path):
    cfg = _write(tmp_path, WORKED)
    proc = _cli(tmp_path, "riemann", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert "coupling interval" in proc.stdout
    header, rows = _read_csv(tmp_path / "riemann.csv")
    assert header == ["road", "initial", "trace", "flux", "p_min", "p_max"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    fluxes = [float(r[3]) for r in rows]
    assert fluxes == pytest.approx([0.5, 2.0, 2.5], abs=1e-10)
    p_min, p_max = float(rows[0][4]), float(rows[0][5])
    assert p_min == pytest.approx(-SQ6, abs=1e-7)
    assert abs(p_max) <= 1e-7
    assert f"flux {2.5:.17g}"[:8] in proc.stdout or "2.5" in proc.stdout


def test_cli_run_writes_snapshots_and_log(tmp_path):
    text = MINIMAL + "\n[run]\ncfl = 0.9\nt_final = 0.2\nsnapshots = 0.1 0.2\n"
    cfg = _write(tmp_path, text)
    proc = _cli(tmp_path, "run", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    header, rows = _read_csv(tmp_path / "snapshots.csv")
    assert header == ["t", "road", "x", "rho"]
    # the initial state and the final time are always recorded
    assert len(rows) == 3 * 100
    assert {r[1] for r in rows} == {"1", "2"}
    times = sorted({float(r[0]) for r in rows})
    # interior snapshots attach to the nearest time level (dt = 0.009)
    assert times == pytest.approx([0.0, 0.1, 0.2], abs=0.005)
    # road 1 is incoming: centers negative; road 2 outgoing: positive
    assert all(float(r[2]) < 0 for r in rows if r[1] == "1")
    assert all(float(r[2]) > 0 for r in rows if r[1] == "2")
    header, log = _read_csv(tmp_path / "junction_log.csv")
    assert header == ["t", "p_min", "p_max", "gstar_1", "gstar_2",
                      "total_flux"]
    assert len(log) > 0
    for row in log:
        g1, g2, total = float(row[3]), float(row[4]), float(row[5])
        assert total == pytest.approx(g1, abs=1e-12)
        assert abs(g1 - g2) <= 1e-12


# SHA-256 of the run outputs for MINIMAL to t = 0.1, recorded before the
# snapshot writer went from per-cell rows to per-road batches: a change of
# format or of any computed digit shows here, not only nondeterminism
PINNED_RUN = {
    "snapshots.csv":
        "fcd71e819ce7041b109633a4ac94ba74bb5ee2a43c656e3ad05cec74ff77bbec",
    "junction_log.csv":
        "d2feb25fceb53119960b23c19a223323268366427c2d2c4ef1cb463b67ca8821",
}


def test_cli_run_byte_identical(tmp_path):
    text = MINIMAL + "\n[run]\nt_final = 0.1\nsnapshots = 0.1\n"
    cfg = _write(tmp_path, text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    proc_a = _cli(tmp_path, "run", "--config", cfg, "--out", str(out_a))
    proc_b = _cli(tmp_path, "run", "--config", cfg, "--out", str(out_b))
    assert proc_a.returncode == 0 and proc_b.returncode == 0
    for name in ("snapshots.csv", "junction_log.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        digest = hashlib.sha256((out_a / name).read_bytes()).hexdigest()
        assert digest == PINNED_RUN[name], name
    assert proc_a.stdout.splitlines()[:2] == [
        "run: 12 steps to t=0.10000000000000001, 2 snapshots",
        "final mass 0.89700000000000002, "
        "max conservation defect 8.8416687166192887e-17"]


# a 2-in/1-out LWR run on roads of 30, 15 and 24 cells (dx = 1/30) with
# five snapshots (t = 0, 0.05, 0.1, 0.2 and 0.3) and a junction state that
# moves; digests recorded before the snapshot writer went to one template
# per road and snapshot
UNEQUAL = """\
[road]
direction = in
length = 1
cells = 30
initial.breakpoints = -0.5
initial.values = 0.2 0.7

[road]
direction = in
flux.params = 1.5
length = 0.5
cells = 15
initial = 0.4

[road]
direction = out
flux.params = 2
length = 0.8
cells = 24
initial.breakpoints = 0.3
initial.values = 0.6 0.1

[run]
t_final = 0.3
snapshots = 0.05 0.1 0.2
"""

PINNED_UNEQUAL = {
    "snapshots.csv":
        "b7043ce26cffe5f8b00eaf3191cf10f8f2c11dc55a14d7b2aacccadf8fc2ba0e",
    "junction_log.csv":
        "ca8e8f2898e1492e136e7c63508ec01d46a45ba88a9206cbf3891fa932f2dc25",
}


def test_cli_run_byte_identical_on_unequal_roads(tmp_path):
    proc = _cli(tmp_path, "run", "--config", _write(tmp_path, UNEQUAL))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == (
        "run: 40 steps to t=0.29999999999999999, 5 snapshots")
    for name, want in PINNED_UNEQUAL.items():
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == want, name
    _, rows = _read_csv(tmp_path / "snapshots.csv")
    assert len(rows) == 5 * (30 + 15 + 24)


def test_cli_run_sizes_too_large_to_count_exit_2(tmp_path):
    # a step count that overflows and cell counts past int64 or 2**53 are
    # range errors where they enter, not tracebacks; nothing is allocated
    big_t = _write(tmp_path, MINIMAL + "\n[run]\nt_final = 1e308\n",
                   name="big_t.cfg")
    with pytest.raises(ConfigError) as err:
        build_network(parse_config(Path(big_t).read_text()))
    assert err.value.kind == "range"
    cfg = _write(tmp_path, MINIMAL + "\n[run]\nt_final = 0.05\n")
    for argv in (["--config", big_t], ["--config", cfg, "--t-final", "1e308"],
                 ["--config", cfg, "--dx", "1e-300"],
                 ["--config", cfg, "--dx", "1e-17"]):
        proc = _cli(tmp_path, "run", *argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        # a run too long to count names the [run] line where it has one
        assert re.match(r"configuration error: (line \d+: )?\[range\]",
                        proc.stderr), argv
        assert "Traceback" not in proc.stderr


def test_cli_run_mesh_too_large_to_allocate_exits_2(tmp_path, monkeypatch,
                                                     capsys):
    # 2.3e15 cells count below 2**53 but do not fit in memory; the failed
    # allocation is simulated, since a real one may succeed lazily
    real_build = scheme._Layout.build

    def build(spec, counts):
        if counts.sum() > 10**9:
            raise MemoryError
        return real_build(spec, counts)

    monkeypatch.setattr(scheme._Layout, "build", build)
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, UNEQUAL)
    assert cli.main(["run", "--config", cfg, "--dx", "1e-15"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: [range]" in err
    assert "2300000000000000 cells" in err
    assert not (tmp_path / "snapshots.csv").exists()
    # so does convergence, whose finest mesh has 2e15 cells at dx = 1e-15
    cfg = _write(tmp_path, MINIMAL + "\n[run]\nt_final = 0.3\n")
    assert cli.main(["convergence", "--config", cfg, "--dx", "1e-15"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: [range]" in err
    assert "2000000000000000 cells" in err
    assert not (tmp_path / "convergence.csv").exists()


def test_spec_only_subcommands_build_no_mesh(tmp_path, monkeypatch, capsys):
    # riemann, germ-check, profile and verify --config read the junction
    # only: a horizon too long to count steps for, or a mesh too large to
    # allocate (simulated as above), is no error there; run still exits 2
    real_build = scheme._Layout.build

    def build(spec, counts):
        if counts.sum() > 10**9:
            raise MemoryError
        return real_build(spec, counts)

    monkeypatch.setattr(scheme._Layout, "build", build)
    monkeypatch.chdir(tmp_path)
    text = MINIMAL.replace("initial = 0.3", "initial = 0.2").replace(
        "initial = 0.6", "initial = 0.8") + "\n[viscous]\nepsilon = 0.02\n"
    far = _write(tmp_path, text + "\n[run]\nt_final = 1e300\n",
                 name="far.cfg")
    huge = _write(tmp_path, text.replace("cells = 50", "cells = 10000000000"),
                  name="huge.cfg")
    for cfg in (far, huge):
        for command in ("riemann", "germ-check", "profile", "verify"):
            assert cli.main([command, "--config", cfg]) == 0, (command, cfg)
        capsys.readouterr()
        assert cli.main(["run", "--config", cfg]) == 2
        assert re.match(r"configuration error: (line \d+: )?\[range\]",
                        capsys.readouterr().err)
    assert not (tmp_path / "snapshots.csv").exists()


def test_dx_override_builds_only_the_mesh_it_runs(tmp_path, monkeypatch,
                                                   capsys):
    # with --dx, run and convergence build the mesh of that cell width,
    # never the document's own (too large to allocate, simulated as above)
    real_build = scheme._Layout.build

    def build(spec, counts):
        if counts.sum() > 10**9:
            raise MemoryError
        return real_build(spec, counts)

    monkeypatch.setattr(scheme._Layout, "build", build)
    monkeypatch.chdir(tmp_path)
    huge = MINIMAL.replace("cells = 50", "cells = 1000000000000")
    cfg = _write(tmp_path, huge + "\n[run]\nt_final = 0.05\n")
    assert cli.main(["run", "--config", cfg, "--dx", "0.05"]) == 0
    assert cli.main(["convergence", "--config", cfg, "--dx", "0.025"]) == 0
    assert "configuration error" not in capsys.readouterr().err
    # without --dx the document's mesh is still the one run
    assert cli.main(["run", "--config", cfg]) == 2
    assert "2000000000000 cells" in capsys.readouterr().err


def test_one_builder_serves_run_alone(tmp_path, monkeypatch, capsys):
    # run builds its network through cli.build_network once, with or
    # without --dx; the subcommands that read the junction only never do
    calls = []
    real = cli.build_network

    def spy(doc, dx=None):
        calls.append(dx)
        return real(doc, dx)

    monkeypatch.setattr(cli, "build_network", spy)
    monkeypatch.chdir(tmp_path)
    text = MINIMAL.replace("initial = 0.3", "initial = 0.2").replace(
        "initial = 0.6", "initial = 0.8")
    cfg = _write(tmp_path, text + "\n[run]\nt_final = 0.05\n\n[viscous]\n"
                                  "epsilon = 0.02\n")
    for argv, want in ((["run"], [None]), (["run", "--dx", "0.05"], [0.05]),
                       (["riemann"], []), (["germ-check"], []),
                       (["profile"], []), (["verify"], [])):
        calls.clear()
        assert cli.main([argv[0], "--config", cfg, *argv[1:]]) == 0, argv
        assert calls == want, argv


def test_convergence_takes_a_t_final_before_a_snapshot(tmp_path, monkeypatch,
                                                       capsys):
    # convergence keeps no snapshots, so a horizon before one is no error
    # there (it exited 2, as run still does: test_cli_run_dx_override)
    monkeypatch.chdir(tmp_path)
    text = MINIMAL.replace("cells = 50", "cells = 40").replace(
        "initial = 0.3", "initial = 0.2")
    cfg = _write(tmp_path, text + "\n[run]\nt_final = 0.3\nsnapshots = 0.3\n")
    assert cli.main(["convergence", "--config", cfg, "--t-final", "0.2"]) == 0
    assert "errors decreasing: True" in capsys.readouterr().out


def test_cli_accepts_a_table_end_off_zero(tmp_path):
    # an empty incoming road into a table whose end value is 1e-13: the
    # balance gap reads -1e-13 at rho_min, an end decided by structure
    text = MINIMAL.replace("initial = 0.3", "initial = 0").replace(
        "cells = 50\ninitial = 0.6",
        "cells = 50\ninitial = 0.6\nflux.family = tabulated\n"
        "flux.xs = 0 0.3 1\nflux.ys = 1e-13 0.2 0")
    cfg = _write(tmp_path, text + "\n[run]\nt_final = 0.1\n")
    for command in ("run", "riemann"):
        proc = _cli(tmp_path, command, "--config", cfg)
        assert proc.returncode == 0, (command, proc.stderr)


def test_cli_run_dx_override(tmp_path):
    text = MINIMAL + "\n[run]\nt_final = 0.05\nsnapshots = 0.05\n"
    cfg = _write(tmp_path, text)
    proc = _cli(tmp_path, "run", "--config", cfg, "--dx", "0.04")
    assert proc.returncode == 0, proc.stderr
    _, rows = _read_csv(tmp_path / "snapshots.csv")
    # snapshots at t = 0 and t = 0.05; 25 cells per road at dx = 0.04
    assert len(rows) == 2 * 50
    bad = _cli(tmp_path, "run", "--config", cfg, "--dx", "0.3")
    assert bad.returncode == 2
    assert "configuration error" in bad.stderr
    # non-finite overrides are configuration errors, not tracebacks
    for option in ("--dx", "--t-final"):
        for value in ("nan", "inf"):
            bad = _cli(tmp_path, "run", "--config", cfg, option, value)
            assert bad.returncode == 2, (option, value, bad.stderr)
            assert "configuration error" in bad.stderr
    # so is a horizon that ends before the configured snapshot at 0.05
    bad = _cli(tmp_path, "run", "--config", cfg, "--t-final", "0.02")
    assert bad.returncode == 2, bad.stderr
    assert "configuration error" in bad.stderr and "snapshot" in bad.stderr


def test_cli_germ_check(tmp_path):
    text = MINIMAL.replace("initial = 0.3", "initial = 0.2").replace(
        "initial = 0.6", "initial = 0.8")
    cfg = _write(tmp_path, text)
    proc = _cli(tmp_path, "germ-check", "--config", cfg,
                "--sample", "3", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    header, rows = _read_csv(tmp_path / "germ_check.csv")
    assert header == ["candidate", "k_1", "k_2", "member_godunov",
                      "member_oleinik", "strict"]
    assert len(rows) == 4  # the configured state plus three samples
    assert rows[0][3] == "true" and rows[0][4] == "true"
    for row in rows[1:]:
        assert row[3] == "true" and row[4] == "true"
    assert "member(flux-identity)=True" in proc.stdout


def test_cli_germ_check_rejects_bad_tol(tmp_path):
    # a zero tol used to die with a traceback and exit 1; NaN exited 0
    # with the two membership columns disagreeing
    cfg = _write(tmp_path, MINIMAL)
    for bad in ("0", "nan", "-1e-9", "inf"):
        proc = _cli(tmp_path, "germ-check", "--config", cfg, f"--tol={bad}")
        assert proc.returncode == 2, (bad, proc.stdout + proc.stderr)
        assert "configuration error" in proc.stderr and "--tol" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "germ_check.csv").exists()


def test_cli_import_loads_no_scipy():
    # numpy is the only dependency; a heavy import here is paid by every
    # process that starts the command line
    code = ("import sys, junctionflow.cli; print(' '.join(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_ENV,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""


def test_cli_profile_and_exit_codes(tmp_path):
    text = MINIMAL.replace("initial = 0.3", "initial = 0.2").replace(
        "initial = 0.6", "initial = 0.8")
    cfg = _write(tmp_path, text + "\n[viscous]\nepsilon = 0.02\n")
    proc = _cli(tmp_path, "profile", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert "coupling value" in proc.stdout
    header, rows = _read_csv(tmp_path / "profile.csv")
    assert header == ["road", "x", "rho"]
    assert {r[0] for r in rows} == {"1", "2"}
    # far from the junction the profile sits at the road constants
    rho1 = [float(r[2]) for r in rows if r[0] == "1"]
    rho2 = [float(r[2]) for r in rows if r[0] == "2"]
    assert rho1[0] == pytest.approx(0.2, abs=1e-6)
    assert rho2[-1] == pytest.approx(0.8, abs=1e-6)

    # missing epsilon: configuration error
    cfg_no_eps = _write(tmp_path, text, name="noeps.cfg")
    assert _cli(tmp_path, "profile", "--config", cfg_no_eps).returncode == 2
    for value in ("nan", "inf"):
        assert _cli(tmp_path, "profile", "--config", cfg,
                    "--epsilon", value).returncode == 2
    # non-equilibrium data (0.8 in, 0.2 out): precondition failure
    bad = MINIMAL.replace("initial = 0.3", "initial = 0.8").replace(
        "initial = 0.6", "initial = 0.2")
    cfg_bad = _write(tmp_path, bad + "\n[viscous]\nepsilon = 0.02\n",
                     name="bad.cfg")
    proc = _cli(tmp_path, "profile", "--config", cfg_bad)
    assert proc.returncode == 1
    assert "precondition failed" in proc.stderr


def test_cli_config_errors_exit_2(tmp_path):
    cfg = _write(tmp_path, MINIMAL.replace("cells = 50", "cells = abc", 1))
    proc = _cli(tmp_path, "riemann", "--config", cfg)
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert "line 4" in proc.stderr
    missing = _cli(tmp_path, "riemann", "--config",
                   str(tmp_path / "absent.cfg"))
    assert missing.returncode == 2


def test_cli_verify_default_networks(tmp_path):
    proc = _cli(tmp_path, "verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, rows = _read_csv(tmp_path / "verify.csv")
    assert header == ["name", "value", "tolerance", "require", "passed"]
    names = {r[0] for r in rows}
    assert "worked-example-fluxes" in names
    assert "worked-example-p-interval" in names
    for label in ("1-1", "2-1", "2-3"):
        assert f"well-balance-drift-{label}" in names
        assert f"l1-contraction-growth-{label}" in names
        assert f"kato-form-{label}" in names
        assert f"dissipativity-{label}" in names
        assert f"mass-defect-{label}" in names
    assert all(r[4] == "true" for r in rows)
    assert proc.stdout.count("pass") >= len(rows)


# SHA-256 of verify.csv for the bundled suite at these seeds; the suite
# runs hinted junction solves throughout, which must never move a bit
VERIFY_SHA256 = {
    0: "37162a67618e54ce21224783147df1f28953b97554f251fd7220cc7e3680e4f6",
    1: "a2d2366a8a215917f449b9db4822bbec30a9cf0688307d3fe86d9756de12537e",
    2: "4bb6add702f9e3c8234ecd91f95984e37cacac2a7613876e96bb09e2025787f9",
}


def _verify_digest(out, seed):
    assert cli.main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    return hashlib.sha256((out / "verify.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
def test_cli_verify_csv_is_pinned(tmp_path, seed):
    assert _verify_digest(tmp_path, seed) == VERIFY_SHA256[seed]


def test_cli_verify_builds_its_networks_once(tmp_path, monkeypatch):
    # the default networks, and with them the warm pieces of every hint
    # their solves have seen, last the process: a second verify writes the
    # same bytes and builds no piece
    built = []
    real = kernels.WarmPieces._piece

    def spy(self, hint):
        built.append(hint)
        return real(self, hint)

    monkeypatch.setattr(kernels.WarmPieces, "_piece", spy)
    first = _verify_digest(tmp_path / "first", 0)
    built.clear()
    assert _verify_digest(tmp_path / "second", 0) == first
    assert built == []


def test_cli_run_junction_error_exits_3(tmp_path, monkeypatch, capsys):
    # a junction flux that is not finite is a broken invariant (exit 3),
    # and the message names the step whose solve made it
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, MINIMAL + "\n[run]\nt_final = 0.3\n")
    real = kernels.fill_junction_fluxes

    def poisoned(roads, m, consts, p, out):
        real(roads, m, consts, p, out)
        out[1] = math.nan

    monkeypatch.setattr(kernels, "fill_junction_fluxes", poisoned)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "step 1: junction flux of road 1 is nan" in capsys.readouterr().err


def test_verify_rows_fail_on_nan_runs(monkeypatch):
    # a NaN cell in every run of the suite must fail the audits that read
    # the runs, not vanish in a max() fold; run_batch rejects NaN input, so
    # the trajectories it returns are poisoned instead
    real_run_batch = cli.run_batch

    def poisoned(config, initials, *args, **kwargs):
        trajs = real_run_batch(config, initials, *args, **kwargs)
        for traj in trajs:
            for state in traj.states:
                state.values[0][0] = math.nan
            traj.masses[-1] = math.nan
        return trajs

    monkeypatch.setattr(cli, "run_batch", poisoned)
    spec = JunctionSpec(1, 1, (quadratic_lwr(), quadratic_lwr(1.5)))
    passed = {name: ok for name, *_, ok in cli._suite_rows([("1-1", spec)],
                                                           0)}
    assert not passed["well-balance-drift-1-1"]
    assert not passed["kato-form-1-1"]
    assert not passed["mass-defect-1-1"]
    assert passed["worked-example-fluxes"]  # runs no trajectory


@pytest.mark.parametrize("argv", [
    ["convergence", "--dx", "nan"],
    ["convergence", "--dx", "inf"],
    ["convergence", "--dx", "1e-300"],
    ["convergence", "--dx", "0"],
    ["convergence", "--dx", "-1"],
    ["germ-check", "--sample", "-3"],
    ["germ-check", "--sample", "3", "--seed", "-1"],
    ["verify", "--seed", "-1"],
])
def test_cli_rejects_bad_options_by_name(tmp_path, monkeypatch, capsys, argv):
    # each of these reached numpy or the arithmetic unchecked: a traceback,
    # or an exit that read as a failed suite; each is a range error (exit
    # 2) that names the option, found before any work is done
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, MINIMAL + "\n[run]\nt_final = 0.3\n")
    if argv[0] != "verify":
        argv = [argv[0], "--config", cfg, *argv[1:]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: [range]" in err
    assert argv[-2] in err  # the option, given last with its value
    assert not list(tmp_path.glob("*.csv"))


def test_cli_convergence(tmp_path):
    # cells = 40 so the coarsest ladder entry 8 * dx = 0.2 tiles the roads;
    # the 0.2 | 0.6 shock moves far enough by t = 0.3 that every refinement
    # cuts the error by far more than rounding
    text = MINIMAL.replace("cells = 50", "cells = 40").replace(
        "initial = 0.3", "initial = 0.2")
    cfg = _write(tmp_path, text + "\n[run]\nt_final = 0.3\n")
    proc = _cli(tmp_path, "convergence", "--config", cfg)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "errors decreasing: True" in proc.stdout
    header, rows = _read_csv(tmp_path / "convergence.csv")
    assert header == ["dx", "error", "order"]
    assert len(rows) == 4
    dxs = [float(r[0]) for r in rows]
    assert dxs == pytest.approx([0.2, 0.1, 0.05, 0.025])
    errs = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert rows[0][2] == "nan"
    # a ladder that cannot tile the roads is rejected up front
    bad = _cli(tmp_path, "convergence", "--config", cfg, "--dx", "0.3")
    assert bad.returncode == 2
    assert "configuration error" in bad.stderr

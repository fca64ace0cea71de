"""The input contract: bad input is refused by name where it enters.

``CONTRACT`` maps every name in ``junctionflow.__all__`` to the calls it
offers, each with valid arguments and the kind of every parameter checked
here; a name that takes no input of these kinds (an exception, a record, the
version) maps to no calls. ``BAD`` draws a bad value of each kind. A bad
value must raise ValueError (ConfigError is one): never TypeError,
IndexError, AttributeError, nor an answer, finite or not.

The command line keeps the same contract for a config that one changed line
has broken: exit 0, or exit 2 naming a line, never 1.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import junctionflow as jf
from junctionflow import cli

LWR = jf.quadratic_lwr()
SPEC = jf.JunctionSpec(1, 1, (LWR, LWR))
MESH = jf.NetworkMesh(SPEC, 0.1, [10, 10])
CONFIG = jf.RunConfig(MESH, 0.9, 0.3)
TRAJ_A = jf.run(CONFIG, [0.3, 0.6])
TRAJ_B = jf.run(CONFIG, [0.2, 0.7])
STATE = jf.discretize_initial(MESH, [0.3, 0.6])
RS = jf.riemann_solve(SPEC, (0.3, 0.6))
PROFILE = jf.stationary_profile(SPEC, (0.2, 0.8), 0.05, 0.5)
PROBLEM = jf.RiemannProblem(SPEC, (0.3, 0.6), 0.1)


def call(fn, kinds, **valid):
    """fn with valid keyword arguments, any of which a test overrides."""
    return (lambda **bad: fn(**{**valid, **bad})), kinds


# every density below lies in LWR's [0, 1], every state has 2 roads
CONTRACT = {
    "ConfigError": [], "ConsistencyError": [], "PreconditionError": [],
    # eval, derivative and entropy_flux map densities elementwise, arrays
    # included; demand, supply and godunov take one density each. Flux's
    # constructors are the functions below
    "Flux": [call(LWR.eval, {"rho": "densities"}, rho=0.3),
             call(LWR.derivative, {"rho": "densities"}, rho=[0.3, 0.6]),
             call(LWR.entropy_flux, {"u": "densities", "k": "densities"},
                  u=0.3, k=[0.2, 0.6]),
             call(LWR.demand, {"a": "bounded"}, a=0.3),
             call(LWR.supply, {"b": "bounded"}, b=0.6),
             call(LWR.godunov, {"a": "bounded", "b": "bounded"}, a=0.3,
                  b=0.6)],
    "branch_point": [call(jf.branch_point, {"y": "bounded"}, flux=LWR,
                          y=0.1, branch="rising")],
    "conjugate": [call(jf.conjugate, {"rho": "bounded"}, flux=LWR, rho=0.2)],
    "custom_polynomial": [call(
        jf.custom_polynomial,
        {"coeffs": "sequence", "rho_min": "bounded", "rho_max": "bounded",
         "rho_crit": "bounded"},
        coeffs=[0.0, 1.0, -1.0], rho_min=0.0, rho_max=1.0, rho_crit=0.5)],
    "quadratic_lwr": [call(jf.quadratic_lwr,
                           {"v": "positive", "rho_max": "positive"})],
    "symmetric_quadratic": [call(jf.symmetric_quadratic, {"h": "positive"})],
    "tabulated": [call(jf.tabulated, {"xs": "sequence", "ys": "sequence"},
                       xs=[0.0, 0.5, 1.0], ys=[0.0, 0.25, 0.0])],
    "JunctionSolution": [],
    "JunctionSpec": [
        call(jf.JunctionSpec, {"m": "count", "n": "count",
                               "fluxes": "sequence"},
             m=1, n=1, fluxes=(LWR, LWR)),
        call(SPEC.road_index, {"road": "road"}, road=0)],
    "RiemannSolution": [call(RS.sample, {"road": "road", "xi": "finite"},
                             road=0, xi=0.1)],
    "dissipativity": [call(jf.dissipativity, {"k1": "state", "k2": "state"},
                           spec=SPEC, k1=(0.2, 0.8), k2=(0.3, 0.3))],
    "is_germ_member": [call(jf.is_germ_member,
                            {"k": "state", "tol": "positive"},
                            spec=SPEC, k=(0.2, 0.8))],
    "is_strict_germ_member": [call(jf.is_strict_germ_member,
                                   {"k": "state", "tol": "positive"},
                                   spec=SPEC, k=(0.2, 0.8))],
    "riemann_solve": [call(jf.riemann_solve, {"u0": "state"}, spec=SPEC,
                           u0=(0.3, 0.6))],
    "solve_junction": [call(jf.solve_junction, {"u": "state"}, spec=SPEC,
                            u=(0.3, 0.6))],
    "strict_witness": [call(jf.strict_witness,
                            {"k": "state", "tol": "positive"},
                            spec=SPEC, k=(0.2, 0.8))],
    "GridState": [],  # a record, checked where a run or step reads it
    "MassLedger": [],
    "NetworkMesh": [
        call(jf.NetworkMesh, {"dx": "positive", "cells_per_road": "count"},
             spec=SPEC, dx=0.1, cells_per_road=[10, 10]),
        call(MESH.centers, {"road": "road"}, road=0),
        call(MESH.road_length, {"road": "road"}, road=0)],
    "RunConfig": [call(jf.RunConfig,
                       {"cfl_number": "positive", "t_final": "bounded",
                        "dirichlet_values": "state",
                        "snapshot_times": "times", "epsilon": "bounded"},
                       mesh=MESH, cfl_number=0.9, t_final=0.3)],
    "Trajectory": [],
    "cfl_timestep": [call(jf.cfl_timestep, {"cfl_number": "positive"},
                          mesh=MESH, cfl_number=0.9)],
    "discretize_initial": [call(jf.discretize_initial, {"data": "state"},
                                mesh=MESH, data=[0.3, 0.6])],
    "mass_ledger": [],  # reads a Trajectory only
    "run": [call(jf.run, {"initial": "state"}, config=CONFIG,
                 initial=[0.3, 0.6])],
    # each datum of a batch is refused as run's initial is, here the second
    "run_batch": [call(lambda config, initial: jf.run_batch(
        config, [(0.2, 0.7), initial]), {"initial": "state"}, config=CONFIG,
        initial=[0.3, 0.6])],
    "step": [call(jf.step, {"state": "state", "dt": "positive",
                            "dirichlet_values": "state",
                            "epsilon": "bounded"},
                  state=STATE, mesh=MESH, dt=0.01)],
    "ContractionReport": [], "ConvergenceReport": [], "KatoReport": [],
    "RiemannProblem": [call(jf.RiemannProblem,
                            {"initial": "state", "t_final": "positive",
                             "road_length": "positive", "cfl": "positive"},
                            spec=SPEC, initial=(0.3, 0.6), t_final=0.1)],
    "TestFunction": [],  # a record; bump_test_function builds one
    "adapted_entropy_residual": [call(
        jf.adapted_entropy_residual, {"k": "state"}, traj=TRAJ_A,
        k=(0.2, 0.8), xi=jf.bump_test_function(0.05, 0.25, 0.5, 0.15))],
    "bump_test_function": [call(
        jf.bump_test_function,
        {"t_on": "bounded", "t_off": "bounded", "reach": "bounded",
         "plateau": "bounded"},
        t_on=0.05, t_off=0.25, reach=0.5, plateau=0.15)],
    "convergence_study": [call(jf.convergence_study,
                               {"dx_list": "sequence", "fine_dx": "positive"},
                               problem=PROBLEM, dx_list=[0.1])],
    "germ_sampler": [call(jf.germ_sampler, {"count": "count", "seed": "seed"},
                          spec=SPEC, count=2, seed=1)],
    "kato_audit": [],  # reads trajectories and a TestFunction only
    "l1_contraction_check": [call(jf.l1_contraction_check,
                                  {"window": "positive"}, traj_a=TRAJ_A,
                                  traj_b=TRAJ_B, window=0.3)],
    "nonstrict_germ_sampler": [call(jf.nonstrict_germ_sampler,
                                    {"count": "count", "seed": "seed"},
                                    count=2, seed=1)],
    "ViscousProfile": [call(PROFILE.evaluate, {"road": "road", "x": "finite"},
                            road=0, x=-0.1)],
    "initial_smoothing": [call(jf.initial_smoothing,
                               {"epsilon": "bounded", "dx": "positive",
                                "width": "seed"},
                               data=np.zeros(5), epsilon=0.1, dx=0.01)],
    "parabolic_timestep": [call(jf.parabolic_timestep,
                                {"epsilon": "positive"}, mesh=MESH,
                                epsilon=0.02)],
    "road_profile": [call(jf.road_profile,
                          {"k_h": "bounded", "p": "bounded",
                           "epsilon": "positive", "window": "positive",
                           "n_samples": "count"},
                          flux=LWR, k_h=0.2, p=0.4, epsilon=0.05, window=0.5)],
    "run_parabolic": [call(jf.run_parabolic,
                           {"initial": "state", "epsilon": "positive",
                            "t_final": "bounded"},
                           mesh=MESH, epsilon=0.02, initial=[0.3, 0.6],
                           t_final=0.01)],
    "stationary_profile": [call(jf.stationary_profile,
                                {"k": "state", "epsilon": "positive",
                                 "window": "positive", "n_samples": "count",
                                 "p": "bounded"},
                                spec=SPEC, k=(0.2, 0.8), epsilon=0.05,
                                window=0.5)],
    "__version__": [],
}

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NO_NUMBER = st.one_of(st.booleans(), st.text(max_size=4),
                       st.just([]), st.just({}))
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# a bool beside a valid number: an array of them reads it as 0 or 1
_BOOL_INSIDE = st.booleans().flatmap(lambda b: st.permutations([b, 0.5]))

# a bad value of each kind; a density or a time below -1e-3 lies outside
# every interval checked here. None is drawn only where no default gives it
# a meaning (fine_dx, p, a Dirichlet state and a width have one)
BAD = {
    "count": st.one_of(st.integers(max_value=0), _ANY_FLOAT, _NO_NUMBER,
                       st.none()),
    # a count from 0: seeds, and the smoothing width (where None is valid)
    "seed": st.one_of(st.integers(max_value=-1), _ANY_FLOAT, _NO_NUMBER),
    "positive": st.one_of(st.floats(max_value=0.0), st.integers(max_value=0),
                          _NON_FINITE, _NO_NUMBER),
    "bounded": st.one_of(st.floats(max_value=-1e-3), _NON_FINITE,
                         _NO_NUMBER),
    "road": st.one_of(st.integers().filter(lambda r: r not in (0, 1)),
                      _ANY_FLOAT, _NO_NUMBER, st.none()),
    "state": st.one_of(
        st.lists(st.one_of(st.floats(max_value=-1e-3),
                           st.floats(min_value=1.001), _NON_FINITE),
                 min_size=1, max_size=1).flatmap(
            lambda bad: st.permutations(bad + [0.5])),
        st.lists(st.floats(0.0, 1.0), max_size=5).filter(
            lambda u: len(u) != 2),
        st.booleans(), st.text(max_size=4), _BOOL_INSIDE,
        # a road of ten bool cells (each road of MESH has ten)
        st.lists(st.booleans(), min_size=10, max_size=10).map(
            lambda cells: [cells, 0.5])),  # None: absorbing outer ends
    "sequence": st.one_of(st.just([]), st.just(()), _ANY_FLOAT,
                          st.booleans(), st.text(max_size=4), st.none()),
    # densities in LWR's [0, 1], one or a non-empty array of them
    "densities": st.one_of(
        st.floats(max_value=-1e-3), st.floats(min_value=1.001), _NON_FINITE,
        _NO_NUMBER, st.lists(st.one_of(st.floats(max_value=-1e-3),
                                       st.floats(min_value=1.001),
                                       _NON_FINITE),
                             min_size=1, max_size=1).flatmap(
            lambda bad: st.permutations(bad + [0.5, 0.2])),
        st.just(np.empty(0)), st.just([[0.5], [0.2, 0.3]]), _BOOL_INSIDE),
    # finite reals, one or an array of them
    "finite": st.one_of(_NON_FINITE, st.lists(_NON_FINITE, min_size=1),
                        st.none(), st.just("ab"), st.just([]), _BOOL_INSIDE),
    # times in [0, t_final] of a run to t_final = 0.3
    "times": st.one_of(st.lists(st.one_of(_NON_FINITE,
                                          st.floats(max_value=-1e-3),
                                          st.floats(min_value=0.301)),
                                min_size=1, max_size=3),
                       st.lists(st.booleans(), min_size=1, max_size=2),
                       _ANY_FLOAT, st.text(max_size=4), st.none()),
}

CASES = [(name, i, param, kind)
         for name, calls in sorted(CONTRACT.items())
         for i, (_, kinds) in enumerate(calls)
         for param, kind in kinds.items()]


def test_the_table_names_every_public_name():
    # a name added to __all__ needs its row, even an empty one
    assert set(CONTRACT) == set(jf.__all__)
    assert set(kind for *_, kind in CASES) == set(BAD)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_bad_input_is_a_value_error(data):
    name, i, param, kind = data.draw(st.sampled_from(CASES), label="case")
    bad = data.draw(BAD[kind], label="value")
    with pytest.raises(ValueError):
        CONTRACT[name][i][0](**{param: bad})


@pytest.mark.parametrize("name, i, param, kind", CASES)
def test_valid_arguments_pass(name, i, param, kind):
    # the table's valid arguments are accepted, so a refusal above is the
    # bad value's doing
    CONTRACT[name][i][0]()


# ---------------------------------------------------------------------------
# inputs that escaped as a bare exception or got an answer


def _refused(name, value, rule=".*"):
    return pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "
                                           rf"{rule}, got "
                                           rf"{re.escape(repr(value))}$")


@pytest.mark.parametrize("seed", [math.nan, 2.5, True, -1])
def test_samplers_refuse_a_seed_that_is_no_count(seed):
    # nan and 2.5 raised numpy's TypeError
    with _refused("seed", seed, "a nonnegative integer"):
        jf.germ_sampler(SPEC, 2, seed)
    with _refused("seed", seed, "a nonnegative integer"):
        jf.nonstrict_germ_sampler(2, seed)


def test_junction_spec_refuses_counts_and_fluxes_by_name():
    # True was taken for 1 road, 1.5 gave "expected 2.5 fluxes", and a
    # number in place of a flux raised AttributeError
    with _refused("m", True, "a positive integer"):
        jf.JunctionSpec(True, 1, (LWR, LWR))
    with _refused("m", 1.5, "a positive integer"):
        jf.JunctionSpec(1.5, 1, (LWR, LWR))
    with pytest.raises(ValueError, match="^fluxes must be Flux objects, "
                                         "got 1$"):
        jf.JunctionSpec(1, 1, (1, 2))
    with pytest.raises(ValueError, match=r"^fluxes must be a sequence of 2 "
                                         r"entries, got \(Flux\("):
        jf.JunctionSpec(1, 1, (LWR,))


def test_run_config_refuses_a_bool_cfl_and_a_text_horizon():
    # True was taken for CFL 1, "1" raised TypeError
    with _refused("cfl_number", True, r"in \(0, 1\]"):
        jf.RunConfig(MESH, True, 0.3)
    with _refused("cfl_number", 1.5, r"in \(0, 1\]"):
        jf.RunConfig(MESH, 1.5, 0.3)
    with _refused("t_final", "1", r"a finite number in \[0, inf\]"):
        jf.RunConfig(MESH, 0.9, "1")


def test_mesh_refuses_a_bool_width_or_count():
    with _refused("dx", True, "positive and finite"):
        jf.NetworkMesh(SPEC, True, [10, 10])
    with _refused("cells_per_road", True, "a positive integer"):
        jf.NetworkMesh(SPEC, 0.1, [10, True])
    # whole counts of numpy's integer types are counts
    assert jf.NetworkMesh(SPEC, 0.1, np.array([10, 12])).cells_per_road.tolist() \
        == [10, 12]


def test_roads_are_integers_in_range():
    # 1.0 was taken for road 1; True and a float raised TypeError
    with _refused("road", 1.0, r"in range\(2\)"):
        SPEC.road_index(1.0)
    with _refused("road", True, r"in range\(2\)"):
        MESH.centers(True)
    with _refused("road", 1.0, r"in range\(2\)"):
        RS.sample(1.0, 0.1)
    assert SPEC.road_index(np.int64(1)) == 1


def test_riemann_sample_refuses_a_non_finite_ray():
    # xi = nan read as the road's far datum 0.3, not an error
    with _refused("xi", math.nan, r"a finite number in \[-inf, inf\]"):
        RS.sample(0, math.nan)
    xi = np.array([0.1, math.inf])
    with _refused("xi", xi, r"finite numbers in \[-inf, inf\]"):
        RS.sample(1, xi)


def test_riemann_sample_refuses_an_empty_ray():
    # [] answered an empty array, where Flux.eval and evaluate refuse it
    with _refused("xi", [], r"finite numbers in \[-inf, inf\]"):
        RS.sample(0, [])
    # a 0-d array is one ray, and an array keeps its shape
    assert isinstance(RS.sample(0, np.array(-0.1)), float)
    assert RS.sample(0, [[-0.1], [0.0]]).shape == (2, 1)


def test_a_bool_inside_a_sequence_is_refused():
    # each was read as 0 or 1: the state (1, 0) was solved, eval answered
    # [0, 0], and a road of ten True cells ran as a full road
    with _refused("junction state", [True, False], "2 finite numbers .*"):
        jf.solve_junction(SPEC, [True, False])
    with _refused("rho", [True, False], "finite numbers .*"):
        LWR.eval([True, False])
    with pytest.raises(ValueError, match=r"^road 0: initial data must be 10 "
                                         r"finite numbers in \[-1e-12, 1\]"):
        jf.run(CONFIG, [[True] * 10, 0.5])
    for bools in (np.array([True, False]), [np.True_, 0.5],
                  np.array([0.5, False], dtype=object)):
        with pytest.raises(ValueError, match="^junction state must be "):
            SPEC.candidate(bools)
        with pytest.raises(ValueError, match="^rho must be "):
            LWR.eval(bools)


def test_flux_methods_refuse_what_is_no_density():
    # godunov(0.2, []) and demand([]) raised numpy's TypeError, eval(True)
    # answered f(1) = 0.0 and eval([]) answered []
    scalar = r"a finite number in \[-1e-12, 1\]"
    with _refused("b", [], scalar):
        LWR.godunov(0.2, [])
    with _refused("a", [], scalar):
        LWR.demand([])
    with _refused("rho", True, scalar):
        LWR.eval(True)
    with _refused("rho", [], r"finite numbers in \[-1e-12, 1\]"):
        LWR.eval([])
    # a 0-d array is one density, and an array keeps its shape
    assert LWR.eval(np.array(0.5)) == 0.25
    assert LWR.eval([[0.5], [0.5]]).shape == (2, 1)


def test_profile_evaluate_refuses_a_non_finite_position():
    # x = nan answered k_h: 0.2 on the incoming road of this profile
    with _refused("x", math.nan, r"a finite number in \[-inf, inf\]"):
        PROFILE.evaluate(0, math.nan)
    with _refused("x", [-0.1, -math.inf], r"finite numbers in \[-inf, inf\]"):
        PROFILE.evaluate(0, [-0.1, -math.inf])


@pytest.mark.parametrize("epsilon", [math.nan, -1.0, 0.0, True])
def test_parabolic_timestep_refuses_a_bad_viscosity(epsilon):
    # nan gave a step of nan, -1 a negative step
    with _refused("epsilon", epsilon, "positive and finite"):
        jf.parabolic_timestep(MESH, epsilon)


def test_flux_parameters_must_be_positive_reals():
    # True was taken for v = 1; "2" and [1, 2] raised TypeError
    for bad in (True, "2"):
        with _refused("v", bad, "positive and finite"):
            jf.quadratic_lwr(v=bad)
    with _refused("h", [1, 2], "positive and finite"):
        jf.symmetric_quadratic([1, 2])


def test_membership_tol_refuses_a_bool():
    with _refused("tol", True, "positive and finite"):
        jf.is_germ_member(SPEC, (0.2, 0.8), tol=True)


def test_discretize_initial_refuses_missing_data():
    # None raised TypeError from len()
    with _refused("data", None, "a sequence of 2 entries"):
        jf.discretize_initial(MESH, None)
    with _refused("road 1: initial data", None,
                  r"a finite number in \[-1e-12, 1\]"):
        jf.discretize_initial(MESH, [0.3, None])


def test_riemann_problem_checks_its_length_and_cfl_when_built():
    # a NaN length raised "cannot convert float NaN to integer" in the
    # study; a CFL of 1.5 was only refused by the first run
    with _refused("road_length", math.nan, "positive and finite"):
        jf.RiemannProblem(SPEC, (0.3, 0.6), 0.1, road_length=math.nan)
    with _refused("cfl", 1.5, r"in \(0, 1\]"):
        jf.RiemannProblem(SPEC, (0.3, 0.6), 0.1, cfl=1.5)


# ---------------------------------------------------------------------------
# the command line on a config with one line changed

VALID = """\
[road]
direction = in
flux.family = quadratic-lwr
flux.params = 1 1
length = 1
cells = 10
initial = 0.3

[road]
direction = in
flux.family = tabulated
flux.xs = 0 0.4 1
flux.ys = 0 0.2 0
length = 1
cells = 10
initial.breakpoints = 0.5
initial.values = 0.1 0.6

[road]
direction = out
flux.params = 2
length = 1
cells = 10
initial = 0.5

[run]
cfl = 0.9
t_final = 0.1
snapshots = 0.05
outer_bc = dirichlet 0.2 0.3 0.4

[viscous]
epsilon = 0.02
window = 0.5
"""

_NUMBER = re.compile(r"-?\d+(\.\d*)?(e-?\d+)?")


@st.composite
def _one_line_changed(draw):
    lines = VALID.splitlines()
    k = draw(st.integers(0, len(lines) - 1), label="line")
    how = draw(st.sampled_from(["drop", "duplicate", "number"]), label="how")
    numbers = list(_NUMBER.finditer(lines[k]))
    if how == "drop":
        del lines[k]
    elif how == "duplicate":
        lines.insert(k, lines[k])
    elif numbers:
        hit = draw(st.sampled_from(numbers))
        new = draw(st.sampled_from(["nan", "inf", "-1", "1e300", "abc"]))
        lines[k] = lines[k][:hit.start()] + new + lines[k][hit.end():]
    return "\n".join(lines) + "\n"


def _cli(tmp_path, text):
    cfg = tmp_path / "net.cfg"
    cfg.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path)])
    return code, err.getvalue()


def test_the_valid_config_runs(tmp_path):
    assert _cli(tmp_path, VALID) == (0, "")


@settings(max_examples=100, deadline=None)
@given(text=_one_line_changed())
# a run too long to count steps for named no line
@example(text=VALID.replace("t_final = 0.1", "t_final = 1e300"))
@example(text=VALID.replace("flux.params = 1 1", "flux.params = 1e300 1"))
def test_one_changed_line_exits_0_or_2_naming_a_line(tmp_path_factory, text):
    code, err = _cli(tmp_path_factory.mktemp("cli"), text)
    assert code == 0 or (code == 2 and re.match(
        r"configuration error: line \d+: ", err)), (code, err, text)

"""Command line entry points driven through tiny JSON configs."""

import ast
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from burgersfb import assembly, cli, harness
from burgersfb.assembly import Discretization, FeField, discrete_laplacian, l2_norm
from burgersfb.cli import _CONFIG_KEYS, _FIELD_KEYS, main
from burgersfb.evolution import EvolutionConfig
from burgersfb.harness import StudyConfig, example1_problem
from burgersfb.mesh import ConfigError, InvalidRegionError, build_unit_square_mesh, tag_boundary
from burgersfb.steady import (
    SteadySpec,
    analytic_from_expression,
    manufactured_solve_spec,
    smallness_report,
    solve_steady,
    steady_residual,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


BASE = {
    "domain": {"n": 4},
    "physics": {"nu": 0.1, "c0": 1.0},
    "steady": {"u_inf": "-0.2*x1", "mean": -0.1},
    "initial": {"w0": "sin(pi*x1)*sin(pi*x2) + 0.2*x1"},
    "time": {"k": 0.01, "t_end": 0.1},
}


def test_steady_manufactured(tmp_path, capsys):
    config = write_config(tmp_path, {**BASE, "output": {"dir": str(tmp_path)}})
    payload = run_json(capsys, ["steady", "--config", config])
    assert payload["n"] == 4
    assert payload["newton_iterations"] >= 1
    assert payload["residual_norm"] <= 1e-10
    assert payload["interpolant_gap_l2"] <= 1e-9
    assert payload["smallness"]["satisfied"] is True
    with open(payload["csv"], "r", encoding="ascii") as handle:
        assert handle.readline().rstrip("\n") == "x,y,u"
        # 17 significant digits give back the solution's doubles
        solution = np.array([float(line.split(",")[2]) for line in handle])
    # the manufactured forcing of -0.2 x1 is 0.04 x1, whose L2 norm is 0.04 / sqrt(3)
    assert payload["smallness"]["forcing_l2"] == pytest.approx(0.04 / np.sqrt(3.0), rel=1e-12)
    mesh = build_unit_square_mesh(4)
    laplacian = discrete_laplacian(Discretization(mesh), FeField(mesh, solution))
    assert payload["smallness"]["laplacian_norm"] == pytest.approx(l2_norm(laplacian), rel=1e-12)
    assert payload["smallness"]["laplacian_norm"] > 0.0
    # "smallness" holds every field of the report on the solved state, by name
    spec = SteadySpec(0.1, -0.1, u_steady=analytic_from_expression("-0.2*x1"))
    report = smallness_report(FeField(mesh, solution), spec)
    assert set(payload["smallness"]) == {
        "grad_norm", "convection_constant", "bound", "bound_loose", "satisfied",
        "laplacian_norm", "forcing_l2",
    }
    for key, value in payload["smallness"].items():
        assert value == getattr(report, key), key


def test_steady_builds_one_discretization_per_consumer(tmp_path, capsys, monkeypatch):
    # the steady solve builds one, and the smallness report shares one between
    # the convection constant and the discrete Laplacian
    built = []
    init = Discretization.__init__

    def counting(self, mesh):
        built.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(assembly.Discretization, "__init__", counting)
    config = write_config(tmp_path, {**BASE, "domain": {"n": 8}})
    run_json(capsys, ["steady", "--config", config, "--output-dir", str(tmp_path)])
    assert len(built) == 2 and built[0] is built[1]


def test_steady_solve_mode(tmp_path, capsys):
    # Forcing of the shear state; no closed form is given, so no gap field.
    config = write_config(
        tmp_path,
        {
            **BASE,
            "steady": {"f_inf": "0.04*x1", "mean": -0.1},
            "output": {"dir": str(tmp_path)},
        },
    )
    payload = run_json(capsys, ["steady", "--config", config])
    assert "interpolant_gap_l2" not in payload
    assert payload["residual_norm"] <= 1e-10
    assert os.path.exists(payload["csv"])


@pytest.mark.parametrize(
    "n, steady, dirichlet",
    [
        (4, BASE["steady"], None),
        (8, {"f_inf": "0.04*x1", "mean": -0.1}, None),
        (16, BASE["steady"], [[1.0, 0.0], [1.0, 1.0]]),
    ],
)
def test_steady_reports_the_residual_of_its_solution(tmp_path, capsys, n, steady, dirichlet):
    domain = {"n": n} if dirichlet is None else {"n": n, "dirichlet": dirichlet}
    config = write_config(tmp_path, {**BASE, "domain": domain, "steady": steady})
    payload = run_json(capsys, ["steady", "--config", config, "--output-dir", str(tmp_path)])
    mesh = tag_boundary(build_unit_square_mesh(n), dirichlet)
    nu, mean = BASE["physics"]["nu"], steady["mean"]
    if "u_inf" in steady:
        spec = manufactured_solve_spec(analytic_from_expression(steady["u_inf"]), nu, mean)
    else:
        spec = SteadySpec(nu=nu, mean_value=mean,
                          forcing=analytic_from_expression(steady["f_inf"]).value)
    solution = solve_steady(mesh, spec)
    expected = steady_residual(mesh, solution, spec.forcing, nu, neumann_flux=spec.neumann_flux)
    assert payload["residual_norm"] == expected


def test_simulate_controlled(tmp_path, capsys):
    config = write_config(tmp_path, BASE)
    payload = run_json(
        capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)]
    )
    assert payload["lyapunov_monotone"] is True
    assert 0.0 < payload["l2_final"] < payload["h1_final"] * 10
    assert payload["predicted_alpha"] == pytest.approx(0.0125)
    assert payload["fitted_rate"] > 0.0
    with open(payload["csv"], "r", encoding="ascii") as handle:
        header = handle.readline().rstrip("\n")
        assert header == "time,l2,h1semi,lyapunov,control_l2,newton_iters"
        assert len(handle.readlines()) == 11


def test_simulate_defaults_to_chord_newton(tmp_path, capsys):
    # no time.nonlinear: the library default reuses one factorization
    config = write_config(tmp_path, BASE)
    payload = run_json(
        capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)]
    )
    steps = 10
    assert 1 <= payload["factorizations"] < steps
    assert payload["newton_iters"] >= steps
    newton = write_config(
        tmp_path, {**BASE, "time": {**BASE["time"], "nonlinear": "newton"}}, "newton.json"
    )
    payload = run_json(
        capsys, ["simulate", "--config", newton, "--output-dir", str(tmp_path)]
    )
    assert payload["factorizations"] == payload["newton_iters"] >= steps


def test_simulate_reports_linear_solves(tmp_path, capsys):
    # a Newton solve per iteration; Picard refines on one held factorization
    steps = 10
    for solver in ("chord", "newton", "picard"):
        config = write_config(
            tmp_path, {**BASE, "time": {**BASE["time"], "nonlinear": solver}}, f"{solver}.json"
        )
        payload = run_json(
            capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)]
        )
        if solver == "picard":
            assert payload["newton_iters"] == steps
            assert 1 <= payload["factorizations"] < steps <= payload["solves"]
        else:
            assert payload["solves"] == payload["newton_iters"]


def test_simulate_short_run_reports_no_fitted_rate(tmp_path, capsys):
    # six samples are too few to fit a rate; everything else is reported
    config = write_config(tmp_path, {**BASE, "time": {"k": 0.01, "t_end": 0.05}})
    payload = run_json(
        capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)]
    )
    assert payload["fitted_rate"] is None
    assert payload["predicted_alpha"] == pytest.approx(0.0125)
    assert payload["l2_final"] > 0.0
    with open(payload["csv"], "r", encoding="ascii") as handle:
        assert len(handle.readlines()) == 7


def test_simulate_at_the_steady_state_reports_no_fitted_rate(tmp_path, capsys):
    # w0 = 0 is the equilibrium: every norm is zero, which has no logarithm to fit
    config = write_config(tmp_path, {**BASE, "initial": {"w0": "0"}})
    payload = run_json(
        capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)]
    )
    assert payload["fitted_rate"] is None
    assert payload["l2_final"] == 0.0
    assert payload["predicted_alpha"] == pytest.approx(0.0125)
    with open(payload["csv"], "r", encoding="ascii") as handle:
        assert len(handle.readlines()) == 12


def test_simulate_discrete_coefficients_and_elliptic_projection(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            **BASE,
            "steady": {**BASE["steady"], "source": "discrete"},
            "initial": {**BASE["initial"], "projection": "elliptic"},
        },
    )
    payload = run_json(
        capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)]
    )
    assert payload["lyapunov_monotone"] is True
    default = write_config(tmp_path, BASE, "default.json")
    reference = run_json(
        capsys, ["simulate", "--config", default, "--output-dir", str(tmp_path)]
    )
    # the projected start moves the final norm, but not far
    assert payload["l2_final"] != reference["l2_final"]
    assert payload["l2_final"] == pytest.approx(reference["l2_final"], rel=0.1)


def test_simulate_uncontrolled(tmp_path, capsys):
    config = write_config(
        tmp_path, {**BASE, "control": {"active_region": "none"}}
    )
    payload = run_json(
        capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)]
    )
    assert payload["l2_final"] > 0.0
    assert payload["predicted_alpha"] is None  # the bound is the controlled run's
    assert os.path.exists(payload["csv"])


def test_simulate_picard(tmp_path, capsys):
    config = write_config(
        tmp_path, {**BASE, "time": {"k": 0.01, "t_end": 0.1, "nonlinear": "picard"}}
    )
    payload = run_json(
        capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)]
    )
    assert payload["l2_final"] > 0.0


def test_simulate_dirichlet_segment(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            **BASE,
            "domain": {"n": 4, "dirichlet": [[1.0, 0.0], [1.0, 1.0]]},
            "initial": {"w0": "sin(pi*x1)*sin(pi*x2)"},
        },
    )
    payload = run_json(
        capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)]
    )
    assert payload["lyapunov_monotone"] is True


def test_study_rates(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {**BASE, "study": {"levels": [2, 4], "reference": 8, "t_eval": 0.05}},
    )
    payload = run_json(
        capsys, ["study", "--config", config, "--output-dir", str(tmp_path)]
    )
    assert len(payload["l2_rates"]) == 1
    assert len(payload["h1_rates"]) == 1
    assert len(payload["control_rates"]) == 1
    assert os.path.exists(payload["rates_state"])
    assert os.path.exists(payload["rates_control"])


def test_study_builds_one_mesh_and_refines_it(tmp_path, capsys, monkeypatch):
    # the expressions are checked at the reference grid without building its mesh;
    # the study builds the coarsest level and refines it to every other
    built = []

    def counting(n):
        built.append(n)
        return build_unit_square_mesh(n)

    monkeypatch.setattr(cli, "build_unit_square_mesh", counting)
    monkeypatch.setattr(harness, "build_unit_square_mesh", counting)
    study = {"levels": [2, 4], "reference": 8, "t_eval": 0.05}
    config = write_config(tmp_path, {**BASE, "study": study})
    run_json(capsys, ["study", "--config", config, "--output-dir", str(tmp_path)])
    assert built == [2]


def test_examples_dispatch(tmp_path, capsys, monkeypatch):
    calls = []

    class Fake:
        paths = {"marker": "here"}

    monkeypatch.setattr(
        "burgersfb.cli.run_example1", lambda out: calls.append(("1", out)) or Fake()
    )
    monkeypatch.setattr(
        "burgersfb.cli.run_example2", lambda out: calls.append(("2", out)) or Fake()
    )
    payload = run_json(
        capsys, ["examples", "--which", "1", "--output-dir", str(tmp_path)]
    )
    assert payload == {"example1": {"marker": "here"}}
    assert calls == [("1", str(tmp_path))]
    payload = run_json(
        capsys, ["examples", "--which", "all", "--output-dir", str(tmp_path)]
    )
    assert set(payload) == {"example1", "example2"}
    assert calls[1:] == [("1", str(tmp_path)), ("2", str(tmp_path))]


def run_error(capsys, argv):
    """Exit code 2 and the message of the one-line JSON error on stderr."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    return json.loads(err)["error"]


def test_mesh_too_large_names_its_key(tmp_path, capsys, monkeypatch):
    # numpy refuses an array of (10^30 + 1)^2 vertices before allocating anything
    huge = write_config(tmp_path, {**BASE, "domain": {"n": 10**30}})
    message = run_error(capsys, ["simulate", "--config", huge])
    assert message.startswith("config key 'domain.n' is too large to build a mesh")
    assert "Maximum allowed size exceeded" in message and message.endswith(str(10**30))
    # n = 100000 asks for 80 GB of vertices; the probe stands in numpy's MemoryError
    # for the allocation, which it never attempts
    def unallocatable(n):
        raise MemoryError(f"Unable to allocate an array for the {n + 1}^2 grid vertices")

    monkeypatch.setattr("burgersfb.mesh.grid_vertices", unallocatable)
    large = write_config(tmp_path, {**BASE, "domain": {"n": 100000}}, "large.json")
    for command in ("simulate", "steady"):
        message = run_error(capsys, [command, "--config", large])
        assert message == ("config key 'domain.n' is too large to build a mesh (Unable to "
                           "allocate an array for the 100001^2 grid vertices), got 100000")


def test_study_reference_too_large_names_its_key(tmp_path, capsys, monkeypatch):
    # the study checks its expressions on the 1/reference grid; numpy refuses a grid
    # line of 4 10^30 + 1 points before allocating anything
    study = {"levels": [10**30, 2 * 10**30], "reference": 4 * 10**30, "t_eval": 0.05}
    huge = write_config(tmp_path, {**BASE, "study": study})
    message = run_error(capsys, ["study", "--config", huge])
    assert message == ("config key 'study.reference' is too large to build a mesh (Maximum "
                       f"allowed size exceeded), got {4 * 10**30}")
    # reference 100000 asks for 160 GB of grid vertices; the probe stands in numpy's
    # MemoryError for the allocation, which it never attempts
    def unallocatable(n):
        raise MemoryError(f"Unable to allocate an array for the {n + 1}^2 grid vertices")

    monkeypatch.setattr("burgersfb.cli.grid_vertices", unallocatable)
    study = {"levels": [25000, 50000], "reference": 100000, "t_eval": 0.05}
    large = write_config(tmp_path, {**BASE, "study": study}, "large.json")
    message = run_error(capsys, ["study", "--config", large])
    assert message == ("config key 'study.reference' is too large to build a mesh (Unable to "
                       "allocate an array for the 100001^2 grid vertices), got 100000")


@pytest.mark.parametrize(
    "physics, message, step",
    [
        # nu = 1e308 overflows the step matrix to inf: the first step's solution is not finite
        ({"nu": 1e308, "c0": 1.0},
         "SingularMatrixError: step 1 (t = 0.01): solution contains non-finite entries", 1),
        # c0 = 1e308 and nu = 1e-300 overflow the feedback flux of the initial state
        ({"nu": 0.1, "c0": 1e308}, "FloatingPointError: step 0 (t = 0): control_l2 is not finite", 0),
        ({"nu": 1e-300, "c0": 1.0}, "FloatingPointError: step 0 (t = 0): control_l2 is not finite", 0),
    ],
    ids=["nu-1e308", "c0-1e308", "nu-1e-300"],
)
def test_overflow_probes_exit_1_with_one_json_line(tmp_path, capsys, physics, message, step):
    # one JSON line on stderr names the error, its step and its time, exit 1; numpy warns
    # of nothing, and no CSV with an inf in it is written
    config = write_config(tmp_path, {**BASE, "physics": physics,
                                     "time": {"k": 0.01, "t_end": 0.02}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 1
    assert not caught
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err) == {"error": message, "step": step, "time": 0.01 * step}
    assert not (tmp_path / "trajectory.csv").exists()


def test_failed_solve_names_its_step_and_time(tmp_path, capsys, monkeypatch):
    # a Newton iteration that runs out of iterations is reported as the overflow probes
    # above are: one JSON line naming the error, its step and its time, exit 1
    monkeypatch.setattr("burgersfb.evolution._NEWTON_TOL", 1e-300)
    config = write_config(tmp_path, {**BASE, "time": {"k": 0.01, "t_end": 0.02}}, "slow.json")
    assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"].startswith("NonconvergenceError: step 1 (t = 0.01): ")
    assert (error["step"], error["time"]) == (1, 0.01)


@pytest.mark.parametrize("command", ["steady", "simulate"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "config must be a JSON object"),
        (json.dumps({**BASE, "timing": {}}), "unknown config key 'timing'"),
        (json.dumps({**BASE, "time": 5}), "config section 'time' must be an object"),
    ],
    ids=["not-an-object", "unknown-section", "section-not-an-object"],
)
def test_config_file_shape_is_checked(tmp_path, capsys, command, text, message):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(path), "--output-dir", str(tmp_path)]
    assert run_error(capsys, argv) == message


def test_rejects_malformed_configs(tmp_path, capsys):
    missing_w0 = write_config(tmp_path, {**BASE, "initial": {}}, "a.json")
    message = run_error(capsys, ["simulate", "--config", missing_w0])
    assert message == "missing config key 'initial.w0'"
    no_forcing = write_config(tmp_path, {**BASE, "steady": {"mean": -0.1}}, "d.json")
    assert "f_inf" in run_error(capsys, ["steady", "--config", no_forcing])
    typo = write_config(
        tmp_path, {**BASE, "time": {"k": 0.01, "t_end": 0.1, "nonlinar": "picard"}}, "e.json"
    )
    message = run_error(capsys, ["simulate", "--config", typo])
    assert "unknown config key 'time.nonlinar'" in message
    no_physics = write_config(
        tmp_path, {key: value for key, value in BASE.items() if key != "physics"}, "f.json"
    )
    message = run_error(capsys, ["simulate", "--config", no_physics])
    assert "missing config key 'physics.nu'" in message
    not_json = tmp_path / "i.json"
    not_json.write_text("{", encoding="utf-8")
    assert "Expecting" in run_error(capsys, ["simulate", "--config", str(not_json)])
    # numbers are never coerced: bools, strings and non-integral sizes name their key
    study = {"levels": [2, 4], "reference": 8, "t_eval": 0.05}
    segment = [[1, 0], [1, "1"]]
    for command, key, payload in (
        ("simulate", "domain.n", {**BASE, "domain": {"n": 4.7}}),
        ("simulate", "physics.nu", {**BASE, "physics": {"nu": True, "c0": 1.0}}),
        ("simulate", "physics.c0", {**BASE, "physics": {"nu": 0.1, "c0": float("inf")}}),
        ("simulate", "time.k", {**BASE, "time": {"k": "abc", "t_end": 0.1}}),
        ("simulate", "domain.dirichlet", {**BASE, "domain": {"n": 4, "dirichlet": segment}}),
        ("simulate", "time.t_end", {**BASE, "time": {"k": 0.01, "t_end": None}}),
        ("steady", "steady.mean", {**BASE, "steady": {**BASE["steady"], "mean": None}}),
        ("study", "study.levels", {**BASE, "study": {**study, "levels": [2, 4.5]}}),
        ("study", "study.reference", {**BASE, "study": {**study, "reference": 8.5}}),
        ("study", "study.t_eval", {**BASE, "study": {**study, "t_eval": False}}),
    ):
        path = write_config(tmp_path, payload, f"{key}.json")
        assert f"config key '{key}' must be" in run_error(capsys, [command, "--config", path])
    not_a_list = write_config(tmp_path, {**BASE, "study": {**study, "levels": 4}}, "k.json")
    assert "'study.levels' must be a list" in run_error(capsys, ["study", "--config", not_a_list])
    # every closed-form value is a string that parses to a finite scalar expression
    for i, (key, text) in enumerate(
        [("steady.u_inf", [1, 2]), ("steady.u_inf", "x3"), ("initial.w0", "sin(")]
        + [("steady.f_inf", t) for t in ("sin(x1, x2)", "x1 == 1", "True", "1/0", "zoo*x1")]
        + [("initial.w0", "I*x1"), ("steady.u_inf", "sqrt(-1) + x2")]
    ):
        section, name = key.split(".")
        body = {"mean": -0.1} if name == "f_inf" else dict(BASE[section])
        payload = {**BASE, section: {**body, name: text}}
        path = write_config(tmp_path, payload, f"expression{i}.json")
        for command in ("simulate", "steady") if section == "steady" else ("simulate",):
            assert f"config key '{key}'" in run_error(capsys, [command, "--config", path])
    # an expression that is not finite at a mesh vertex names its key, and
    # evaluating it there lets no warning escape
    for i, (key, text) in enumerate(
        [("initial.w0", "sqrt(x1 - 2)"), ("steady.u_inf", "log(x2)")]
        + [("steady.f_inf", "1/(x1 - 0.5)")]
    ):
        section, name = key.split(".")
        body = {"mean": -0.1} if name == "f_inf" else dict(BASE[section])
        payload = {**BASE, "study": study, section: {**body, name: text}}
        path = write_config(tmp_path, payload, f"nonfinite{i}.json")
        commands = ("simulate", "study") + (("steady",) if section == "steady" else ())
        for command in commands:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                message = run_error(capsys, [command, "--config", path])
            assert not caught
            assert message.startswith(f"config key '{key}'") and "not finite" in message
    # a Dirichlet region is one segment or a non-empty list of segments
    shapes = (5, [5], [], [[]], [[0, 0]], [[1, 0], [1, 1], [0, 1]], [[[1, 0]]])
    for i, region in enumerate(shapes):
        payload = {**BASE, "domain": {"n": 4, "dirichlet": region}}
        path = write_config(tmp_path, payload, f"region{i}.json")
        message = run_error(capsys, ["simulate", "--config", path])
        assert "config key 'domain.dirichlet' must be" in message
    # a well-shaped segment that is not axis-aligned, or that misses every boundary edge
    for i, region in enumerate(([[1, 0], [0.5, 0.5]], [[2, 0], [2, 1]])):
        payload = {**BASE, "domain": {"n": 4, "dirichlet": region}}
        path = write_config(tmp_path, payload, f"edge{i}.json")
        for command in ("simulate", "steady"):
            assert "config key 'domain.dirichlet'" in run_error(capsys, [command, "--config", path])


@pytest.mark.parametrize(
    "key, value",
    [
        ("time.nonlinear", "chrod"),
        ("time.nonlinear", ["chord"]),
        ("control.active_region", "everywhere"),
        ("steady.source", "discrte"),
        ("initial.projection", "l2"),
    ],
)
def test_enumerated_keys_name_their_key(tmp_path, capsys, key, value):
    section, name = key.split(".")
    config = write_config(tmp_path, {**BASE, section: {**BASE.get(section, {}), name: value}})
    message = run_error(capsys, ["simulate", "--config", config])
    assert message.startswith(f"config key '{key}' must be one of ")
    assert message.endswith(f"got {json.dumps(value)}")


NONPOSITIVE = [
    ("domain.n", 0, ("simulate", "steady")),
    ("physics.nu", -0.1, ("simulate", "steady", "study")),
    ("physics.c0", 0, ("simulate", "study")),
    ("time.k", 0, ("simulate", "study")),
    ("time.t_end", -0.1, ("simulate",)),
    ("study.levels", [2, 0], ("study",)),
    ("study.reference", -8, ("study",)),
    ("study.t_eval", 0.0, ("study",)),
]


@pytest.mark.parametrize("key, value, commands", NONPOSITIVE, ids=[c[0] for c in NONPOSITIVE])
def test_nonpositive_numbers_name_their_key(tmp_path, capsys, key, value, commands):
    # sizes, physical constants and times must be positive; steady.mean and the
    # domain.dirichlet coordinates may take any sign (the other tests use -0.1 and 0)
    section, name = key.split(".")
    study = {"levels": [2, 4], "reference": 8, "t_eval": 0.05}
    payload = {**BASE, "study": study}
    config = write_config(tmp_path, {**payload, section: {**payload[section], name: value}})
    bad = value[-1] if isinstance(value, list) else value
    for command in commands:
        message = run_error(capsys, [command, "--config", config])
        assert message == f"config key '{key}' must be positive, got {json.dumps(bad)}"


@pytest.mark.parametrize(
    "section, message",
    [
        ({"steady": {"mode": "solve", "f_inf": "0.04*x1"}}, "unknown config key 'steady.mode'"),
        ({"control": {"c0": 5.0}}, "unknown config key 'control.c0'"),
        (
            {"steady": {"u_inf": "-0.2*x1", "f_inf": "this is not parsed"}},
            "config needs exactly one of 'steady.u_inf' and 'steady.f_inf'",
        ),
    ],
    ids=["steady.mode", "control.c0", "u_inf and f_inf"],
)
def test_steady_state_and_gain_each_have_one_key(tmp_path, capsys, section, message):
    config = write_config(tmp_path, {**BASE, **section})
    for command in ("steady", "simulate"):
        assert message in run_error(capsys, [command, "--config", config])


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("time", "nonlinear", "picard"),
        ("time", "nonlinear", "chord"),
        ("control", "active_region", "none"),
        ("control", "active_region", "neumann"),
    ],
)
def test_study_rejects_keys_it_cannot_honour(tmp_path, capsys, section, key, value):
    # a study runs every level controlled with the default solver; the keys it
    # shares with simulate (domain.n, time.t_end) stay accepted, as test_study_rates runs them
    study = {"levels": [2, 4], "reference": 8, "t_eval": 0.05}
    payload = {**BASE, "study": study, section: {**BASE.get(section, {}), key: value}}
    config = write_config(tmp_path, payload)
    message = run_error(capsys, ["study", "--config", config, "--output-dir", str(tmp_path)])
    assert message.startswith(f"config key '{section}.{key}' is not read by study")
    assert not os.path.exists(tmp_path / "rates_state.csv")


@pytest.mark.parametrize("command", ["simulate", "study"])
def test_forcing_with_analytic_coefficients_names_both_keys(tmp_path, capsys, command):
    study = {"levels": [2, 4], "reference": 8, "t_eval": 0.05}
    config = write_config(tmp_path, {**BASE, "study": study, "steady": {"f_inf": "0.04*x1"}})
    message = run_error(capsys, [command, "--config", config])
    assert message.startswith("config key 'steady.source'")
    assert "'steady.f_inf'" in message
    # with discrete coefficients the same steady section runs
    discrete = {"f_inf": "0.04*x1", "mean": -0.1, "source": "discrete"}
    config = write_config(tmp_path, {**BASE, "steady": discrete}, "discrete.json")
    payload = run_json(capsys, ["simulate", "--config", config, "--output-dir", str(tmp_path)])
    assert payload["l2_final"] > 0.0


def readme_config_table():
    """Section -> keys of the README's config table (parenthesized notes dropped)."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if row is None:
            continue
        depth, outside = 0, ""
        for char in row.group(2):
            depth += (char == "(") - (char == ")")
            if depth == 0 and char != ")":
                outside += char
        table[row.group(1)] = set(re.findall(r"`(\w+)`", outside))
    return table


@pytest.mark.parametrize(
    "text, key",
    [
        ('"time": {"k": 0.01, "t_end": 0.05, "k": 0.025}', "time.k"),
        ('"time": {"k": 0.01, "t_end": 0.05}, "time": {"k": 0.025, "t_end": 0.05}', "time"),
    ],
    ids=["key", "section"],
)
def test_repeated_config_key_is_rejected(tmp_path, capsys, text, key):
    # json.load keeps the last of a repeated key, which would silently win
    base = json.dumps({name: BASE[name] for name in BASE if name != "time"})
    path = tmp_path / "config.json"
    path.write_text(base[:-1] + ", " + text + "}", encoding="utf-8")
    message = run_error(capsys, ["simulate", "--config", str(path), "--output-dir", str(tmp_path)])
    assert message == f"duplicate config key '{key}'"
    assert not os.path.exists(tmp_path / "trajectory.csv")


STEP_AND_LEVEL = [
    ("simulate", {"time": {"k": 1.5, "t_end": 3.0}}, "time.k"),
    ("simulate", {"time": {"k": 0.03, "t_end": 0.1}}, "time.t_end"),
    ("study", {"time": {"k": 0.03}, "study": {"levels": [2, 4], "reference": 8, "t_eval": 0.1}},
     "study.t_eval"),
    ("study", {"time": {"k": 0.01}, "study": {"levels": [3, 4], "reference": 8, "t_eval": 0.05}},
     "study.levels"),
]


@pytest.mark.parametrize(
    "command, sections, key", STEP_AND_LEVEL, ids=[case[2] for case in STEP_AND_LEVEL]
)
def test_step_and_level_rejections_name_their_key(tmp_path, capsys, command, sections, key):
    # the library's own checks would reject these too, without the key
    config = write_config(tmp_path, {**BASE, **sections})
    message = run_error(capsys, [command, "--config", config, "--output-dir", str(tmp_path)])
    assert message.startswith(f"config key '{key}' must ")


class Accepted(Exception):
    """Raised in place of a run, once the CLI has accepted the config."""


def test_step_and_level_checks_accept_what_the_library_accepts(tmp_path, capsys, monkeypatch):
    # time.t_end and study.t_eval are whole multiples of time.k to the 1e-9
    # tolerance of EvolutionConfig and StudyConfig, and levels nest by doubling from the
    # coarsest; those objects own the rules, so the CLI accepts what they accept
    def accepted(*args):
        raise Accepted

    monkeypatch.setattr(cli, "run", accepted)
    monkeypatch.setattr(cli, "Study", accepted)

    def cli_accepts(command, sections, key):
        """Whether ``command`` runs BASE with ``sections``; a rejection names ``key``."""
        config = write_config(tmp_path, {**BASE, **sections})
        try:
            message = run_error(capsys, [command, "--config", config, "--output-dir", str(tmp_path)])
        except Accepted:
            return True
        assert message.startswith(f"config key '{key}")
        return False

    def library_accepts(build):
        try:
            build()
        except ConfigError:
            return False
        return True

    for k, time in ((0.1, 0.3), (0.1, 0.7 + 5e-10), (0.1, 0.7 + 2e-9), (0.03, 0.1),
                    (0.1, 0.1 - 1e-12), (0.25, 0.25), (0.5, 1.0), (0.999, 1.998)):
        evolution = library_accepts(lambda: EvolutionConfig(nu=0.1, k=k, t_end=time))
        study = library_accepts(lambda: StudyConfig(example1_problem(), (1, 2), 4, k, time))
        assert evolution == study == cli_accepts(
            "simulate", {"time": {"k": k, "t_end": time}}, "time.t_end"
        )
        sections = {"time": {"k": k}, "study": {"levels": [2, 4], "reference": 8, "t_eval": time}}
        assert study == cli_accepts("study", sections, "study.t_eval")
    for levels, reference in (([2, 4], 8), ([3, 12], 24), ([3, 4], 8), ([3, 6], 8), ([1], 32),
                              ([5], 15), ([2, 8], 32), ([4, 2], 8), ([2, 8], 8)):
        study = library_accepts(
            lambda: StudyConfig(example1_problem(), tuple(levels), reference, 0.5, 1.0)
        )
        sections = {"time": {"k": 0.5}, "study": {"levels": levels, "reference": reference}}
        assert study == cli_accepts("study", sections, "study.")


def test_every_library_config_field_has_a_key():
    # main() words a ConfigError by _FIELD_KEYS[field]: a field missing there would
    # end in a KeyError, so every field a library object raises must map to a key
    fields = {InvalidRegionError("", None).field}
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            raiser = getattr(getattr(node, "func", None), "id", None)
            if raiser in ("ConfigError", "_one_of", "_check_steps") and node.args:
                if isinstance(node.args[0], ast.Constant):
                    fields.add(node.args[0].value)
    assert {"k", "t_end", "t_eval", "levels", "reference_level", "nonlinear"} <= fields
    assert set(_FIELD_KEYS) == fields
    for field in fields:
        section, name = _FIELD_KEYS[field].split(".")
        assert name in _CONFIG_KEYS[section], field


def test_readme_config_table_matches_allow_list():
    table = readme_config_table()
    assert set(table) == set(_CONFIG_KEYS)
    for section, keys in _CONFIG_KEYS.items():
        assert table[section] == keys, section


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])

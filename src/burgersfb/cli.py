"""Command line front end.

Subcommands: ``steady`` (discrete steady solve plus smallness report),
``simulate`` (one trajectory), ``study`` (convergence tables), and
``examples`` (the two packaged experiments).  Problem data comes from a
JSON config; closed-form expressions use ``x1`` and ``x2``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .assembly import FeField, interpolate, l2_norm
from .evolution import (
    _MIN_FIT_SAMPLES,
    _SOLVERS,
    _g,
    _write_csv,
    decay_rate_bound,
    fit_decay_rate,
    run,
)
from .harness import (
    _PROJECTIONS,
    _SOURCES,
    ProblemConfig,
    Study,
    StudyConfig,
    _evolution,
    _initial_field,
    _steady_field,
    _write_rates,
    run_example1,
    run_example2,
)
from .mesh import InvalidRegionError, build_unit_square_mesh, tag_boundary
from .steady import (
    SteadySpec,
    analytic_from_expression,
    manufactured_solve_spec,
    smallness_report,
    solve_steady,
)

__all__ = ["main"]

# Every key a config may hold, by section (the README's config table).
_CONFIG_KEYS = {
    "domain": {"n", "dirichlet"},
    "physics": {"nu", "c0"},
    "steady": {"u_inf", "f_inf", "mean", "source"},
    "control": {"active_region"},
    "initial": {"w0", "projection"},
    "time": {"k", "t_end", "nonlinear"},
    "study": {"levels", "reference", "t_eval"},
    "output": {"dir"},
}


def _load_config(path: str) -> dict:
    """Read a JSON config and reject any section or key it does not know."""
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    for section, body in config.items():
        if section not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {section!r}")
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key in body:
            if key not in _CONFIG_KEYS[section]:
                raise ValueError(f"unknown config key '{section}.{key}'")
    return config


def _require(config: dict, key: str, default=None):
    """The value at the dotted ``key``, or ``default``; absent with no default is an error."""
    section, name = key.split(".")
    body = config.get(section, {})
    if name not in body and default is None:
        raise ValueError(f"missing config key '{key}'")
    return body.get(name, default)


def _number(value, key: str, integer: bool = False):
    """Every numeric config value is read here, as a float (an int with ``integer``)."""
    bad = isinstance(value, bool) or not isinstance(value, (int, float))
    if bad or not abs(value) <= sys.float_info.max or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"config key '{key}' must be {kind}, got {json.dumps(value)}")
    return int(value) if integer else float(value)


def _choice(value, key: str, choices: tuple):
    """Every enumerated config value is read here; it must be one of ``choices``."""
    if value not in choices:
        options = ", ".join(json.dumps(choice) for choice in choices)
        raise ValueError(f"config key '{key}' must be one of {options}, got {json.dumps(value)}")
    return value


def _expression(value, key: str, mesh):
    """Every closed-form config value is read here, as an ``AnalyticFunction``; its value
    must be finite at every vertex of ``mesh``."""
    if not isinstance(value, str):
        raise ValueError(f"config key '{key}' must be a string, got {json.dumps(value)}")
    try:
        function = analytic_from_expression(value)
        with np.errstate(all="ignore"):
            finite = np.all(np.isfinite(function.value(*mesh.vertices.T)))
        if not finite:
            raise ValueError(f"expression {value!r} is not finite at every mesh vertex")
    except ValueError as exc:
        raise ValueError(f"config key '{key}': {exc}") from None
    return function


def _dirichlet_region(raw):
    """A segment, two points of two numbers, or a non-empty list of segments."""
    if raw is None:
        return None
    first = raw[0] if isinstance(raw, list) and raw else None
    nested = isinstance(first, list) and first and isinstance(first[0], list)
    segments = raw if nested else [raw]
    for seg in segments:
        if not (isinstance(seg, list) and len(seg) == 2
                and all(isinstance(point, list) and len(point) == 2 for point in seg)):
            raise ValueError(
                "config key 'domain.dirichlet' must be a segment [[x0, y0], [x1, y1]] "
                f"or a non-empty list of segments, got {json.dumps(raw)}"
            )
    return [tuple(tuple(_number(c, "domain.dirichlet") for c in point) for point in seg)
            for seg in segments]


def _build_mesh(config: dict):
    domain = config.get("domain", {})
    n = _number(_require(config, "domain.n", 16), "domain.n", integer=True)
    return tag_boundary(build_unit_square_mesh(n), _dirichlet_region(domain.get("dirichlet")))


def _steady_spec(config: dict, mesh) -> SteadySpec:
    nu = _number(_require(config, "physics.nu"), "physics.nu")
    section = config.get("steady", {})
    mean = _number(section.get("mean", 0.0), "steady.mean")
    # a closed-form state is manufactured; a closed-form forcing is solved for
    if ("u_inf" in section) == ("f_inf" in section):
        raise ValueError("config needs exactly one of 'steady.u_inf' and 'steady.f_inf'")
    if "u_inf" in section:
        return SteadySpec(
            nu=nu,
            mean_value=mean,
            u_steady=_expression(section["u_inf"], "steady.u_inf", mesh),
        )
    return SteadySpec(
        nu=nu,
        mean_value=mean,
        forcing=_expression(section["f_inf"], "steady.f_inf", mesh).value,
    )


def _controlled(config: dict) -> bool:
    region = config.get("control", {}).get("active_region", "neumann")
    return _choice(region, "control.active_region", ("neumann", "none")) == "neumann"


def _problem(config: dict, mesh) -> ProblemConfig:
    """The problem of ``config``; its expressions are checked at ``mesh``'s vertices."""
    nu = _number(_require(config, "physics.nu"), "physics.nu")
    initial = config.get("initial", {})
    domain = config.get("domain", {})
    if "w0" not in initial:
        raise ValueError("initial section needs a 'w0' expression")
    spec = _steady_spec(config, mesh)
    source = _choice(config.get("steady", {}).get("source", "analytic"), "steady.source", _SOURCES)
    if source == "analytic" and spec.u_steady is None:
        raise ValueError(
            "config key 'steady.source' is \"analytic\" (the default), which needs "
            "'steady.u_inf'; with 'steady.f_inf' set it to \"discrete\""
        )
    return ProblemConfig(
        nu=nu,
        c0=_number(_require(config, "physics.c0", 1.0), "physics.c0"),
        steady=spec,
        w0=_expression(initial["w0"], "initial.w0", mesh),
        dirichlet_region=_dirichlet_region(domain.get("dirichlet")),
        coefficient_source=source,
        initial_projection=_choice(
            initial.get("projection", "interpolate"), "initial.projection", _PROJECTIONS
        ),
    )


def _output_dir(config: dict, override) -> str:
    path = override or config.get("output", {}).get("dir", ".")
    os.makedirs(path, exist_ok=True)
    return path


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_steady(args) -> int:
    config = _load_config(args.config)
    mesh = _build_mesh(config)
    spec = _steady_spec(config, mesh)
    nu = spec.nu
    if spec.u_steady is not None:
        solve_spec = manufactured_solve_spec(spec.u_steady, nu, spec.mean_value)
    else:
        solve_spec = spec
    solution, history = solve_steady(mesh, solve_spec, full_output=True)
    payload = {
        "n": int(round(1.0 / mesh.h)),
        "newton_iterations": len(history) - 1,
        "residual_norm": history[-1],
    }
    if spec.u_steady is not None:
        exact = interpolate(spec.u_steady.value, mesh)
        payload["interpolant_gap_l2"] = l2_norm(
            FeField(mesh, solution.values - exact.values)
        )
    report = smallness_report(mesh, solution, solve_spec.forcing, nu)
    payload["smallness"] = {
        "grad_norm": report.grad_norm,
        "convection_constant": report.convection_constant,
        "bound": report.smallness_bound,
        "bound_loose": report.smallness_bound_loose,
        "satisfied": report.satisfied,
        "laplacian_norm": report.laplacian_norm,
        "forcing_l2": report.forcing_l2,
    }
    out = _output_dir(config, args.output_dir)
    path = os.path.join(out, "steady.csv")
    x, y = mesh.vertices.T
    _write_csv(path, "x,y,u", zip(map(_g, x), map(_g, y), map(_g, solution.values)))
    payload["csv"] = path
    _emit(payload)
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    mesh = _build_mesh(config)
    problem = _problem(config, mesh)
    t_end = _number(_require(config, "time.t_end"), "time.t_end")
    evolution = _evolution(problem, _number(_require(config, "time.k"), "time.k"), t_end)
    # EvolutionConfig owns the default solver
    if "nonlinear" in config["time"]:
        nonlinear = _choice(config["time"]["nonlinear"], "time.nonlinear", _SOLVERS)
        evolution = replace(evolution, nonlinear=nonlinear)
    if not _controlled(config):
        evolution = replace(evolution, control=None)
    u_steady = _steady_field(mesh, problem)
    record = run(_initial_field(mesh, problem), evolution, mesh, u_steady)
    out = _output_dir(config, args.output_dir)
    path = os.path.join(out, "trajectory.csv")
    record.to_csv(path)
    # a run too short to fit a rate, or one resting at the steady state (a zero
    # norm has no logarithm), still reports everything else
    fitted = alpha = None
    if record.times.shape[0] >= _MIN_FIT_SAMPLES and np.all(record.l2 > 0.0):
        fitted = fit_decay_rate(record, window=(0.0, t_end)).fitted_rate
    if record.c0 is not None:
        alpha = decay_rate_bound(record.nu, record.c0, record.friedrichs)
    payload = {
        "csv": path,
        "l2_final": float(record.l2[-1]),
        "h1_final": float(record.h1_semi[-1]),
        "lyapunov_monotone": bool(np.all(np.diff(record.lyapunov) <= 1e-12)),
        "fitted_rate": fitted,
        "predicted_alpha": alpha,
        "newton_iters": int(record.newton_iters.sum()),
        "factorizations": record.factorizations,
    }
    _emit(payload)
    return 0


# keys a study cannot honour: every level runs controlled, with the default solver
_NOT_IN_STUDY = ("time.nonlinear", "control.active_region")


def _cmd_study(args) -> int:
    config = _load_config(args.config)
    for key in _NOT_IN_STUDY:
        section, name = key.split(".")
        if name in config.get(section, {}):
            raise ValueError(
                f"config key '{key}' is not read by study, which runs every level "
                "controlled with the default solver"
            )
    levels = _require(config, "study.levels")
    if not isinstance(levels, list):
        raise ValueError("config key 'study.levels' must be a list of integers")
    reference = _number(_require(config, "study.reference"), "study.reference", True)
    # the reference level's vertices hold those of every nested level
    problem = _problem(config, build_unit_square_mesh(reference))
    study = Study(
        StudyConfig(
            problem=problem,
            levels=tuple(_number(n, "study.levels", integer=True) for n in levels),
            reference_level=reference,
            k=_number(_require(config, "time.k"), "time.k"),
            t_eval=_number(_require(config, "study.t_eval", 1.0), "study.t_eval"),
        )
    )
    table = study.rate_table()
    _emit(
        {
            **_write_rates(table, _output_dir(config, args.output_dir)),
            "l2_rates": [float(r) for r in table.l2_rates],
            "h1_rates": [float(r) for r in table.h1_rates],
            "control_rates": [float(r) for r in table.control_rates],
        }
    )
    return 0


def _cmd_examples(args) -> int:
    out = args.output_dir or "."
    payload = {}
    if args.which in ("1", "all"):
        result = run_example1(out)
        payload["example1"] = result.paths
    if args.which in ("2", "all"):
        result = run_example2(out)
        payload["example2"] = result.paths
    _emit(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burgersfb",
        description="Boundary-feedback stabilization of the 2D viscous Burgers equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    steady = sub.add_parser("steady", help="solve the steady problem and report")
    steady.add_argument("--config", required=True)
    steady.add_argument("--output-dir", default=None)
    steady.set_defaults(func=_cmd_steady)

    simulate = sub.add_parser("simulate", help="integrate one trajectory")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--output-dir", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    study = sub.add_parser("study", help="convergence study with rate tables")
    study.add_argument("--config", required=True)
    study.add_argument("--output-dir", default=None)
    study.set_defaults(func=_cmd_study)

    examples = sub.add_parser("examples", help="run the packaged experiments")
    examples.add_argument("--which", choices=("1", "2", "all"), default="all")
    examples.add_argument("--output-dir", default=None)
    examples.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad config exits with 2 and a one-line JSON error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes json.JSONDecodeError
        # only the Dirichlet region reaches tag_boundary, which raises InvalidRegionError
        key = "config key 'domain.dirichlet': " if isinstance(exc, InvalidRegionError) else ""
        sys.stderr.write(json.dumps({"error": key + str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

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
from dataclasses import asdict, replace

import numpy as np

from .assembly import FeField, interpolate, l2_norm
from .evolution import decay_rate_bound, fit_decay_rate, run, write_csv
from .harness import ProblemConfig, Study, StudyConfig, run_example1, run_example2
from .mesh import (
    ConfigError, build_unit_square_mesh, friedrichs_constant, grid_vertices, tag_boundary,
)
from .sparse import NonconvergenceError, SingularMatrixError
from .steady import SteadySpec, analytic_from_expression, smallness_report, solve_steady

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

# The config key of each field a library object's ConfigError names (main words it)
_FIELD_KEYS = {
    "n": "domain.n", "nu": "physics.nu", "c0": "physics.c0", "k": "time.k", "t_end": "time.t_end",
    "nonlinear": "time.nonlinear", "levels": "study.levels", "reference_level": "study.reference",
    "t_eval": "study.t_eval", "coefficient_source": "steady.source", "mean_value": "steady.mean",
    "initial_projection": "initial.projection", "dirichlet_region": "domain.dirichlet",
}


class _Object(dict):
    """A JSON object; ``repeated`` lists the keys it holds more than once, in order."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.repeated = [key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i])]


def _load_config(path: str) -> dict:
    """Read a JSON config and reject any section or key it does not know or repeats."""
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle, object_pairs_hook=_Object)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    if config.repeated:
        raise ValueError(f"duplicate config key {config.repeated[0]!r}")
    for section, body in config.items():
        if section not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {section!r}")
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be an object")
        if body.repeated:
            raise ValueError(f"duplicate config key '{section}.{body.repeated[0]}'")
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


def _number(value, key: str, integer: bool = False, signed: bool = False):
    """Every numeric config value is read here, as a float (an int with ``integer``);
    it must be positive unless ``signed``."""
    bad = isinstance(value, bool) or not isinstance(value, (int, float))
    if bad or not abs(value) <= sys.float_info.max or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"config key '{key}' must be {kind}, got {json.dumps(value)}")
    if not (signed or value > 0):
        raise ValueError(f"config key '{key}' must be positive, got {json.dumps(value)}")
    return int(value) if integer else float(value)


def _expression(value, key: str, vertices):
    """Every closed-form config value is read here, as an ``AnalyticFunction``; its value
    must be finite at each of the (nv, 2) ``vertices``."""
    if not isinstance(value, str):
        raise ValueError(f"config key '{key}' must be a string, got {json.dumps(value)}")
    try:
        function = analytic_from_expression(value)
        with np.errstate(all="ignore"):
            finite = np.all(np.isfinite(function.value(*vertices.T)))
        if not finite:
            raise ValueError(f"expression {value!r} is not finite at every mesh vertex")
    except ValueError as exc:
        raise ValueError(f"config key '{key}': {exc}") from None
    return function


def _build_mesh(config: dict):
    domain = config.get("domain", {})
    n = _number(_require(config, "domain.n", 16), "domain.n", integer=True)
    try:
        mesh = build_unit_square_mesh(n)
    except (MemoryError, ValueError) as exc:  # numpy's array size limit or allocation failure
        raise ConfigError("n", f"is too large to build a mesh ({exc})", n) from None
    return tag_boundary(mesh, domain.get("dirichlet"))


def _steady_spec(config: dict, vertices) -> SteadySpec:
    nu = _number(_require(config, "physics.nu"), "physics.nu")
    section = config.get("steady", {})
    mean = _number(section.get("mean", 0.0), "steady.mean", signed=True)
    # both are solved for: a closed-form state as its manufactured problem
    if ("u_inf" in section) == ("f_inf" in section):
        raise ValueError("config needs exactly one of 'steady.u_inf' and 'steady.f_inf'")
    if "u_inf" in section:
        state = {"u_steady": _expression(section["u_inf"], "steady.u_inf", vertices)}
    else:
        state = {"forcing": _expression(section["f_inf"], "steady.f_inf", vertices).value}
    return SteadySpec(nu=nu, mean_value=mean, **state)


def _controlled(config: dict) -> bool:
    region = config.get("control", {}).get("active_region", "neumann")
    if region not in ("neumann", "none"):
        raise ValueError("config key 'control.active_region' must be one of \"neumann\", "
                         f"\"none\", got {json.dumps(region)}")
    return region == "neumann"


def _problem(config: dict, vertices) -> ProblemConfig:
    """The problem of ``config``; its expressions are checked at ``vertices``."""
    spec = _steady_spec(config, vertices)
    w0 = _require(config, "initial.w0")
    source = config.get("steady", {}).get("source", "analytic")
    if source == "analytic" and spec.u_steady is None:
        raise ValueError(
            "config key 'steady.source' is \"analytic\" (the default), which needs "
            "'steady.u_inf'; with 'steady.f_inf' set it to \"discrete\""
        )
    return ProblemConfig(
        nu=spec.nu,
        c0=_number(_require(config, "physics.c0", 1.0), "physics.c0"),
        steady=spec,
        w0=_expression(w0, "initial.w0", vertices),
        dirichlet_region=config.get("domain", {}).get("dirichlet"),
        coefficient_source=source,
        initial_projection=config["initial"].get("projection", "interpolate"),
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
    spec = _steady_spec(config, mesh.vertices)
    solution, history = solve_steady(mesh, spec, full_output=True)
    payload = {
        "n": int(_require(config, "domain.n", 16)),  # checked by _build_mesh
        "newton_iterations": len(history) - 1,
        "residual_norm": history[-1],
    }
    if spec.u_steady is not None:
        exact = interpolate(spec.u_steady.value, mesh)
        payload["interpolant_gap_l2"] = l2_norm(
            FeField(mesh, solution.values - exact.values)
        )
    payload["smallness"] = asdict(smallness_report(solution, spec))
    out = _output_dir(config, args.output_dir)
    path = os.path.join(out, "steady.csv")
    write_csv(path, "x,y,u", (*mesh.vertices.T, solution.values))
    payload["csv"] = path
    _emit(payload)
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    mesh = _build_mesh(config)
    problem = _problem(config, mesh.vertices)
    k = _number(_require(config, "time.k"), "time.k")
    t_end = _number(_require(config, "time.t_end"), "time.t_end")
    evolution = problem.dynamics(k, t_end)
    # EvolutionConfig owns the default solver
    if "nonlinear" in config["time"]:
        evolution = replace(evolution, nonlinear=config["time"]["nonlinear"])
    if not _controlled(config):
        evolution = replace(evolution, control=None)
    u_steady = problem.steady_field(mesh)
    record = run(problem.initial_field(mesh), evolution, mesh, u_steady)
    out = _output_dir(config, args.output_dir)
    path = os.path.join(out, "trajectory.csv")
    record.to_csv(path)
    # a run too short to fit a rate, or one resting at the steady state (a zero
    # norm has no logarithm), still reports everything else
    fitted = alpha = None
    try:
        fitted = fit_decay_rate(record, window=(0.0, t_end))
    except ValueError:
        pass
    if evolution.control is not None:
        alpha = decay_rate_bound(problem.nu, problem.c0, friedrichs_constant(mesh))
    payload = {
        "csv": path,
        "l2_final": float(record.l2[-1]),
        "h1_final": float(record.h1_semi[-1]),
        "lyapunov_monotone": bool(np.all(np.diff(record.lyapunov) <= 1e-12)),
        "fitted_rate": fitted,
        "predicted_alpha": alpha,
        "newton_iters": int(record.newton_iters.sum()),
        "factorizations": record.factorizations,
        "solves": record.solves,
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
        raise ValueError(f"config key 'study.levels' must be a list of n, got {json.dumps(levels)}")
    levels = tuple(_number(n, "study.levels", integer=True) for n in levels)
    reference = _number(_require(config, "study.reference"), "study.reference", integer=True)
    k = _number(_require(config, "time.k"), "time.k")
    t_eval = _number(_require(config, "study.t_eval", 1.0), "study.t_eval")
    # the 1/reference grid holds every level's vertices; the study builds its meshes
    # from the problem, whose expressions are checked first
    try:
        vertices = grid_vertices(reference)
    except (MemoryError, ValueError) as exc:  # as for domain.n in _build_mesh
        too_large = f"is too large to build a mesh ({exc})"
        raise ConfigError("reference_level", too_large, reference) from None
    problem = _problem(config, vertices)
    study = Study(StudyConfig(problem, levels, reference, k, t_eval))
    table = study.rate_table()
    _emit(
        {
            **table.write(_output_dir(config, args.output_dir)),
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
        payload["example1"] = run_example1(out).paths
    if args.which in ("2", "all"):
        payload["example2"] = run_example2(out).paths
    _emit(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burgersfb",
        description="Boundary-feedback stabilization of the 2D viscous Burgers equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, summary in (
        ("steady", _cmd_steady, "solve the steady problem and report"),
        ("simulate", _cmd_simulate, "integrate one trajectory"),
        ("study", _cmd_study, "convergence study with rate tables"),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument("--config", required=True)
        command.add_argument("--output-dir", default=None)
        command.set_defaults(func=func)

    examples = sub.add_parser("examples", help="run the packaged experiments")
    examples.add_argument("--which", choices=("1", "2", "all"), default="all")
    examples.add_argument("--output-dir", default=None)
    examples.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad config exits 2, a failed solve 1, with one JSON line."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite result is reported below, not warned of
            return args.func(args)
    except ValueError as exc:  # includes json.JSONDecodeError
        message = str(exc)
        if isinstance(exc, ConfigError):  # a value rule of the library, named by its key
            key = _FIELD_KEYS[exc.field]
            message = f"config key '{key}' {exc.requirement}, got {json.dumps(exc.value)}"
        sys.stderr.write(json.dumps({"error": message}) + "\n")
        return 2
    except (NonconvergenceError, SingularMatrixError, FloatingPointError) as exc:
        # step and time are None outside run(); a FloatingPointError comes from run() alone
        error = {"error": f"{type(exc).__name__}: {exc}", "step": exc.step, "time": exc.time}
        sys.stderr.write(json.dumps(error) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

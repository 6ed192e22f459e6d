"""The package namespace the benchmark and the README rely on."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np

import burgersfb


def test_package_exposes_submodules_and_runs_readme_example():
    for name in ("assembly", "control", "evolution", "harness", "mesh", "steady"):
        assert hasattr(burgersfb, name), name

    # The README "Library" snippet at n = 4, k = 0.01, t_end = 0.1.
    from burgersfb import (
        ControlParams, EvolutionConfig, build_unit_square_mesh,
        interpolate, run, fit_decay_rate,
    )

    mesh = build_unit_square_mesh(4)
    u_inf = interpolate(lambda x, y: -0.2 * x, mesh)
    w0 = interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) + 0.2 * x, mesh)
    cfg = EvolutionConfig(nu=0.1, k=0.01, t_end=0.1,
                          control=ControlParams(nu=0.1, c0=1.0))
    record = run(w0, cfg, mesh, u_inf)
    rate = fit_decay_rate(record, window=(0.0, 0.1)).fitted_rate
    assert 0.0 < record.l2[-1] < record.l2[0]
    assert rate > 0.0


def test_every_listed_name_exists_and_test_oracles_are_not_listed():
    for info in pkgutil.iter_modules(burgersfb.__path__):
        module = importlib.import_module(f"burgersfb.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"
    assert "manufactured_solve_spec" in burgersfb.steady.__all__
    # reference code the tests compare against lives in tests/oracles.py
    for module, name in (
        (burgersfb.assembly, "apply_dirichlet"),
        (burgersfb.assembly, "default_quadrature"),
        (burgersfb.assembly, "Quadrature"),
        (burgersfb.assembly, "_default_quadrature"),
        (burgersfb.assembly, "assemble_convection_by_transport"),
        (burgersfb.assembly, "assemble_convection_by_gradient"),
        (burgersfb.assembly, "assemble_boundary_mass"),
        (burgersfb.assembly, "boundary_cubic_residual"),
        (burgersfb.assembly, "boundary_cubic_jacobian"),
        (burgersfb.assembly, "trace_values"),
        (burgersfb.assembly, "_element_triplets"),
        (burgersfb.control, "control_trace"),
        (burgersfb.control, "control_boundary_l2"),
        (burgersfb.sparse, "SolverError"),
    ):
        assert not hasattr(module, name), name
    # one assembler, built from the mesh alone
    parameters = inspect.signature(burgersfb.assembly.Discretization).parameters
    assert list(parameters) == ["mesh"]
    # the edge and interior helpers take one input form each
    assembly = burgersfb.assembly
    for function, names in (
        (assembly.boundary_load, ["mesh", "flux"]),
        (assembly.boundary_quadrature, ["mesh", "tags"]),
        (assembly.discrete_laplacian, ["disc", "w"]),
    ):
        assert list(inspect.signature(function).parameters) == names, function.__name__
    fields = [field.name for field in dataclasses.fields(assembly.BoundaryQuadrature)]
    assert fields == ["edges", "lengths", "normals", "points"]
    assert burgersfb.control.ACTIVE_TAGS is burgersfb.assembly.ACTIVE_TAGS

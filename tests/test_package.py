"""The package namespace the benchmark and the README rely on."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import burgersfb
import burgersfb.cli


def test_package_exposes_submodules_and_runs_readme_example():
    for name in ("assembly", "control", "evolution", "harness", "mesh", "steady"):
        assert hasattr(burgersfb, name), name

    # The README "Library" snippet at n = 4, k = 0.01, t_end = 0.1.
    from burgersfb import (
        ControlParams, EvolutionConfig, build_unit_square_mesh,
        interpolate, run, fit_decay_rate,
    )
    from burgersfb.evolution import decay_rate_bound
    from burgersfb.mesh import friedrichs_constant

    mesh = build_unit_square_mesh(4)
    u_inf = interpolate(lambda x, y: -0.2 * x, mesh)
    w0 = interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) + 0.2 * x, mesh)
    cfg = EvolutionConfig(nu=0.1, k=0.01, t_end=0.1,
                          control=ControlParams(nu=0.1, c0=1.0))
    record = run(w0, cfg, mesh, u_inf)
    rate = fit_decay_rate(record, window=(0.0, 0.1))
    alpha = decay_rate_bound(0.1, 1.0, friedrichs_constant(mesh))  # guaranteed rate
    assert 0.0 < record.l2[-1] < record.l2[0]
    assert rate > alpha > 0.0


def test_a_trajectory_record_holds_only_what_the_run_computed():
    # the guaranteed rates depend on the problem data alone (decay_rate_bound), so the
    # record carries no physical constant and fit_decay_rate returns the fitted rate only
    evolution = burgersfb.evolution
    assert not hasattr(evolution, "DecayReport")
    assert "DecayReport" not in evolution.__all__
    assert not hasattr(evolution, "friedrichs_constant")
    fields = [field.name for field in dataclasses.fields(evolution.TrajectoryRecord)]
    assert fields == ["times", "l2", "h1_semi", "lyapunov", "control_l2", "newton_iters",
                      "final_state", "factorizations", "solves"]


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
        # run() is the one driver of the step kernels
        (burgersfb.evolution, "step"),
        (burgersfb.evolution, "_advance"),
        (burgersfb.evolution, "_pinned_cleared"),
        # one private _Trajectory per run() owns the operators, factor, counters and series
        (burgersfb.evolution, "StepOperators"),
        (burgersfb.evolution, "build_operators"),
        (burgersfb.evolution, "_newton_step"),
        (burgersfb.evolution, "_picard_step"),
        (burgersfb.evolution, "_refactor"),
        # one definition per mesh fact: the pattern's slots, the pinned vertices and
        # the stiffness matrix live on Discretization(mesh) only
        (burgersfb.assembly, "dirichlet_vertex_indices"),
        (burgersfb.assembly, "assemble_stiffness"),
        # one owner per config value rule: the library objects check the values, and
        # the CLI neither repeats their checks nor imports what they check against
        (burgersfb.cli, "_step_and_time"),
        (burgersfb.cli, "_study_levels"),
        (burgersfb.cli, "_dirichlet_region"),
        (burgersfb.cli, "_choice"),
        (burgersfb.cli, "_SOLVERS"),
        (burgersfb.cli, "_SOURCES"),
        (burgersfb.cli, "_PROJECTIONS"),
        (burgersfb.cli, "_whole_steps"),
        (burgersfb.evolution, "_whole_steps"),
        # one owner of the feedback law: control._Feedback
        (burgersfb.control, "_check_active"),
        (burgersfb.control, "_active_quadrature"),
        (burgersfb.control, "_linear_coefficient"),
        (burgersfb.control, "_cubic_weight"),
        (burgersfb.control, "_feedback_flux"),
        (burgersfb.control, "_active_flux"),
    ):
        assert not hasattr(module, name), name
    # the time loop and the study take the law from control through these names only
    for module in (burgersfb.evolution, burgersfb.harness):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("control"):
                imported |= {alias.name for alias in node.names}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert "control" not in [alias.name for alias in node.names], module.__name__
        assert "_Feedback" in imported
        assert imported <= {"ControlParams", "_Feedback", "_boundary_l2"}, imported
    # StudyConfig owns the nesting rule; Study.mesh only builds the family
    mesh_source = inspect.getsource(burgersfb.harness.Study.mesh)
    assert "reachable" not in mesh_source and "missing" not in mesh_source
    disc = burgersfb.assembly.Discretization(burgersfb.build_unit_square_mesh(2))
    for name in ("element_slots", "edge_slots"):
        assert not hasattr(disc, name), name
    # every sum of local entries is one compiled product, none an np.bincount
    tree = ast.parse(inspect.getsource(burgersfb.assembly.Discretization))
    called = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "bincount" not in called
    # one assembler, built from the mesh alone
    parameters = inspect.signature(burgersfb.assembly.Discretization).parameters
    assert list(parameters) == ["mesh"]
    # the edge and interior helpers take one input form each
    assembly = burgersfb.assembly
    for function, names in (
        (assembly.boundary_load, ["mesh", "flux"]),
        (assembly.boundary_quadrature, ["mesh", "tags"]),
        (assembly.discrete_laplacian, ["disc", "w"]),
        (burgersfb.mesh.validate_mesh, ["mesh"]),
        (burgersfb.mesh._on_segment, ["points", "seg"]),
    ):
        assert list(inspect.signature(function).parameters) == names, function.__name__
    fields = [field.name for field in dataclasses.fields(assembly.BoundaryQuadrature)]
    assert fields == ["edges", "lengths", "normals", "points"]
    assert burgersfb.control.ACTIVE_TAGS is burgersfb.assembly.ACTIVE_TAGS


def test_the_front_end_imports_no_private_name():
    # ProblemConfig builds a problem's fields and dynamics on a mesh, and evolution.write_csv
    # formats every CSV cell: cli imports no private name, and the count of private names
    # imported across the package's modules does not grow back (24 before they moved, 14
    # before Picard's transport moved into assembly)
    package = os.path.dirname(burgersfb.__file__)
    private = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            private[name] = [alias.name for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom) and node.level
                             for alias in node.names if alias.name.startswith("_")]
    assert private["cli.py"] == []
    assert sum(map(len, private.values())) <= 13, private
    for module in (burgersfb.cli, burgersfb.evolution, burgersfb.harness, burgersfb.mesh):
        for name in ("_steady_field", "_initial_field", "_evolution", "_write_rates", "_g",
                     "_write_csv", "_grid_vertices"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_factorization_takes_csc_only_and_no_stale_log_is_tracked():
    # every matrix the package factors is CSC on a Discretization's pattern, so
    # Factorization has no CSR branch; the tests' solve_general converts what it is given
    import scipy.sparse as sp

    from burgersfb.sparse import Factorization
    from oracles import full_band

    with pytest.raises(ValueError, match="not CSC"):
        Factorization(sp.csr_matrix(np.eye(2)), full_band(sp.csc_matrix(np.eye(2))))
    # the seed's pytest log, listed in .gitignore, is no longer tracked
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if os.path.isdir(os.path.join(root, ".git")):
        listed = subprocess.run(["git", "ls-files", "test_output.txt"], cwd=root,
                                capture_output=True, text=True)
        assert listed.stdout == ""


def test_parsing_and_simulating_never_import_sympy(tmp_path):
    # sympy is a test-only dependency: the reference the parser is checked against
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "domain": {"n": 4},
        "physics": {"nu": 0.1, "c0": 1.0},
        "steady": {"u_inf": "-0.2*x1", "mean": -0.1},
        "initial": {"w0": "sin(pi*x1)*sin(pi*x2) + 0.2*x1"},
        "time": {"k": 0.01, "t_end": 0.05},
    }))
    script = (
        "import sys\n"
        "import burgersfb\n"
        "from burgersfb.cli import main\n"
        "burgersfb.steady.analytic_from_expression('sin(pi*x1)*sin(pi*x2) + 0.2*x1')\n"
        "assert main(['simulate', '--config', sys.argv[1], '--output-dir', sys.argv[2]]) == 0\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(burgersfb.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# burgersfb calls one compiled scipy kernel, csc_matvec, which it loads without scipy's
# Python layers (sparse._scipy_extension); its band LU is numpy's LAPACK, SuperLU is the
# tests' reference alone, and numpy.ma is imported by no computation of the package
SCIPY_LAYERS = ("scipy", "scipy.sparse", "scipy.linalg", "scipy._lib._array_api",
                "scipy.sparse.linalg", "numpy.ma")


def test_solves_and_cli_never_import_scipys_python_layers(tmp_path):
    # every solve of the package is a band LU and every product scipy's csc_matvec: a
    # chord and a Picard run, the bordered steady Newton and a simulate command load
    # neither scipy (nor SuperLU, scipy.linalg or scipy's array-API layer) nor numpy.ma,
    # and the process maps one OpenBLAS, numpy's
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "domain": {"n": 4},
        "physics": {"nu": 0.1, "c0": 1.0},
        "steady": {"u_inf": "-0.2*x1", "mean": -0.1},
        "initial": {"w0": "sin(pi*x1)*sin(pi*x2)"},
        "time": {"k": 0.01, "t_end": 0.05},
    }))
    script = (
        "import os, sys\n"
        f"layers = {SCIPY_LAYERS!r}\n"
        "import burgersfb as bf\n"
        "from burgersfb.cli import main\n"
        "assert not set(layers) & set(sys.modules), 'import burgersfb loaded a scipy layer'\n"
        "mesh = bf.mesh.tag_boundary(bf.build_unit_square_mesh(8), None)\n"
        "u_inf = bf.steady.analytic_from_expression('-0.2*x1')\n"
        "w0 = bf.interpolate(bf.steady.analytic_from_expression('sin(pi*x1)*sin(pi*x2)').value, mesh)\n"
        "u = bf.interpolate(u_inf.value, mesh)\n"
        "control = bf.ControlParams(nu=0.1, c0=1.0)\n"
        "bf.run(w0, bf.EvolutionConfig(nu=0.1, k=0.01, t_end=0.1, control=control, nonlinear='chord'), mesh, u)\n"
        "bf.run(w0, bf.EvolutionConfig(nu=0.1, k=0.01, t_end=0.1, nonlinear='picard'), mesh, u)\n"
        "assert not set(layers) & set(sys.modules), 'the time loop loaded a scipy layer'\n"
        "spec = bf.steady.manufactured_solve_spec(u_inf, 0.1, -0.1)\n"
        "steady = bf.steady.solve_steady(mesh, spec)\n"
        "assert not set(layers) & set(sys.modules), 'the steady solve loaded a scipy layer'\n"
        "print(bf.steady.steady_residual(mesh, steady, spec.forcing, 0.1, neumann_flux=spec.neumann_flux))\n"
        "assert main(['simulate', '--config', sys.argv[1], '--output-dir', sys.argv[2]]) == 0\n"
        "assert not set(layers) & set(sys.modules), 'simulate loaded a scipy layer'\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    with open('/proc/self/maps') as maps:\n"
        "        paths = {line.split()[-1] for line in maps if len(line.split()) == 6}\n"
        "    openblas = [p for p in paths if 'openblas' in os.path.basename(p).lower()]\n"
        "    assert len(openblas) == 1, openblas\n"
    )
    src = os.path.dirname(os.path.dirname(burgersfb.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.splitlines()[0]) <= 1e-10


def test_the_one_scipy_package_import_is_assemble_mass_local_one():
    # the package imports scipy only inside assemble_mass, scipy.sparse for the scipy
    # matrix it returns; sparse.py finds scipy's compiled csc_matvec without importing scipy
    def imports(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                yield from ((scope, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                yield from ((scope, f"{child.module}.{alias.name}") for alias in child.names)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            yield from imports(child, child.name if named else scope)

    package = os.path.dirname(burgersfb.__file__)
    found = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            found |= {(name, scope, path) for scope, path in imports(tree, None)
                      if path == "scipy" or path.startswith("scipy.")}
    assert found == {("assembly.py", "assemble_mass", "scipy.sparse")}


def test_no_module_of_the_package_imports_superlu():
    # the band LU is the one backend: no source file names scipy.sparse.linalg, by
    # an import statement or otherwise, and its two SuperLU helpers are gone
    package = os.path.dirname(burgersfb.__file__)
    sources = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "sparse.py" in sources and "steady.py" in sources
    for name in sources:
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            text = handle.read()
        assert "sparse.linalg" not in text, name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                imported = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                continue
            assert not any(path.startswith("scipy.sparse.linalg") for path in imported), name
    for name in ("solve_bordered", "solve_general"):
        assert not hasattr(burgersfb.sparse, name)
        assert name not in burgersfb.sparse.__all__


def test_the_package_imports_itself_only_relatively():
    # every module reaches its siblings by relative import, so one source tree loads
    # under another package name beside a second tree, and each keeps its own modules
    package = os.path.dirname(burgersfb.__file__)
    sources = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "__init__.py" in sources and "sparse.py" in sources
    for name in sources:
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                absolute = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                absolute = [node.module]
            else:
                continue
            assert not any(path.split(".")[0] == "burgersfb" for path in absolute), name

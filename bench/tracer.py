"""Outside-in call tracing of burgersfb's public functions.

The tracer replaces a function with a timing wrapper at every name a
``burgersfb`` module binds it to, so calls made inside the package are seen
without editing it.  Spans (name, start, end, parent) stay in memory; the
per-layer metrics are derived from them once the workload has finished.

A target that no longer exists (renamed or deleted by a refactor) is
reported as absent and skipped, so the benchmark keeps running.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

NAME, START, END, PARENT = range(4)

# (module, attribute path, span name).  The span name is "<layer>.<function>".
TARGETS = (
    ("burgersfb.mesh", "build_unit_square_mesh", "mesh.build_unit_square_mesh"),
    ("burgersfb.mesh", "tag_boundary", "mesh.tag_boundary"),
    ("burgersfb.mesh", "refine_uniform", "mesh.refine_uniform"),
    ("burgersfb.assembly", "assemble_mass", "assembly.assemble_mass"),
    ("burgersfb.assembly", "assemble_stiffness", "assembly.assemble_stiffness"),
    ("burgersfb.assembly", "assemble_convection_by_transport",
     "assembly.assemble_convection_by_transport"),
    ("burgersfb.assembly", "assemble_convection_by_gradient",
     "assembly.assemble_convection_by_gradient"),
    ("burgersfb.assembly", "assemble_boundary_mass", "assembly.assemble_boundary_mass"),
    ("burgersfb.assembly", "boundary_quadrature", "assembly.boundary_quadrature"),
    ("burgersfb.assembly", "trace_values", "assembly.trace_values"),
    ("burgersfb.assembly", "boundary_cubic_residual", "assembly.boundary_cubic_residual"),
    ("burgersfb.assembly", "boundary_cubic_jacobian", "assembly.boundary_cubic_jacobian"),
    ("burgersfb.assembly", "boundary_load", "assembly.boundary_load"),
    ("burgersfb.assembly", "load_vector", "assembly.load_vector"),
    ("burgersfb.assembly", "apply_dirichlet", "assembly.apply_dirichlet"),
    ("burgersfb.assembly", "prolong", "assembly.prolong"),
    ("burgersfb.sparse", "solve_general", "sparse.solve_general"),
    ("burgersfb.sparse", "solve_bordered", "sparse.solve_bordered"),
    ("burgersfb.sparse", "solve_spd", "sparse.solve_spd"),
    ("scipy.sparse.linalg", "splu", "sparse.splu"),
    ("burgersfb.steady", "analytic_from_expression", "steady.analytic_from_expression"),
    ("burgersfb.steady", "solve_steady", "steady.solve_steady"),
    ("burgersfb.control", "control_trace", "control.control_trace"),
    ("burgersfb.control", "control_boundary_l2", "control.control_boundary_l2"),
    ("burgersfb.control", "control_weak_terms", "control.control_weak_terms"),
    ("burgersfb.evolution", "run", "evolution.run"),
    ("burgersfb.evolution", "build_operators", "evolution.build_operators"),
    ("burgersfb.evolution", "TrajectoryRecord.to_csv", "harness.csv"),
    ("burgersfb.harness", "Study.state_errors", "harness.Study.state_errors"),
    ("burgersfb.harness", "Study.control_errors", "harness.Study.control_errors"),
    ("burgersfb.harness", "RateTable.write_state_csv", "harness.csv"),
    ("burgersfb.harness", "RateTable.write_control_csv", "harness.csv"),
)

ASSEMBLY = {
    "assembly.assemble_mass",
    "assembly.assemble_stiffness",
    "assembly.assemble_convection_by_transport",
    "assembly.assemble_convection_by_gradient",
    "assembly.assemble_boundary_mass",
    "assembly.boundary_quadrature",
    "assembly.trace_values",
    "assembly.boundary_cubic_residual",
    "assembly.boundary_cubic_jacobian",
    "assembly.boundary_load",
    "assembly.load_vector",
    "assembly.apply_dirichlet",
}
CONVECTION = {
    "assembly.assemble_convection_by_transport",
    "assembly.assemble_convection_by_gradient",
}
BOUNDARY = {
    "assembly.assemble_boundary_mass",
    "assembly.boundary_cubic_residual",
    "assembly.boundary_cubic_jacobian",
    "assembly.trace_values",
}
RUN = "evolution.run"
SPLU = "sparse.splu"


class Tracer:
    """Records one span per wrapped call, with the span that caused it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.lu_solves = 0
        self.lu_nnz = {}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def wrap_splu(self, fn):
        """Time factorizations and count the solves each factor serves."""
        timed = self.wrap(SPLU, fn)

        @functools.wraps(fn)
        def factor(a, *args, **kwargs):
            lu = timed(a, *args, **kwargs)
            n = a.shape[0]
            if n not in self.lu_nnz:
                self.lu_nnz[n] = int(lu.L.nnz + lu.U.nnz)
            return _CountingLU(lu, self)

        return factor


class _CountingLU:
    """SuperLU stand-in that counts triangular solves."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.lu_solves += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _resolve(module_name, path):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


def rebind(original, replacement, owner=None, attr=None):
    """Point every ``burgersfb`` module name bound to ``original`` at ``replacement``.

    Returns the list of (namespace, attribute, old value) needed to undo it.
    """
    undo = []
    if owner is not None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "burgersfb" or name.startswith("burgersfb.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original and module is not owner:
                undo.append((module, key, value))
                setattr(module, key, replacement)
    return undo


def restore(undo):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def install(tracer, targets=TARGETS):
    """Wrap every target that exists; returns (undo list, absent targets)."""
    undo, absent = [], []
    for module_name, path, span_name in targets:
        owner, attr = _resolve(module_name, path)
        if owner is None:
            absent.append(f"{module_name}.{path}")
            continue
        original = getattr(owner, attr)
        if span_name == SPLU:
            wrapped = tracer.wrap_splu(original)
        else:
            wrapped = tracer.wrap(span_name, original)
        undo += rebind(original, wrapped, owner, attr)
    return undo, absent


def self_times(spans):
    """Duration of each span minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _inside(spans, names):
    """Per span: does some ancestor carry one of ``names``?"""
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            flags[i] = flags[p] or spans[p][NAME] in names
    return flags


def inclusive(spans, names, exclude_under=()):
    """Time in spans named in ``names``, not counting nested ones twice."""
    skip = _inside(spans, set(names) | set(exclude_under))
    return sum(
        s[END] - s[START]
        for s, nested in zip(spans, skip)
        if s[NAME] in names and not nested
    )


def self_time(spans, names, own=None):
    own = self_times(spans) if own is None else own
    return sum(t for s, t in zip(spans, own) if s[NAME] in names)


def count(spans, names, under=None):
    if under is None:
        return sum(1 for s in spans if s[NAME] in names)
    flags = _inside(spans, {under})
    return sum(1 for s, f in zip(spans, flags) if f and s[NAME] in names)


def layer_metrics(tracer, steps, newton_iters, steady_iters, csv_bytes):
    """Per-layer metrics of one traced child, as {name: value}."""
    spans = tracer.spans
    own = self_times(spans)
    factorizations = count(spans, {SPLU})

    def per_step(names):
        return count(spans, names, under=RUN) / steps if steps else 0.0

    return {
        "mesh.build_s": inclusive(spans, {"mesh.build_unit_square_mesh", "mesh.tag_boundary"}),
        "mesh.refine_s": inclusive(spans, {"mesh.refine_uniform"}),
        "assembly.self_s": self_time(spans, ASSEMBLY, own),
        "assembly.calls_per_step": per_step(ASSEMBLY),
        "assembly.convection_s": inclusive(spans, CONVECTION),
        "assembly.boundary_s": inclusive(spans, BOUNDARY),
        "assembly.boundary_quadrature_per_step": per_step({"assembly.boundary_quadrature"}),
        "assembly.dirichlet_s": inclusive(spans, {"assembly.apply_dirichlet"}),
        "assembly.prolong_s": inclusive(spans, {"assembly.prolong"}),
        "sparse.factorizations_per_step": per_step({SPLU}),
        "sparse.factor_s": self_time(spans, {SPLU}, own),
        "sparse.solve_self_s": self_time(spans, {"sparse.solve_general"}, own),
        "sparse.solves_per_factorization": (
            tracer.lu_solves / factorizations if factorizations else 0.0
        ),
        "sparse.lu_nnz": max(tracer.lu_nnz.values(), default=0),
        "sparse.bordered_solves": count(spans, {"sparse.solve_bordered"}),
        "evolution.newton_iters_per_step": newton_iters / steps if steps else 0.0,
        "evolution.build_operators_s": inclusive(spans, {"evolution.build_operators"}),
        "evolution.run_self_s": self_time(spans, {RUN}, own),
        "control.boundary_l2_s": inclusive(spans, {"control.control_boundary_l2"}),
        "control.trace_s": inclusive(
            spans, {"control.control_trace"}, exclude_under={"control.control_boundary_l2"}
        ),
        "steady.parse_s": inclusive(spans, {"steady.analytic_from_expression"}),
        "steady.solve_s": inclusive(spans, {"steady.solve_steady"}),
        "steady.newton_iters": steady_iters,
        "harness.errors_s": inclusive(
            spans, {"harness.Study.state_errors", "harness.Study.control_errors"}
        ),
        "harness.csv_s": inclusive(spans, {"harness.csv"}),
        "harness.csv_bytes": csv_bytes,
    }


def span_records(spans):
    """Spans as JSON-ready dicts, for writing out after the run."""
    return [
        {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT]}
        for s in spans
    ]

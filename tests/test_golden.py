"""The bytes the north star promises: every CSV of a few small CLI runs, pinned by digest.

``golden.json`` maps a machine key (numpy's OpenBLAS build, numpy's version and the
processor) to the SHA-256 of every CSV that ``cli.main`` writes for :data:`CONFIGS`, to
each ``simulate`` run's solver counts, and to each ``steady`` run's reported numbers.
Another BLAS kernel may round differently, so a machine with no recorded key skips the
comparison; the fresh-interpreter test holds everywhere.  A change that moves the bytes edits ``golden.json`` by hand and says why.

Run as a script, ``python tests/test_golden.py DIR`` prints the digests of runs under DIR.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from burgersfb import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

BASE = {
    "domain": {"n": 8},
    "physics": {"nu": 0.1, "c0": 1.0},
    "steady": {"u_inf": "-0.2*x1", "mean": -0.1},
    "initial": {"w0": "sin(pi*x1)*sin(pi*x2) + 0.2*x1"},
}
LAYOUTS = {
    "controlled": {},
    "uncontrolled": {"control": {"active_region": "none"}},
    "example2": {"domain": {"n": 8, "dirichlet": [[1.0, 0.0], [1.0, 1.0]]},
                 "initial": {"w0": "sin(pi*x1)*sin(pi*x2)"}},
}
# 20 steps of each solver on each layout, the steady state of u_inf and of an f_inf alone,
# and a study of levels 4 and 8
CONFIGS = {
    **{f"simulate-{layout}-{solver}": (
        "simulate", {**BASE, **sections, "time": {"k": 0.0005, "t_end": 0.01, "nonlinear": solver}})
       for layout, sections in LAYOUTS.items() for solver in ("chord", "newton", "picard")},
    "steady": ("steady", BASE),
    "steady-forcing": ("steady", {**BASE, "steady": {"f_inf": "0.04*x1 + sin(x2)", "mean": 0.2}}),
    "study": ("study", {**BASE, "time": {"k": 0.0005},
                        "study": {"levels": [4, 8], "reference": 16, "t_eval": 0.02}}),
}
# the stdout numbers each command's entry records, where the run reports them
REPORTED = {
    "simulate": ("newton_iters", "factorizations", "solves"),
    "steady": ("newton_iterations", "residual_norm", "interpolant_gap_l2", "smallness"),
}


def machine_key() -> str:
    config = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_config64_
    config.restype = ctypes.c_char_p
    return f"{config().decode()} | numpy {np.__version__} | {platform.machine()}"


def outputs(root: str) -> dict:
    """Each config's CSV digests, by file name, and the numbers of :data:`REPORTED`."""
    found = {}
    for name, (command, config) in CONFIGS.items():
        out = os.path.join(root, name)
        os.makedirs(out)
        path = os.path.join(root, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert cli.main([command, "--config", path, "--output-dir", out]) == 0, name
        found[name] = {}
        for csv in sorted(os.listdir(out)):
            with open(os.path.join(out, csv), "rb") as handle:
                found[name][csv] = hashlib.sha256(handle.read()).hexdigest()
        payload = json.loads(printed.getvalue())
        reported = REPORTED.get(command, ())
        found[name].update({key: payload[key] for key in reported if key in payload})
    return found


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return outputs(str(tmp_path_factory.mktemp("golden")))


def test_outputs_match_the_golden_digests(computed):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    key = machine_key()
    if key not in golden:
        pytest.skip(f"golden.json records no digests for {key!r}")
    assert computed == golden[key]


def test_a_fresh_interpreter_writes_the_same_bytes(computed, tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, os.path.abspath(__file__), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == computed


if __name__ == "__main__":
    print(json.dumps(outputs(sys.argv[1])))

"""No module imports scipy, and mpmath loads on first use.

Every CLI run and every library read-back step imports ``nongauss.cli``;
scipy is a test dependency only (the tests compare the ports against
it), and only the single-photon sweep's 50-digit re-evaluation loads
mpmath.  Each run check starts a fresh interpreter, since this test
process has loaded both long before; a static check of every module's
imports keeps scipy out and mpmath where it is, and a second one keeps
the declared runtime dependencies equal to the packages imported.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import nongauss

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nongauss.__file__)))

REPORT = ("print(json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] in ('scipy', 'mpmath'))))")


def _loaded_after(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}\n{REPORT}"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_neither(tmp_path):
    assert _loaded_after("import nongauss.cli", tmp_path) == []


def test_simulation_and_curve_read_back_load_neither(tmp_path):
    # the qd campaign's producer and the curve read-back step of a sweep
    code = """\
from nongauss import cli, io_formats
assert cli.main(["simulate", "--source", "qd", "--pulses", "1000", "--seed", "7",
                 "--out", "qd.json", "--tags", "qd_tags.txt"]) == 0
assert cli.main(["threshold", "--mode", "pair", "--eta", "0.5",
                 "--n", "asymptotic", "--out", "curve"]) == 0
curve = io_formats.read_curve_json("curve.json")
curve.value(curve.p_error[1:-1])
io_formats.read_tag_stream("qd_tags.txt")
"""
    assert _loaded_after(code, tmp_path) == []


def test_analyzing_counts_that_cross_loads_neither(tmp_path):
    # the campaign's analyze-single step: certified, so depth_fit crosses
    code = """\
from nongauss import cli, io_formats
assert cli.main(["simulate", "--source", "single", "--pulses", "20000", "--seed", "7",
                 "--eta", "0.1467", "--double-prob", "0.01", "--out", "single.json"]) == 0
assert cli.main(["analyze", "--counts", "single.json", "--criterion", "single-approx",
                 "--eta", "0.1467", "--sigma-eta", "0.0034", "--out", "single"]) == 0
report = io_formats.read_report_json("single_report.json")
assert report["certified"] and report["depth"]["status"] == "crossed", report
"""
    assert _loaded_after(code, tmp_path) == []


def test_sweeping_thresholds_loads_no_scipy(tmp_path):
    # the point solver is threshold_solver.minimize, not scipy.optimize
    pair = """\
from nongauss import cli
assert cli.main(["threshold", "--mode", "pair", "--eta", "0.1467", "--n", "4",
                 "--points", "5", "--out", "pair"]) == 0
"""
    assert _loaded_after(pair, tmp_path) == []
    single = """\
from nongauss import cli
assert cli.main(["threshold", "--mode", "single", "--eta", "0.5",
                 "--points", "5", "--out", "single"]) == 0
"""
    # mpmath still re-evaluates each solved point
    loaded = _loaded_after(single, tmp_path)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_analyzing_peak_areas_loads_neither(tmp_path):
    # the qd campaign's consumer: peak areas from the tags, then the fit
    code = """\
from nongauss import cli, io_formats, source_simulator
assert cli.main(["simulate", "--source", "qd", "--pulses", "400000", "--seed", "7",
                 "--eta", "0.3", "--out", "qd.json", "--tags", "qd_tags.txt"]) == 0
tags = io_formats.read_tag_stream("qd_tags.txt")
delays, areas = source_simulator.peak_areas_from_tags(tags)
io_formats.write_peak_areas_csv("qd_peaks.csv", delays, areas)
cli.main(["analyze", "--counts", "qd.json", "--eta", "0.3", "--sigma-eta", "0.0034",
          "--peak-areas", "qd_peaks.csv", "--out", "qd"])
report = io_formats.read_report_json("qd_report.json")
assert "blinking_factor" in report["blinking"], report["blinking"]
"""
    assert _loaded_after(code, tmp_path) == []


def test_validation_loads_neither(tmp_path):
    # the Fock oracle rows and mc-blinking-roundtrip's peak-area fit
    code = """\
from nongauss import cli, io_formats
cli.main(["validate", "--suite", "all", "--pulses", "20000", "--out", "all.json"])
doc = io_formats.read_report_json("all.json", schema="nongauss-validation-report")
names = [r["name"] for r in doc["checks"]]
assert "gaussian-vs-fock-oracle" in names and "mc-blinking-roundtrip" in names, doc
"""
    assert _loaded_after(code, tmp_path) == []


# the one module that may import each, always inside a function
LAZY_HOMES = {"mpmath": "threshold_solver.py"}


def _imports(tree, in_function=False):
    """(top-level package, inside a function) of every import under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], in_function
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], in_function
        yield from _imports(node, in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def _package_imports():
    """(module path, package, inside a function) of every import in nongauss."""
    package = pathlib.Path(nongauss.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, in_function in _imports(tree):
            yield path.relative_to(package).as_posix(), name, in_function


def test_no_module_imports_scipy_and_mpmath_only_lazily_at_its_home():
    imports = list(_package_imports())
    assert [(module, name) for module, name, _ in imports if name == "scipy"] == []
    for name, home in LAZY_HOMES.items():
        found = [(module, lazy) for module, imported, lazy in imports if imported == name]
        assert found, f"no module imports {name}"
        assert found == [(home, True)] * len(found), found


def test_runtime_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(SRC).parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("nongauss is not imported from a source checkout")
    with open(pyproject, "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in declared}
    imported = {name for _, name, _ in _package_imports()
                if name not in sys.stdlib_module_names and name != "nongauss"}
    assert declared == imported

"""scipy and mpmath load on first use, not with the package.

Every CLI run and every library read-back step imports ``nongauss.cli``;
the ones that never run the Fock oracle (``validate``'s oracle rows) must
not pay for scipy, and only the single-photon sweep's 50-digit
re-evaluation loads mpmath.  Each run check starts a fresh interpreter,
since this test process has loaded both long before; a static check of
every module's imports keeps the two where they are.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

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


def test_monte_carlo_validation_loads_neither(tmp_path):
    # mc-blinking-roundtrip fits peak areas; only the oracle rows need scipy
    code = """\
from nongauss import cli, io_formats
cli.main(["validate", "--suite", "mc", "--pulses", "20000", "--out", "mc.json"])
doc = io_formats.read_report_json("mc.json", schema="nongauss-validation-report")
assert "mc-blinking-roundtrip" in [r["name"] for r in doc["checks"]], doc
"""
    assert _loaded_after(code, tmp_path) == []


# the one module that may import each, always inside a function
LAZY_HOMES = {"scipy": "photon_statistics/fock_oracle.py",
              "mpmath": "threshold_solver.py"}


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


def test_only_their_homes_import_scipy_and_mpmath_and_only_lazily():
    package = pathlib.Path(nongauss.__file__).parent
    found = {name: [] for name in LAZY_HOMES}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, in_function in _imports(tree):
            if name in found:
                found[name].append((path.relative_to(package).as_posix(), in_function))
    for name, home in LAZY_HOMES.items():
        assert found[name], f"no module imports {name}"
        assert found[name] == [(home, True)] * len(found[name]), found[name]

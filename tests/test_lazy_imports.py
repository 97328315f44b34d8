"""scipy and mpmath load on first use, not with the package.

Every CLI run and every library read-back step imports ``nongauss.cli``;
the ones that never fit peak areas or run the Fock oracle must not pay
for scipy, and only the single-photon sweep's 50-digit re-evaluation
loads mpmath.  Each check runs in a fresh interpreter, since this test
process has loaded both long before.
"""

import json
import os
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

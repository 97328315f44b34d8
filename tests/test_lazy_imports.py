"""scipy and mpmath load on first use, not with the package.

Every CLI run and every library read-back step imports ``nongauss.cli``;
the ones that never solve, fit or run the Fock oracle must not pay for
scipy or mpmath.  Each check runs in a fresh interpreter, since this
test process has loaded both long before.
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

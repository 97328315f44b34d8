"""Regenerate the gate's reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout whose outputs are trusted: it runs each
workload once at the default seed, untraced and traced, and stores the
curves, output digests, report numbers, validation check names and the
traced call counts that the gate and the traced run compare against.
"""

import json
import os
import sys

import run
import workloads


def reference_for(workload, workdir):
    path = lambda name: os.path.join(workdir, name)
    ref = {"seed": workloads.DEFAULT_SEED}
    if isinstance(workload, workloads.CurveWorkload):
        curve = workloads.load_json(path("curve.json"))
        ref.update(p_error=curve["p_error"], p_success=curve["p_success"])
    elif isinstance(workload, workloads.QdCampaign):
        files = ["qd.json", "qd_tags.txt", "qd_peaks.csv", "tmsv.json", "single.json"]
        ref["sha256"] = {f: workloads.sha256(path(f)) for f in files}
        ref["reports"] = {s: workloads.load_json(path(f"{s}_report.json"))
                          for s in ("qd", "tmsv", "single")}
    else:
        doc = workloads.load_json(path("validation.json"))
        ref["checks"] = [row["name"] for row in doc["checks"]]
    return ref


def main(names):
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        runner = run.Runner()
        ref_path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        # first pass: outputs to take the reference from (a curve's read-back
        # step needs the reference file, so its result is ignored here)
        workdir = run.fresh_workdir(name)
        for step in workload.steps(seed):
            runner.run(run.step_argv(step), cwd=workdir)
        ref = reference_for(workload, workdir)
        write_json(ref_path, ref)
        # second pass: the gate must accept a rerun, bytes included
        workdir = run.fresh_workdir(name)
        codes = [runner.run(run.step_argv(step), cwd=workdir)[0]
                 for step in workload.steps(seed)]
        gate = workload.check(workdir, seed, codes, ref)
        if gate.failed:
            os.remove(ref_path)
            raise SystemExit(f"{name}: {gate.problems}")

        result = os.path.join(run.WORK, f"{name}-trace.json")
        code, _, _, err = runner.run(
            [os.path.join(run.HERE, "traced.py"), "--workload", name, "--seed",
             str(seed), "--workdir", os.path.join(run.WORK, f"{name}-trace"),
             "--out", result])
        if code != 0:
            raise SystemExit(f"{name}: traced run failed: {err}")
        calls = workloads.load_json(result)["calls"]
        ref["trace_calls"] = {k: v for k, v in calls.items() if v}
        write_json(ref_path, ref)
        print(f"{name}: reference written, exit codes {codes}")


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Library steps of the workloads: the parts of a user's workflow that
are not CLI calls.

Run one in a fresh interpreter with ``python3 perfbench/steps.py NAME
ARGS...`` (the package must be importable), or call it in-process.
Each reaches the package through module attributes, so the traced run
sees the calls.
"""

import json
import sys

import numpy as np

from nongauss import io_formats, source_simulator


def peak_areas(tags_path, out_csv):
    """Tag file -> coincidence peak areas versus delay, as analyze reads them."""
    tags = io_formats.read_tag_stream(tags_path)
    delays, areas = source_simulator.peak_areas_from_tags(tags)
    io_formats.write_peak_areas_csv(out_csv, delays, areas)


def curve_values(curve_path, reference_path, out_path):
    """Read a curve back and evaluate it at the reference p_error points.

    Points are clipped into the curve's own support; the gate decides
    whether the clipping was within tolerance.
    """
    curve = io_formats.read_curve_json(curve_path)
    with open(reference_path) as fh:
        ref_p_error = np.array(json.load(fh)["p_error"])
    lo, hi = float(curve.p_error[0]), float(curve.p_error[-1])
    values = curve.value(np.clip(ref_p_error, lo, hi))
    with open(out_path, "w") as fh:
        json.dump({"support": [lo, hi], "values": [float(v) for v in values]}, fh)


def validation_rows(report_path, out_path):
    """Read a validation report back; write each check's status."""
    doc = io_formats.read_report_json(report_path,
                                      schema="nongauss-validation-report")
    with open(out_path, "w") as fh:
        json.dump({r["name"]: r["status"] for r in doc["checks"]}, fh)


STEPS = {f.__name__: f for f in (peak_areas, curve_values, validation_rows)}


if __name__ == "__main__":
    STEPS[sys.argv[1]](*sys.argv[2:])

"""Property tests of the tag-stream text format.

Derandomized, so every run draws the same examples.
"""

import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nongauss.errors import FormatError
from nongauss.io_formats import read_tag_stream, write_tag_stream

HEADER_LINES = 2  # schema line and column line written before the tags

TAG = st.tuples(
    st.integers(0, 2**62),
    st.text(string.ascii_letters + string.digits, min_size=1, max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _tags(rows):
    pulses, dets, times = zip(*rows) if rows else ((), (), ())
    return {
        "pulse_index": np.array(pulses, dtype=np.int64),
        "detector": np.array(dets, dtype="U8"),
        "time_ps": np.array(times, dtype=float),
    }


def _write_and_read(tags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tags.txt"
        write_tag_stream(path, tags)
        return read_tag_stream(path)


@PROPERTY
@given(st.lists(TAG, max_size=40))
def test_finite_tags_round_trip_exactly(rows):
    tags = _tags(rows)
    back = _write_and_read(tags)
    for key in ("pulse_index", "detector", "time_ps"):
        np.testing.assert_array_equal(back[key], tags[key])


@PROPERTY
@given(st.lists(TAG, min_size=1, max_size=40), st.data())
def test_one_non_finite_time_is_rejected_at_its_line(rows, data):
    i = data.draw(st.integers(0, len(rows) - 1))
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    tags = _tags(rows)
    tags["time_ps"][i] = bad
    with pytest.raises(FormatError, match=f"line {HEADER_LINES + i + 1}: time must be finite"):
        _write_and_read(tags)

"""The output writers: a file's bytes are the ones the json module's own
writer gives."""
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from stressmon.errors import write_json

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30)
#: Every option set the pipeline passes to write_json.
OPTIONS = ({}, {"sort_keys": True}, {"indent": 2}, {"indent": 2, "sort_keys": True})


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES, options=st.sampled_from(OPTIONS))
def test_write_json_writes_what_json_dump_writes(value, options):
    expected = io.StringIO()
    json.dump(value, expected, **options)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "value.json")
        write_json(path, value, **options)
        with open(path, "rb") as fh:
            assert fh.read() == (expected.getvalue() + "\n").encode("utf-8")

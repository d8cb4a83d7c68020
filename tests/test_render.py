"""The JSON renderer writes exactly the bytes of ``json.dumps(doc, indent=2)``.

``cli._render_json`` encodes lists of flat rows compactly in one call and
indents them afterwards; these tests pin it to the reference rendering on
random documents built to break that step, and on every document of the
golden grid.
"""

import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import GRID

from akltblock import cli

_TRICKY = st.sampled_from(
    ["}", "{", '"', "\\", "\0", "}\0{", '}\0{"a": 1}', "\n", "\r\n", "é", "日本語", " ", "😀"]
)
strings = st.one_of(st.text(max_size=8), _TRICKY, st.lists(_TRICKY, max_size=4).map("".join))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    strings,
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(strings, inner, max_size=4),
    max_leaves=12,
)
flat_row = st.dictionaries(strings, scalars, min_size=1, max_size=6)
# rows with nested lists and dicts inside, empty rows, and other values beside rows
mixed_row = st.dictionaries(strings, values, max_size=4)
row_lists = st.one_of(
    st.lists(flat_row, min_size=1, max_size=8),
    st.lists(st.one_of(flat_row, mixed_row, values), max_size=6),
    st.just([]),
)
documents = st.dictionaries(strings, st.one_of(row_lists, values), min_size=1, max_size=5)


def _reference(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@given(doc=documents)
@settings(deadline=None, max_examples=150)
def test_render_json_equals_json_dumps(doc):
    assert cli._render_json(doc) == _reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {1: [{"a": 1}]},
        {None: 0, "b": [{"c": "}\0{"}]},
        {"results": [{"x": 1.5}, {"x": math.nan}, {"x": -0.0}], "checks": []},
        {"results": [{"a": "}"}, {"b": "{"}], "nested": {"rows": [{"a": [1, 2]}]}},
    ],
)
def test_render_json_edge_documents(doc):
    assert cli._render_json(doc) == _reference(doc)


@pytest.mark.parametrize("argv", [argv for argv, _ in GRID], ids=[" ".join(argv) for argv, _ in GRID])
def test_golden_documents_render_like_json_dumps(argv, monkeypatch, capsys):
    docs = []
    render = cli._render_json

    def recording(doc):
        docs.append(doc)
        return render(doc)

    monkeypatch.setattr(cli, "_render_json", recording)
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert len(docs) == 1
    assert out == _reference(docs[0])


_JSON_GUARD = """
import contextlib, io, sys
from akltblock.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv.split()) for argv in sys.argv[1:]]
print(codes, "json" in sys.modules)
"""


def test_csv_and_version_runs_do_not_load_json():
    runs = [
        "--version",
        "entropy --spin 2 --length 2..5 --format csv",
        "sweep --spin 2 --length 2..4 --format csv",
        "spectrum --spin 2 --length 3 --format csv",
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _JSON_GUARD, *runs], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0] False\n"

"""Mapping spec file serialization round trips and validation errors."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsjet import specfile
from fsjet.gallery import GALLERY_NAMES, example_gallery
from fsjet.jets import random_jet
from fsjet.jets import MappingJet
from fsjet.specfile import SpecFileError
from fsjet.tensors import HomPoly


def test_round_trip_exact():
    rng = np.random.default_rng(70)
    jet = random_jet(3, 4, rng)
    back = specfile.loads(specfile.dumps(jet))
    # serialization stores the raw floats, so the round trip is exact
    for k in set(jet.polys) | set(back.polys):
        a, b = jet.poly(k).coeffs, back.poly(k).coeffs
        assert set(a) == set(b)
        for idx in a:
            assert np.array_equal(a[idx], b[idx])


def test_dumps_is_deterministic():
    jet = example_gallery("example_5_6").jet
    assert specfile.dumps(jet) == specfile.dumps(jet)


def test_save_and_load(tmp_path):
    jet = example_gallery("example_5_7").jet
    path = tmp_path / "map.json"
    specfile.save(jet, path)
    assert specfile.load(path).allclose(jet, atol=0.0)


def test_loads_reports_json_position():
    with pytest.raises(SpecFileError, match="line 1"):
        specfile.loads("{ not json")


def test_loads_rejects_non_object():
    with pytest.raises(SpecFileError, match="object"):
        specfile.loads("[1, 2]")


def test_loads_rejects_missing_dim():
    with pytest.raises(SpecFileError, match="dim"):
        specfile.loads('{"order": 3}')


def test_loads_rejects_wrong_component_count():
    text = """
    {"dim": 2, "order": 3,
     "polys": [{"degree": 2,
                "entries": [{"index": [1, 1], "value": [[1.0, 0.0]]}]}]}
    """
    with pytest.raises(SpecFileError, match="components"):
        specfile.loads(text)


def test_loads_rejects_bad_pair():
    text = """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2,
                "entries": [{"index": [1, 1], "value": [[1.0]]}]}]}
    """
    with pytest.raises(SpecFileError, match="pair"):
        specfile.loads(text)


def test_loads_rejects_unsorted_index():
    text = """
    {"dim": 2, "order": 3,
     "polys": [{"degree": 2,
                "entries": [{"index": [2, 1],
                             "value": [[1.0, 0.0], [0.0, 0.0]]}]}]}
    """
    with pytest.raises(SpecFileError, match="sorted"):
        specfile.loads(text)


def test_loads_refuses_a_onedim_block(tmp_path):
    # a spec file holds one jet; root:N reads the scalar series from polys
    from click.testing import CliRunner

    from fsjet.cli import main

    text = json.dumps({"dim": 1, "order": 3, "polys": [], "onedim": {"polys": []}})
    with pytest.raises(SpecFileError, match="unknown top-level key 'onedim'"):
        specfile.loads(text)
    path = tmp_path / "old.json"
    path.write_text(text)
    result = CliRunner().invoke(main, ["transform", str(path), "--op", "root:2"])
    assert result.exit_code == 2
    assert "unknown top-level key 'onedim'" in result.output


# One malformed document per input defect; each must end in SpecFileError
# from the library and exit code 2 from the CLI, never a traceback.
BAD_SPECS = {
    "poly-block-without-degree": """
    {"dim": 1, "order": 3,
     "polys": [{"entries": [{"index": [1, 1], "value": [[1.0, 0.0]]}]}]}
    """,
    "onedim-not-an-object": '{"dim": 1, "order": 3, "onedim": []}',
    "zero-dim": '{"dim": 0, "order": 3}',
    "nan-coefficient": """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2,
                "entries": [{"index": [1, 1], "value": [[NaN, 0.0]]}]}]}
    """,
    "entry-without-index": """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2, "entries": [{"value": [[1.0, 0.0]]}]}]}
    """,
    "non-integer-index": """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2,
                "entries": [{"index": [1, 1.5], "value": [[1.0, 0.0]]}]}]}
    """,
    "index-not-a-list": """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2, "entries": [{"index": 11, "value": [[1.0, 0.0]]}]}]}
    """,
    "value-not-a-list": """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2, "entries": [{"index": [1, 1], "value": 5}]}]}
    """,
    "polys-a-number": '{"dim": 1, "order": 3, "polys": 5}',
    "polys-null": '{"dim": 1, "order": 3, "polys": null}',
    "entry-not-an-object": """
    {"dim": 1, "order": 3, "polys": [{"degree": 2, "entries": [5]}]}
    """,
    "onedim-entry-without-index": """
    {"dim": 1, "order": 3,
     "onedim": {"polys": [{"degree": 1, "entries": [{"value": [1.0, 0.0]}]}]}}
    """,
    "boolean-dim": '{"dim": true, "order": 3}',
    "fractional-dim": '{"dim": 1.5, "order": 3}',
    "two-blocks-of-one-degree": """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2, "entries": [{"index": [1, 1], "value": [[1.0, 0.0]]}]},
               {"degree": 2, "entries": [{"index": [1, 1], "value": [[2.0, 0.0]]}]}]}
    """,
    "one-index-twice": """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2,
                "entries": [{"index": [1, 1], "value": [[1.0, 0.0]]},
                            {"index": [1, 1], "value": [[2.0, 0.0]]}]}]}
    """,
    "degree-above-order": """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2000, "entries": []}]}
    """,
    "onedim-degree-above-order": """
    {"dim": 1, "order": 3,
     "onedim": {"polys": [{"degree": 2000, "entries": []}]}}
    """,
    "pair-overflowing-a-float": """
    {"dim": 1, "order": 3,
     "polys": [{"degree": 2,
                "entries": [{"index": [1, 1], "value": [[1%s, 0]]}]}]}
    """ % ("0" * 400),
    "integer-past-the-digit-limit": '{"dim": 1%s, "order": 3}' % ("0" * 5000),
    "nesting-past-the-recursion-limit": "[" * 100_000,
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_loads_rejects_bad_input(case):
    with pytest.raises(SpecFileError):
        specfile.loads(BAD_SPECS[case])


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_compute_exits_2_on_bad_spec(case, tmp_path):
    from click.testing import CliRunner

    from fsjet.cli import main

    path = tmp_path / "bad.json"
    path.write_text(BAD_SPECS[case])
    result = CliRunner().invoke(main, ["compute", str(path), "-e", "1"])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("case", ["not-utf-8", "directory"])
def test_compute_exits_2_on_unreadable_file(case, tmp_path):
    from click.testing import CliRunner

    from fsjet.cli import main

    path = tmp_path
    if case == "not-utf-8":
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"dim": 1, "order": 3, "polys": [], "x": "\xff"}')
    result = CliRunner().invoke(main, ["compute", str(path), "-e", "1"])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_dumps_rejects_a_non_finite_coefficient():
    jet = random_jet(2, 3, np.random.default_rng(0))
    P = jet.poly(3)
    entries = P.entries.copy()
    entries[1, 0] = np.inf
    bad = MappingJet(2, 3, {**jet.polys, 3: HomPoly._trusted(3, 2, 2, entries)})
    with pytest.raises(SpecFileError, match=r"polys degree-3 entry \[1, 1, 2\]"):
        specfile.dumps(bad)


# Property tests of the spec boundary.  Integers drawn into a document stay
# at most 8 and dims at most 4, so that no example asks tensors.layout for
# a large basis (a large spec is a known, separate limit).
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

SPEC_KEYS = ["dim", "order", "polys", "degree", "entries", "index", "value"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 8) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SPEC_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mapping_jets(draw, max_order=7):
    dim = draw(st.integers(1, 4))
    order = draw(st.integers(1, max_order))
    return random_jet(dim, order, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def _loads_cleanly(text):
    try:
        assert isinstance(specfile.loads(text), MappingJet)
    except SpecFileError:
        pass


@PROPERTY_SETTINGS
@given(json_values)
def test_loads_any_json_value_cleanly(value):
    _loads_cleanly(json.dumps(value))


def _mutate(node, data):
    """Replace or delete one field below NODE, reached by a random walk."""
    key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    child = node[key]
    # descend three times in four, so that entries deep in a block are reached
    if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 3)) > 0:
        _mutate(child, data)
    elif isinstance(node, dict) and data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(json_values)


@PROPERTY_SETTINGS
@given(mapping_jets(max_order=8), st.data())
def test_loads_a_spec_with_one_field_mutated_cleanly(jet, data):
    doc = specfile.spec_to_dict(jet)
    _mutate(doc, data)
    _loads_cleanly(json.dumps(doc))


def _assert_same_entries(a: MappingJet, b: MappingJet):
    assert (a.dim, a.order) == (b.dim, b.order)
    assert a.polys.keys() == b.polys.keys()
    for k in a.polys:
        assert np.array_equal(a.polys[k].entries, b.polys[k].entries)


@PROPERTY_SETTINGS
@given(mapping_jets())
def test_round_trip_random_specs(jet):
    _assert_same_entries(specfile.loads(specfile.dumps(jet)), jet)


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_round_trip_gallery(name):
    jet = example_gallery(name).jet
    _assert_same_entries(specfile.loads(specfile.dumps(jet)), jet)

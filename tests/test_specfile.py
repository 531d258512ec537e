"""Mapping spec file serialization round trips and validation errors."""

import numpy as np
import pytest

from fsjet import specfile
from fsjet.gallery import example_gallery
from fsjet.jets import random_jet
from fsjet.specfile import MappingSpec, SpecFileError
from fsjet.transforms import koebe_onedim
from fsjet.verify import random_onedim_jet


def test_round_trip_exact():
    rng = np.random.default_rng(70)
    jet = random_jet(3, 4, rng)
    od = random_onedim_jet(3, 4, rng)
    spec = MappingSpec(jet=jet, onedim=od)
    back = specfile.loads(specfile.dumps(spec))
    # serialization stores the raw floats, so the round trip is exact
    for k in set(jet.polys) | set(back.jet.polys):
        a, b = jet.poly(k).coeffs, back.jet.poly(k).coeffs
        assert set(a) == set(b)
        for idx in a:
            assert np.array_equal(a[idx], b[idx])
    for k in range(1, 4):
        diff = back.onedim.scalar_part(k) + od.scalar_part(k).scale(-1.0)
        assert diff.max_coeff() == 0.0


def test_dumps_is_deterministic():
    spec = MappingSpec(
        jet=example_gallery("example_5_6").jet, onedim=koebe_onedim(dim=2)
    )
    assert specfile.dumps(spec) == specfile.dumps(spec)


def test_save_and_load(tmp_path):
    spec = MappingSpec(jet=example_gallery("example_5_7").jet)
    path = tmp_path / "map.json"
    specfile.save(spec, path)
    back = specfile.load(path)
    assert back.jet.allclose(spec.jet, atol=0.0)
    assert back.onedim is None


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

"""CLI behavior: parsing, output formats, exit codes, determinism."""

import json
import time

import pytest
from click.testing import CliRunner

from fsjet.cli import format_complex, main, parse_complex


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def koebe_spec(runner, tmp_path):
    path = tmp_path / "koebe.json"
    result = runner.invoke(main, ["gallery", "koebe1d", "-o", str(path)])
    assert result.exit_code == 0
    return str(path)


def test_parse_complex_forms():
    assert parse_complex("2") == 2.0
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("i") == 1.0j
    assert parse_complex("-i") == -1.0j
    assert parse_complex("0.5i") == 0.5j
    assert parse_complex("1+2i") == 1.0 + 2.0j
    assert parse_complex("1-2e-3i") == 1.0 - 0.002j
    assert parse_complex("3e2") == 300.0
    assert parse_complex(" (1+2i) ") == 1.0 + 2.0j
    for bad in ("", "abc", "1+2j", "2J", "++1", "nan", "inf", "1+nani", "1e400"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_format_complex_round_trip():
    z = 0.1 - 0.30000000000000004j
    assert parse_complex(format_complex(z)) == z


def test_gallery_emits_valid_spec(runner):
    result = runner.invoke(main, ["gallery", "koebe1d"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["dim"] == 1
    degrees = {p["degree"] for p in data["polys"]}
    assert degrees == {2, 3}


def test_gallery_unknown_name_is_usage_error(runner):
    result = runner.invoke(main, ["gallery", "nope"])
    assert result.exit_code == 2


def test_compute_koebe(runner, koebe_spec):
    result = runner.invoke(
        main,
        ["compute", koebe_spec, "-e", "1", "--lam", "0.5", "--variant", "2"],
    )
    assert result.exit_code == 0
    lines = dict(
        line.split("=", 1) for line in result.output.strip().splitlines()
    )
    # psi for the Koebe jet is 3 - 4 lam = 1 at lam = 1/2
    assert parse_complex(lines["psi_projection"]) == 1.0
    assert parse_complex(lines["psi_variant_2"]) == 1.0


def test_compute_projects_psi_onto_the_direction(runner, tmp_path):
    # psi_projection is <psi_vector, e> for the normalized direction e
    path = tmp_path / "f.json"
    assert runner.invoke(main, ["gallery", "example_5_6", "-o", str(path)]).exit_code == 0
    result = runner.invoke(
        main, ["compute", str(path), "-e", "0.6,0.8i", "--lam", "0.3-0.2i", "--mu", "1.1"]
    )
    assert result.exit_code == 0, result.output
    lines = dict(line.split("=", 1) for line in result.output.strip().splitlines())
    psi = [parse_complex(z) for z in lines["psi_vector"].split(",")]
    want = 0.6 * psi[0] - 0.8j * psi[1]
    assert abs(parse_complex(lines["psi_projection"]) - want) <= 1e-15
    assert abs(want) > 0.01


def test_compute_rejects_bad_direction(runner, koebe_spec):
    result = runner.invoke(main, ["compute", koebe_spec, "-e", "1,0"])
    assert result.exit_code == 2  # wrong dimension
    result = runner.invoke(main, ["compute", koebe_spec, "-e", "0.5"])
    assert result.exit_code == 2  # not a unit vector


def test_compute_missing_file(runner):
    result = runner.invoke(main, ["compute", "does-not-exist.json", "-e", "1"])
    assert result.exit_code == 2


def test_verify_passes_and_is_deterministic(runner):
    args = ["verify", "polarization", "--trials", "5", "--seed", "3"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert "pass=true" in first.output


def test_verify_json_output(runner):
    result = runner.invoke(
        main, ["verify", "compose", "--trials", "3", "--json"]
    )
    assert result.exit_code == 0
    reports = json.loads(result.stdout)
    assert all(r["pass"] for r in reports)
    assert reports[0]["trials"] == 3


def test_verify_all_json_output(runner):
    # every suite, including those whose residuals are numpy scalars
    result = runner.invoke(main, ["verify", "all", "--trials", "1", "--json"])
    assert result.exit_code == 0
    reports = json.loads(result.stdout)
    assert len(reports) == 17
    assert all(r["pass"] is True for r in reports)


def test_verify_failure_exit_code(runner):
    result = runner.invoke(
        main, ["verify", "compose", "--trials", "3", "--tol", "1e-30"]
    )
    assert result.exit_code == 1
    assert "pass=false" in result.output


def test_verify_bad_dims_is_usage_error(runner):
    for dims in ("0", "2,-1"):
        result = runner.invoke(
            main, ["verify", "compose", "--trials", "2", "--dims", dims]
        )
        assert result.exit_code == 2, result.output
        assert f"dimension {dims.split(',')[-1]} is not positive" in result.output


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_bad_tolerance_is_usage_error(runner, tol):
    result = runner.invoke(
        main, ["verify", "polarization", "--trials", "2", "--tol", tol, "--json"]
    )
    assert result.exit_code == 2, result.output
    assert "tolerance" in result.output
    assert "NaN" not in result.output


def test_verify_negative_seed_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "compose", "--trials", "2", "--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert "seed -1 is negative" in result.output
    result = runner.invoke(
        main,
        ["verify", "polarization", "--trials", "1"],
        env={"FSJET_SEED": "-2"},
    )
    assert result.exit_code == 2, result.output
    assert "seed -2 is negative" in result.output


def test_verify_seed_env_var(runner):
    result = runner.invoke(
        main,
        ["verify", "polarization", "--trials", "2"],
        env={"FSJET_SEED": "17"},
    )
    assert result.exit_code == 0
    assert "seed=17" in result.output


def test_transform_invert_koebe(runner, koebe_spec):
    result = runner.invoke(main, ["transform", koebe_spec, "--op", "invert"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    by_degree = {p["degree"]: p["entries"] for p in data["polys"]}
    # inverse series coefficients: -2 and 5
    assert by_degree[2][0]["value"][0] == [-2.0, 0.0]
    assert by_degree[3][0]["value"][0] == [5.0, 0.0]


def test_transform_iterate_identity(runner, koebe_spec, tmp_path):
    out = tmp_path / "sq.json"
    result = runner.invoke(
        main, ["transform", koebe_spec, "--op", "iterate:2", "-o", str(out)]
    )
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    # second iterate of z + 2z^2 + 3z^3: degree-2 coefficient doubles
    by_degree = {p["degree"]: p["entries"] for p in data["polys"]}
    assert by_degree[2][0]["value"][0] == [4.0, 0.0]


def test_transform_iterate_rejects_a_fractional_count(runner, koebe_spec):
    result = runner.invoke(main, ["transform", koebe_spec, "--op", "iterate:2.5"])
    assert result.exit_code == 2
    assert "integer count" in result.output


def test_transform_root(runner, koebe_spec):
    result = runner.invoke(main, ["transform", koebe_spec, "--op", "root:2"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    degrees = {p["degree"] for p in data["polys"]}
    assert degrees == {3, 5}


def test_transform_root_of_the_inverse_koebe(runner, koebe_spec, tmp_path):
    # root:N reads s from the jet: the inverse z - 2z^2 + 5z^3 has
    # s = 1 - 2z + 5z^2, and z (1 - 2u + 5u^2)^(1/2) = z - u z + 2 u^2 z
    inverse = tmp_path / "inverse.json"
    result = runner.invoke(main, ["transform", koebe_spec, "--op", "invert", "-o", str(inverse)])
    assert result.exit_code == 0
    result = runner.invoke(main, ["transform", str(inverse), "--op", "root:2"])
    assert result.exit_code == 0, result.output
    data = json.loads(result.stdout)
    values = {p["degree"]: p["entries"][0]["value"][0] for p in data["polys"]}
    assert values == {3: [-1.0, 0.0], 5: [2.0, 0.0]}


def test_transform_root_refuses_a_jet_not_of_the_form_s_x(runner, tmp_path):
    spec = tmp_path / "f.json"
    assert runner.invoke(main, ["gallery", "example_5_6", "-o", str(spec)]).exit_code == 0
    result = runner.invoke(main, ["transform", str(spec), "--op", "root:2"])
    assert result.exit_code == 2
    assert "root transform needs a jet of the form s(x) x" in result.output


def test_transform_root_past_degree_20(runner, koebe_spec):
    result = runner.invoke(main, ["transform", koebe_spec, "--op", "root:10", "-e", "1"])
    assert result.exit_code == 0, result.output
    data = json.loads(result.stdout)
    assert data["order"] == 21
    values = {p["degree"]: p["entries"][0]["value"][0] for p in data["polys"]}
    # z (1 + 2u + 3u^2)^(1/10) with u = z^10 is z + u z / 5 + 3 u^2 z / 25 + ...
    assert values[11] == [pytest.approx(1 / 5), 0.0]
    assert values[21] == [pytest.approx(3 / 25), 0.0]


DEEP_SPEC = {
    "dim": 1,
    "order": 3000,
    "polys": [{"degree": 2000, "entries": [{"index": [1] * 2000, "value": [[1.0, 0.0]]}]}],
}


def test_compute_a_degree_2000_block(runner, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(DEEP_SPEC))
    result = runner.invoke(main, ["compute", str(path), "-e", "1", "--lam", "0", "--mu", "0"])
    assert result.exit_code == 0, result.output
    assert "psi_vector=0+0i" in result.output


def test_invert_of_an_order_3000_spec_exits_2_within_a_second(runner, tmp_path):
    # its pair table would hold C(3002, 3000) = 4,504,501 pairs
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(DEEP_SPEC))
    result, seconds = _invoke_timed(runner, ["transform", str(path), "--op", "invert"])
    assert result.exit_code == 2, result.output
    assert "size budget" in result.output
    assert seconds < 1.0, seconds


def _invoke_timed(runner, args):
    start = time.perf_counter()
    result = runner.invoke(main, args)
    return result, time.perf_counter() - start


def test_over_budget_inputs_exit_2_within_a_second(runner, koebe_spec, tmp_path):
    # each would otherwise enumerate a basis of 5e11 rows, build a
    # degree-10^6 basis, or ask for a 500,500 x 1000 complex array
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"dim": 1000000, "order": 3, "polys": [{"degree": 2}]}))
    for args in (
        ["compute", str(wide), "-e", "1"],
        ["transform", koebe_spec, "--op", "root:1000000"],
        ["verify", "all", "--dims", "1000"],
    ):
        result, seconds = _invoke_timed(runner, args)
        assert result.exit_code == 2, (args, result.output)
        assert "size budget" in result.output, args
        assert seconds < 1.0, (args, seconds)


def test_transform_semigroup(runner, tmp_path):
    gen = tmp_path / "gen.json"
    res = runner.invoke(
        main, ["gallery", "example_5_6_generator", "-o", str(gen)]
    )
    assert res.exit_code == 0
    result = runner.invoke(main, ["transform", str(gen), "--op", "semigroup:0.5"])
    assert result.exit_code == 0
    json.loads(result.stdout)  # stdout is a clean spec document


def test_transform_bad_op(runner, koebe_spec):
    for op in ("frobnicate", "iterate:x", "root"):
        result = runner.invoke(main, ["transform", koebe_spec, "--op", op])
        assert result.exit_code == 2


def test_transform_conjugate(runner, tmp_path):
    spec = tmp_path / "f.json"
    res = runner.invoke(main, ["gallery", "example_5_6", "-o", str(spec)])
    assert res.exit_code == 0
    U = tmp_path / "U.json"
    U.write_text(json.dumps([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]))
    result = runner.invoke(
        main, ["transform", str(spec), "--op", f"conjugate:{U}"]
    )
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    # swapping coordinates moves the x1^2 monomial to x2^2
    by_degree = {p["degree"]: p["entries"] for p in data["polys"]}
    assert by_degree[2][0]["index"] == [2, 2]


def test_compute_rejects_a_non_finite_lambda(runner, koebe_spec):
    result = runner.invoke(main, ["compute", koebe_spec, "-e", "1", "--lam", "nan"])
    assert result.exit_code == 2
    assert "not finite" in result.output


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_transform_iterate_overflow_exits_2(runner, koebe_spec, tmp_path):
    out = tmp_path / "huge.json"
    op = "iterate:1" + "0" * 189
    result = runner.invoke(main, ["transform", koebe_spec, "--op", op, "-o", str(out)])
    assert result.exit_code == 2
    assert "polys degree-3 entry [1, 1, 1]" in result.output
    assert "not finite" in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_transform_iterate_with_a_4001_digit_count_exits_2_within_a_second(runner, koebe_spec, tmp_path):
    # powering stops at the first power that is not finite
    out = tmp_path / "huge.json"
    op = "iterate:1" + "0" * 4000
    result, seconds = _invoke_timed(runner, ["transform", koebe_spec, "--op", op, "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "not finite" in result.output
    assert seconds < 1.0, seconds
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_transform_conjugate_rejects_a_non_finite_matrix(runner, koebe_spec, tmp_path, bad):
    U = tmp_path / "U.json"
    U.write_text(json.dumps([[[bad, 0.0]]]))
    result = runner.invoke(main, ["transform", koebe_spec, "--op", f"conjugate:{U}"])
    assert result.exit_code == 2
    assert "not unitary" in result.output


@pytest.mark.parametrize(
    "matrix",
    ['[[[1.0, 0.0]], [[0.0, 1.0]]]', '[[1.0, 0.0]]', '{"U": 1}', "[[[1, 0", "[[[true, 0]]]"],
)
def test_transform_conjugate_rejects_a_malformed_matrix(runner, koebe_spec, tmp_path, matrix):
    U = tmp_path / "U.json"
    U.write_text(matrix)
    result = runner.invoke(main, ["transform", koebe_spec, "--op", f"conjugate:{U}"])
    assert result.exit_code == 2
    assert "cannot read unitary matrix" in result.output


def test_gallery_to_a_directory_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["gallery", "koebe1d", "-o", str(tmp_path)])
    assert result.exit_code == 2
    assert "cannot write" in result.output

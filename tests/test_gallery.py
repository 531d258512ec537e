"""Gallery entries: values frozen against independent hand computation."""

import numpy as np
import pytest

from fsjet.gallery import GALLERY_NAMES, ROTATION_UNITARY, example_gallery
from fsjet.jets import unitarity_residual
from fsjet.transforms import detect_onedim


def test_all_names_resolve():
    for name in GALLERY_NAMES:
        entry = example_gallery(name)
        assert entry.name == name
        assert entry.jet.dim in (1, 2)


def test_unknown_name():
    with pytest.raises(ValueError):
        example_gallery("missing")


def test_identity_entry():
    entry = example_gallery("identity")
    assert entry.jet.max_coeff() <= 1e-10
    assert detect_onedim(entry.jet).scalar_polys == {}


def test_koebe_jet_coefficients():
    jet = example_gallery("koebe1d").jet
    one = np.array([1.0 + 0j])
    assert abs(jet.poly(2).eval(one)[0] - 2.0) < 1e-15
    assert abs(jet.poly(3).eval(one)[0] - 3.0) < 1e-15


def test_example_5_6_jet_evaluation():
    jet = example_gallery("example_5_6").jet
    x = np.array([0.5, 0.0], dtype=complex)
    # x + P2(x) + P3(x) = (1/2 - 1/8 + 1/32, -1/8 + 1/32)
    assert np.allclose(jet.eval(x), [0.40625, -0.09375], atol=1e-15)


def test_example_5_7_jet_evaluation():
    jet = example_gallery("example_5_7").jet
    x = np.array([0.2, 0.1], dtype=complex)
    # second component: x2 + (x1 + x2)(-x1 + x1^2/2) through degree 3
    expect2 = 0.1 + (0.3) * (-0.2 + 0.02)
    assert abs(jet.eval(x)[0] - 0.2) < 1e-15
    assert abs(jet.eval(x)[1] - expect2) < 1e-15


def test_example_5_7_discrepancy_flag():
    entry = example_gallery("example_5_7")
    assert entry.expected["printed_norm_discrepancy"] is True


def test_rotation_unitary_is_unitary():
    assert unitarity_residual(ROTATION_UNITARY) < 1e-14


def test_rotated_entries_differ_from_base():
    base = example_gallery("example_5_6").jet
    rotated = example_gallery("example_5_6_rotated").jet
    assert not rotated.allclose(base, atol=1e-3)

"""Named example mappings with their order-3 jets and expected values."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jets import MappingJet, unitary_conjugate
from .tensors import HomPoly
from .transforms import koebe_onedim


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    jet: MappingJet
    description: str
    expected: dict = field(default_factory=dict)


# fixed unitary used by the rotated variants
_THETA, _PHI = np.pi / 5.0, np.pi / 7.0
ROTATION_UNITARY = np.array(
    [
        [np.cos(_THETA) * np.exp(1j * _PHI), -np.sin(_THETA)],
        [np.sin(_THETA), np.cos(_THETA) * np.exp(-1j * _PHI)],
    ]
)


def _example_5_6() -> MappingJet:
    # P2(x) = -(x1^2/2) (1,1),  P3(x) = (x1^3/4) (1,1)
    P2 = HomPoly.from_monomials(2, 2, 2, {(2, 0): [-0.5, -0.5]})
    P3 = HomPoly.from_monomials(3, 2, 2, {(3, 0): [0.25, 0.25]})
    return MappingJet(2, 3, {2: P2, 3: P3})


def _example_5_6_generator() -> MappingJet:
    # h(x) = (x1 + x1^2/2, x2 + x1^2/2)
    H2 = HomPoly.from_monomials(2, 2, 2, {(2, 0): [0.5, 0.5]})
    return MappingJet(2, 3, {2: H2})


def _example_5_7() -> MappingJet:
    # f(x) = (x1, x2 + (x1 + x2)(exp(-x1) - 1))
    P2 = HomPoly.from_monomials(2, 2, 2, {(2, 0): [0, -1.0], (1, 1): [0, -1.0]})
    P3 = HomPoly.from_monomials(3, 2, 2, {(3, 0): [0, 0.5], (2, 1): [0, 0.5]})
    return MappingJet(2, 3, {2: P2, 3: P3})


def example_gallery(name: str) -> GalleryEntry:
    """Look up a named example jet; raises ValueError on unknown names."""
    if name == "identity":
        return GalleryEntry(name, MappingJet.identity(2, 3), "the identity of C^2")
    if name == "koebe1d":
        return GalleryEntry(
            name,
            koebe_onedim(1, 3).to_mapping_jet(),
            "order-3 jet of the Koebe function z/(1-z)^2",
            expected={"psi_scalar": "3 - 4*lambda"},
        )
    if name == "example_5_6":
        return GalleryEntry(
            name,
            _example_5_6(),
            "starlike map of C^2 with P2 = -(x1^2/2)(1,1), P3 = (x1^3/4)(1,1)",
            expected={
                "psi_at_e1": "((1-lambda)/4, (1-lambda)/4)",
                "psi_norm_at_e1": "|1-lambda| / (2*sqrt(2))",
            },
        )
    if name == "example_5_6_generator":
        return GalleryEntry(
            name,
            _example_5_6_generator(),
            "the generator (x1 + x1^2/2, x2 + x1^2/2) paired with example_5_6",
        )
    if name == "example_5_7":
        return GalleryEntry(
            name,
            _example_5_7(),
            "starlike map (x1, x2 + (x1+x2)(exp(-x1)-1)) of C^2",
            expected={
                "psi_at_e1": "(0, (1-mu)/2)",
                # the source display shows |1 + mu/2| for this norm, which is
                # inconsistent with the displayed vector; the computed value
                # is |1-mu|/2 and that is what the suites assert
                "psi_norm_at_e1": "|1-mu| / 2",
                "printed_norm_discrepancy": True,
            },
        )
    if name in ("example_5_6_rotated", "example_5_7_rotated"):
        base = example_gallery(name.removesuffix("_rotated"))
        return GalleryEntry(
            name,
            unitary_conjugate(base.jet, ROTATION_UNITARY),
            base.description + ", conjugated by a fixed 2x2 unitary",
        )
    raise ValueError(
        f"unknown gallery name {name!r}; valid names: {', '.join(GALLERY_NAMES)}"
    )


GALLERY_NAMES = (
    "identity",
    "koebe1d",
    "example_5_6",
    "example_5_6_generator",
    "example_5_7",
    "example_5_6_rotated",
    "example_5_7_rotated",
)

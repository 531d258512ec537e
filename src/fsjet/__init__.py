"""Jet algebra for Fekete-Szego type mappings of the unit ball of C^n."""

from .estimates import (
    BoundReport,
    SupNormConfig,
    bounded_onedim_bound,
    check_bounded_onedim_bound,
    sup_norm_fs,
)
from .fekete import (
    FSContext,
    FSValue,
    ell,
    fs_mapping,
    fs_mapping_many,
    fs_scalar,
    operator_norm_bilinear,
)
from .gallery import GALLERY_NAMES, GalleryEntry, example_gallery
from .jets import (
    MappingJet,
    compose,
    invert,
    iterate,
    random_jet,
    unitarity_residual,
    unitary_conjugate,
)
from .reporting import Report
from .semigroup import (
    FlowJet,
    generator_from_starlike,
    is_generator,
    sample_generator,
    semigroup_jet,
    semigroup_ode,
    starlike_from_generator,
)
from .specfile import SpecFileError
from .tensors import HomPoly, ScalarHomPoly, polarization_check
from .transforms import (
    OneDimJet,
    detect_onedim,
    koebe_onedim,
    root_transform,
)
from .verify import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "FSContext",
    "FSValue",
    "FlowJet",
    "GALLERY_NAMES",
    "GalleryEntry",
    "HomPoly",
    "MappingJet",
    "OneDimJet",
    "Report",
    "ScalarHomPoly",
    "SpecFileError",
    "SUITE_NAMES",
    "SupNormConfig",
    "bounded_onedim_bound",
    "check_bounded_onedim_bound",
    "compose",
    "detect_onedim",
    "ell",
    "example_gallery",
    "fs_mapping",
    "fs_mapping_many",
    "fs_scalar",
    "generator_from_starlike",
    "invert",
    "is_generator",
    "iterate",
    "koebe_onedim",
    "operator_norm_bilinear",
    "polarization_check",
    "random_jet",
    "root_transform",
    "run_suite",
    "sample_generator",
    "semigroup_jet",
    "semigroup_ode",
    "starlike_from_generator",
    "sup_norm_fs",
    "unitarity_residual",
    "unitary_conjugate",
]

"""Mapping spec files: JSON serialization of jets and scalar series.

Layout::

    {
      "dim": 2,
      "order": 3,
      "polys": [
        {"degree": 2,
         "entries": [{"index": [1, 1], "value": [[-0.5, 0.0], [-0.5, 0.0]]}]}
      ],
      "onedim": {"polys": [
        {"degree": 1, "entries": [{"index": [1], "value": [2.0, 0.0]}]}
      ]}
    }

Indices are sorted 1-based multi-indices; complex numbers are [re, im]
pairs.  Serialization is deterministic (sorted keys and entries).

Reading raises ``SpecFileError``, naming the block and entry, unless the
text is JSON (UTF-8 in a file) holding an object whose ``dim`` and
``order`` are positive integers; ``polys`` and ``onedim.polys`` are lists
of blocks, one per degree, with integer degrees in 2..order and
1..order-1 (checked before any tensor is built); each entry has an integer
``index`` list, unique in its block, and a ``value`` of ``dim`` pairs
(``onedim``: one pair) of JSON numbers; and ``HomPoly`` accepts each index
and finds each coefficient finite.  Writing refuses a non-finite value.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .jets import MappingJet
from .tensors import HomPoly, ScalarHomPoly
from .transforms import OneDimJet


class SpecFileError(ValueError):
    """Raised when a mapping spec file does not parse or validate."""


@dataclass(frozen=True)
class MappingSpec:
    """In-memory form of a spec file: a jet plus an optional scalar series."""

    jet: MappingJet
    onedim: OneDimJet | None = None


def _pair(z: complex, where: str) -> list[float]:
    if not cmath.isfinite(z):
        raise SpecFileError(f"{where}: coefficient {z} is not finite")
    return [float(np.real(z)), float(np.imag(z))]


def _unpair(v, where: str) -> complex:
    # json.loads gives exact ints and floats; bool, a subclass of int, is no number
    if isinstance(v, list) and len(v) == 2 and all(type(x) in (int, float) for x in v):
        try:
            return complex(*v)
        except OverflowError:  # an integer too large for a float
            pass
    raise SpecFileError(f"{where}: expected a [re, im] pair of floats, got {v!r}")


def _integer(v, where: str) -> int:
    if type(v) is not int:
        raise SpecFileError(f"{where}: expected an integer, got {v!r}")
    return v


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise SpecFileError(f"{where}: expected a list, got {v!r}")
    return v


def _complex_array(v, shape: tuple[int, ...], where: str) -> np.ndarray:
    """Decode nested lists of [re, im] pairs into a complex array of SHAPE."""
    if not shape:
        return np.array(_unpair(v, where))
    if len(_list(v, where)) != shape[0]:
        raise SpecFileError(f"{where}: expected {shape[0]} components, got {v!r}")
    return np.array([_complex_array(x, shape[1:], where) for x in v])


def _read_blocks(blocks, where: str, degrees: range, shape: tuple[int, ...], make) -> dict:
    """Decode a list of degree blocks whose entry values have SHAPE into
    ``{degree: make(degree, coeffs)}``."""
    polys = {}
    for block in _list(blocks, where):
        if not (isinstance(block, dict) and "degree" in block):
            raise SpecFileError(f"{where}: every block needs a \"degree\"")
        k = _integer(block["degree"], f"{where} degree")
        if k not in degrees:
            raise SpecFileError(
                f"{where}: degree {k} outside {degrees.start}..{degrees.stop - 1}"
            )
        if k in polys:
            raise SpecFileError(f"{where}: two blocks of degree {k}")
        here = f"{where} degree-{k}"
        coeffs = {}
        for entry in _list(block.get("entries", []), here):
            if not (isinstance(entry, dict) and "index" in entry and "value" in entry):
                raise SpecFileError(f"{here}: every entry needs an index and a value")
            idx = tuple(_integer(i, f"{here} index") for i in _list(entry["index"], here))
            if idx in coeffs:
                raise SpecFileError(f"{here}: index {list(idx)} appears twice")
            value = _complex_array(entry["value"], shape, f"{here} entry {list(idx)}")
            coeffs[idx] = value.reshape(-1)
        try:
            polys[k] = make(k, coeffs)
        except ValueError as exc:
            raise SpecFileError(f"{here}: {exc}") from exc
    return polys


def _write_blocks(polys: Mapping[int, HomPoly], where: str, scalar: bool) -> list[dict]:
    """Inverse of ``_read_blocks``: a value is one pair if SCALAR, else a list."""
    blocks = []
    for k in sorted(polys):
        entries = []
        for idx, vec in sorted(polys[k].coeffs.items()):
            pairs = [_pair(z, f"{where} degree-{k} entry {list(idx)}") for z in vec]
            entries.append({"index": list(idx), "value": pairs[0] if scalar else pairs})
        blocks.append({"degree": k, "entries": entries})
    return blocks


def spec_to_dict(spec: MappingSpec) -> dict:
    jet, onedim = spec.jet, spec.onedim
    out = {"dim": jet.dim, "order": jet.order,
           "polys": _write_blocks(jet.polys, "polys", scalar=False)}
    if onedim is not None:
        scalar_polys = _write_blocks(onedim.scalar_polys, "onedim polys", scalar=True)
        out["onedim"] = {"polys": scalar_polys}
    return out


def spec_from_dict(data: dict) -> MappingSpec:
    dim = _integer(data.get("dim"), "dim")
    order = _integer(data.get("order"), "order")
    if dim < 1 or order < 1:
        raise SpecFileError(f"dim and order must be positive, got {dim} and {order}")
    polys = _read_blocks(data.get("polys", []), "polys", range(2, order + 1), (dim,),
                         lambda k, coeffs: HomPoly(k, dim, dim, coeffs))
    jet = MappingJet(dim, order, polys)
    if "onedim" not in data:
        return MappingSpec(jet=jet)
    if not isinstance(data["onedim"], dict):
        raise SpecFileError(f"onedim must be an object with \"polys\", got {data['onedim']!r}")
    scalar_polys = _read_blocks(data["onedim"].get("polys", []), "onedim polys",
                                range(1, order), (),
                                lambda k, coeffs: ScalarHomPoly(k, dim, coeffs))
    return MappingSpec(jet=jet, onedim=OneDimJet(dim, order, scalar_polys))


def dumps(spec: MappingSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _parse(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
        raise SpecFileError(f"invalid JSON: {exc}") from exc


def loads(text: str) -> MappingSpec:
    data = _parse(text)
    if not isinstance(data, dict):
        raise SpecFileError("top level of a spec file must be an object")
    return spec_from_dict(data)


def load(path: str | Path) -> MappingSpec:
    return loads(Path(path).read_text(encoding="utf-8"))


def load_matrix(path: str | Path, n: int) -> np.ndarray:
    """Read an n x n complex matrix: a JSON list of rows of [re, im] pairs."""
    return _complex_array(_parse(Path(path).read_text(encoding="utf-8")), (n, n), "matrix")


def save(spec: MappingSpec, path: str | Path) -> None:
    Path(path).write_text(dumps(spec), encoding="utf-8")

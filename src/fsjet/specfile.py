"""Mapping spec files: JSON serialization of mapping jets.

Layout::

    {
      "dim": 2,
      "order": 3,
      "polys": [
        {"degree": 2,
         "entries": [{"index": [1, 1], "value": [[-0.5, 0.0], [-0.5, 0.0]]}]}
      ]
    }

Indices are sorted 1-based multi-indices; complex numbers are [re, im]
pairs.  Serialization is deterministic (sorted keys and entries).

Reading raises ``SpecFileError``, naming the block and entry, unless the
text is JSON (UTF-8 in a file) holding an object with no keys but
``dim``, ``order`` and ``polys``, whose ``dim`` and ``order`` are positive
integers; ``polys`` is a list of blocks, one per degree, with integer
degrees in 2..order (checked before any tensor is built); each entry has
an integer ``index`` list, unique in its block, and a ``value`` of ``dim``
pairs of JSON numbers; and ``HomPoly`` accepts each index and finds each
coefficient finite.  Writing refuses a non-finite value.
"""

from __future__ import annotations

import cmath
import json
from pathlib import Path

import numpy as np

from .jets import MappingJet
from .tensors import HomPoly


class SpecFileError(ValueError):
    """Raised when a mapping spec file does not parse or validate."""


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


def _read_blocks(blocks, dim: int, order: int) -> dict[int, HomPoly]:
    """Decode the ``polys`` list into ``{degree: HomPoly}``."""
    polys = {}
    for block in _list(blocks, "polys"):
        if not (isinstance(block, dict) and "degree" in block):
            raise SpecFileError("polys: every block needs a \"degree\"")
        k = _integer(block["degree"], "polys degree")
        if not 2 <= k <= order:
            raise SpecFileError(f"polys: degree {k} outside 2..{order}")
        if k in polys:
            raise SpecFileError(f"polys: two blocks of degree {k}")
        here = f"polys degree-{k}"
        coeffs = {}
        for entry in _list(block.get("entries", []), here):
            if not (isinstance(entry, dict) and "index" in entry and "value" in entry):
                raise SpecFileError(f"{here}: every entry needs an index and a value")
            idx = tuple(_integer(i, f"{here} index") for i in _list(entry["index"], here))
            if idx in coeffs:
                raise SpecFileError(f"{here}: index {list(idx)} appears twice")
            coeffs[idx] = _complex_array(entry["value"], (dim,), f"{here} entry {list(idx)}")
        try:
            polys[k] = HomPoly(k, dim, dim, coeffs)
        except ValueError as exc:
            raise SpecFileError(f"{here}: {exc}") from exc
    return polys


def _write_blocks(polys: dict[int, HomPoly]) -> list[dict]:
    """Inverse of ``_read_blocks``."""
    blocks = []
    for k in sorted(polys):
        entries = []
        for idx, vec in sorted(polys[k].coeffs.items()):
            pairs = [_pair(z, f"polys degree-{k} entry {list(idx)}") for z in vec]
            entries.append({"index": list(idx), "value": pairs})
        blocks.append({"degree": k, "entries": entries})
    return blocks


def spec_to_dict(jet: MappingJet) -> dict:
    return {"dim": jet.dim, "order": jet.order, "polys": _write_blocks(jet.polys)}


def dumps(jet: MappingJet) -> str:
    return json.dumps(spec_to_dict(jet), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _parse(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
        raise SpecFileError(f"invalid JSON: {exc}") from exc


def loads(text: str) -> MappingJet:
    data = _parse(text)
    if not isinstance(data, dict):
        raise SpecFileError("top level of a spec file must be an object")
    extra = sorted(data.keys() - {"dim", "order", "polys"})
    if extra:
        raise SpecFileError(f"unknown top-level key {extra[0]!r}; a spec holds only dim, order and polys")
    dim = _integer(data.get("dim"), "dim")
    order = _integer(data.get("order"), "order")
    if dim < 1 or order < 1:
        raise SpecFileError(f"dim and order must be positive, got {dim} and {order}")
    return MappingJet(dim, order, _read_blocks(data.get("polys", []), dim, order))


def load(path: str | Path) -> MappingJet:
    return loads(Path(path).read_text(encoding="utf-8"))


def load_matrix(path: str | Path, n: int) -> np.ndarray:
    """Read an n x n complex matrix: a JSON list of rows of [re, im] pairs."""
    return _complex_array(_parse(Path(path).read_text(encoding="utf-8")), (n, n), "matrix")


def save(jet: MappingJet, path: str | Path) -> None:
    Path(path).write_text(dumps(jet), encoding="utf-8")

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
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from pathlib import Path

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


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _unpair(v, where: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SpecFileError(f"{where}: expected a [re, im] pair, got {v!r}")
    try:
        z = complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError):
        raise SpecFileError(f"{where}: expected two numbers, got {v!r}") from None
    if not cmath.isfinite(z):
        raise SpecFileError(f"{where}: value {v!r} is not finite")
    return z


def _degree(block, where: str) -> int:
    if not isinstance(block, dict) or "degree" not in block:
        raise SpecFileError(f"{where}: every block needs a \"degree\"")
    try:
        return int(block["degree"])
    except (TypeError, ValueError):
        raise SpecFileError(f"{where}: invalid degree {block['degree']!r}") from None


def jet_to_dict(jet: MappingJet) -> dict:
    polys = []
    for k in sorted(jet.polys):
        P = jet.polys[k]
        entries = [
            {"index": list(idx), "value": [_pair(z) for z in vec]}
            for idx, vec in sorted(P.coeffs.items())
        ]
        polys.append({"degree": k, "entries": entries})
    return {"dim": jet.dim, "order": jet.order, "polys": polys}


def spec_to_dict(spec: MappingSpec) -> dict:
    out = jet_to_dict(spec.jet)
    if spec.onedim is not None:
        polys = []
        for k in sorted(spec.onedim.scalar_polys):
            p = spec.onedim.scalar_polys[k]
            entries = [
                {"index": list(idx), "value": _pair(vec[0])}
                for idx, vec in sorted(p.coeffs.items())
            ]
            polys.append({"degree": k, "entries": entries})
        out["onedim"] = {"polys": polys}
    return out


def spec_from_dict(data: dict) -> MappingSpec:
    try:
        dim = int(data["dim"])
        order = int(data["order"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFileError(f"missing or invalid dim/order: {exc}") from exc
    if dim < 1:
        raise SpecFileError(f"dim must be positive, got {dim}")
    polys: dict[int, HomPoly] = {}
    for block in data.get("polys", []):
        k = _degree(block, "polys")
        coeffs = {}
        for entry in block.get("entries", []):
            idx = tuple(int(i) for i in entry["index"])
            vals = entry["value"]
            if len(vals) != dim:
                raise SpecFileError(
                    f"degree-{k} entry at {idx}: expected {dim} components"
                )
            coeffs[idx] = np.array(
                [_unpair(v, f"degree-{k} entry {idx}") for v in vals]
            )
        try:
            polys[k] = HomPoly(k, dim, dim, coeffs)
        except ValueError as exc:
            raise SpecFileError(str(exc)) from exc
    try:
        jet = MappingJet(dim, order, polys)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc

    onedim = None
    if "onedim" in data:
        if not isinstance(data["onedim"], dict):
            raise SpecFileError(
                f"onedim must be an object with \"polys\", got {data['onedim']!r}"
            )
        scalar_polys: dict[int, ScalarHomPoly] = {}
        for block in data["onedim"].get("polys", []):
            k = _degree(block, "onedim polys")
            coeffs = {}
            for entry in block.get("entries", []):
                idx = tuple(int(i) for i in entry["index"])
                coeffs[idx] = [_unpair(entry["value"], f"onedim degree-{k} {idx}")]
            try:
                scalar_polys[k] = ScalarHomPoly(k, dim, coeffs)
            except ValueError as exc:
                raise SpecFileError(str(exc)) from exc
        try:
            onedim = OneDimJet(dim, order, scalar_polys)
        except ValueError as exc:
            raise SpecFileError(str(exc)) from exc
    return MappingSpec(jet=jet, onedim=onedim)


def dumps(spec: MappingSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> MappingSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(data, dict):
        raise SpecFileError("top level of a spec file must be an object")
    return spec_from_dict(data)


def load(path: str | Path) -> MappingSpec:
    return loads(Path(path).read_text())


def save(spec: MappingSpec, path: str | Path) -> None:
    Path(path).write_text(dumps(spec))

"""Canonical JSON documents for constructed maps.

The on-disk form is versioned ("interval-map/1"), has sorted keys, and writes
every scalar through the canonical text form (lowest-terms 'num/den' for
rationals, shortest round-trip decimals for floats), so serializing a loaded
document reproduces it byte for byte and documents diff cleanly.
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import __version__
from .construct import ConstructedMap
from .kernel import Scalar, is_exact, scalar_from_str, scalar_to_str
from .plmap import Interval, PLMap

FORMAT_ID = "interval-map/1"
TOOL_ID = f"intervalmaps {__version__}"

__all__ = [
    "FORMAT_ID",
    "MapDocument",
    "document_for",
    "load_document",
    "save_document",
]


@dataclass
class MapDocument:
    """A constructed map plus parameters, markers and provenance."""

    p: int
    doublings: int
    slope: Scalar
    tol: float
    rescale: bool
    breakpoints: Tuple[Scalar, ...]
    values: Tuple[Scalar, ...]
    markers: Optional[dict]  # {"orbit": [...], "t": Scalar, "intervals": {name: (lo, hi)}}
    provenance: dict

    def plmap(self) -> PLMap:
        return PLMap(self.breakpoints, self.values)

    @property
    def mode(self) -> str:
        return "rational" if is_exact(self.slope) else "floating"

    @property
    def claimed_type(self) -> int:
        return (2 ** self.doublings) * self.p

    @property
    def target_entropy(self) -> float:
        import math

        return math.log(float(self.slope)) / (2 ** self.doublings)

    def partition(self) -> Optional[List[Tuple[str, Interval]]]:
        if not self.markers:
            return None
        items = [
            (name, Interval(lo, hi))
            for name, (lo, hi) in self.markers["intervals"].items()
        ]
        return sorted(items, key=lambda kv: (kv[1].lo, kv[1].hi))

    def to_dict(self) -> dict:
        markers = None
        if self.markers is not None:
            markers = {
                "orbit": [scalar_to_str(x) for x in self.markers["orbit"]],
                "t": scalar_to_str(self.markers["t"]),
                "intervals": {
                    name: [scalar_to_str(lo), scalar_to_str(hi)]
                    for name, (lo, hi) in self.markers["intervals"].items()
                },
            }
        return {
            "format": FORMAT_ID,
            "params": {
                "p": self.p,
                "d": self.doublings,
                "lambda": scalar_to_str(self.slope),
                "mode": self.mode,
                "tol": self.tol,
                "rescale": self.rescale,
            },
            "breakpoints": [scalar_to_str(b) for b in self.breakpoints],
            "values": [scalar_to_str(v) for v in self.values],
            "markers": markers,
            "provenance": dict(self.provenance),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, obj: dict) -> "MapDocument":
        fmt = obj.get("format") if isinstance(obj, dict) else None
        if fmt != FORMAT_ID:
            raise ValueError(f"unsupported document format {fmt!r}")
        params = obj.get("params")
        if not isinstance(params, dict):
            raise ValueError("document field 'params' is missing or not an object")
        try:
            return cls._from_fields(obj, params)
        except KeyError as exc:
            raise ValueError(f"document lacks field {exc}") from None

    @classmethod
    def _from_fields(cls, obj: dict, params: dict) -> "MapDocument":
        markers = obj.get("markers")
        parsed_markers = None
        if markers is not None:
            parsed_markers = {
                "orbit": [scalar_from_str(x) for x in markers["orbit"]],
                "t": scalar_from_str(markers["t"]),
                "intervals": {
                    name: (scalar_from_str(lo), scalar_from_str(hi))
                    for name, (lo, hi) in markers["intervals"].items()
                },
            }
        doc = cls(
            p=int(params["p"]),
            doublings=int(params["d"]),
            slope=scalar_from_str(params["lambda"]),
            tol=float(params["tol"]),
            rescale=bool(params["rescale"]),
            breakpoints=tuple(scalar_from_str(b) for b in obj["breakpoints"]),
            values=tuple(scalar_from_str(v) for v in obj["values"]),
            markers=parsed_markers,
            provenance=dict(obj["provenance"]),
        )
        doc.plmap()  # a loaded document must validate as a map
        return doc

    @classmethod
    def from_json(cls, text: str) -> "MapDocument":
        return cls.from_dict(json.loads(text))


def document_for(
    built: ConstructedMap,
    final_map: PLMap,
    doublings: int,
    rescale: bool,
) -> MapDocument:
    """Document for a finished build. Markers are carried only when the final
    map IS the base construction (no doublings); the square-root conjugacy
    does not preserve them."""
    markers = None
    if doublings == 0:
        markers = {
            "orbit": list(built.orbit),
            "t": built.t,
            "intervals": {
                name: (iv.lo, iv.hi) for name, iv in built.intervals.items()
            },
        }
    return MapDocument(
        p=built.params.p,
        doublings=doublings,
        slope=built.params.slope,
        tol=built.params.tol,
        rescale=rescale,
        breakpoints=final_map.breakpoints,
        values=final_map.values,
        markers=markers,
        provenance={
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "tool": TOOL_ID,
        },
    )


def save_document(doc: MapDocument, path: str) -> None:
    """Whole-file atomic write (temp file in the same directory, then rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(doc.to_json())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_document(path: str) -> MapDocument:
    with open(path, "r") as handle:
        return MapDocument.from_json(handle.read())

"""Canonical JSON documents for constructed maps.

The on-disk form is versioned ("interval-map/1"), has sorted keys, and writes
every scalar through the canonical text form (lowest-terms 'num/den' for
rationals, shortest round-trip decimals for floats), so serializing a loaded
document reproduces it byte for byte. A loaded document is checked as a
construction: its "tol" must be FLOAT_TOL, its "mode" must name the
exactness of its map and slope, "p" and "d" must be JSON integers and
"rescale" a JSON bool, its params pass ConstructionParams and its markers
are re-verified against its map. Rational texts become Fractions by one gcd
each (kernel.scalar_from_str), with no Fraction arithmetic, and the exact
map, the slope check and the marker orbit run on ints from there.
document_for is the one builder from ConstructionParams to a document.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .construct import ConstructionParams, Markers, odd_type_map, square_root, verify_markers
from .kernel import FLOAT_TOL, is_exact, scalar_from_str, scalar_to_str
from .plmap import Interval, PLMap

FORMAT_ID = "interval-map/1"
TOOL_ID = f"intervalmaps {__version__}"

__all__ = [
    "FORMAT_ID",
    "MapDocument",
    "document_for",
    "load_document",
    "save_document",
    "write_text_atomic",
]


@dataclass(frozen=True)
class MapDocument:
    """A constructed map plus its build parameters, markers and provenance."""

    params: ConstructionParams
    rescale: bool
    map: PLMap
    markers: Optional[Markers]
    provenance: dict

    @property
    def mode(self) -> str:
        return "rational" if is_exact(self.params.slope) else "floating"

    def to_dict(self) -> dict:
        markers = None
        if self.markers is not None:
            markers = {
                "orbit": [scalar_to_str(x) for x in self.markers.orbit],
                "t": scalar_to_str(self.markers.t),
                "intervals": {
                    name: [scalar_to_str(iv.lo), scalar_to_str(iv.hi)]
                    for name, iv in self.markers.intervals.items()
                },
            }
        return {
            "format": FORMAT_ID,
            "params": {
                "p": self.params.p,
                "d": self.params.doublings,
                "lambda": scalar_to_str(self.params.slope),
                "mode": self.mode,
                "tol": FLOAT_TOL,
                "rescale": self.rescale,
            },
            "breakpoints": [scalar_to_str(b) for b in self.map.breakpoints],
            "values": [scalar_to_str(v) for v in self.map.values],
            "markers": markers,
            "provenance": dict(self.provenance),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, obj: dict) -> "MapDocument":
        """Parse a document and check it as a construction (see the module
        docstring); markers, if any, must belong to d = 0."""
        fmt = obj.get("format") if isinstance(obj, dict) else None
        if fmt != FORMAT_ID:
            raise ValueError(f"unsupported document format {fmt!r}")
        params = obj.get("params")
        if not isinstance(params, dict):
            raise ValueError("document field 'params' is missing or not an object")
        try:
            if params["tol"] != FLOAT_TOL:
                raise ValueError(
                    f"document field 'tol' must be {FLOAT_TOL!r}, got {params['tol']!r}"
                )
            markers = obj.get("markers")
            doc = cls(
                params=ConstructionParams(
                    _typed(params, "p", int, "an integer"),
                    _typed(params, "d", int, "an integer"),
                    scalar_from_str(params["lambda"]),
                ),
                rescale=_typed(params, "rescale", bool, "true or false"),
                map=PLMap(
                    tuple(scalar_from_str(b) for b in obj["breakpoints"]),
                    tuple(scalar_from_str(v) for v in obj["values"]),
                ),
                markers=None if markers is None else _markers_from_dict(markers),
                provenance=dict(obj["provenance"]),
            )
            if doc.map.is_exact != is_exact(doc.params.slope):
                raise ValueError(
                    f"document field 'lambda' is {doc.mode} but the map is "
                    f"{'rational' if doc.map.is_exact else 'floating'}"
                )
            if params["mode"] != doc.mode:
                raise ValueError(
                    f"document field 'mode' must be {doc.mode!r} for a {doc.mode} map, "
                    f"got {params['mode']!r}"
                )
        except KeyError as exc:
            raise ValueError(f"document lacks field {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed document: {exc}") from None
        if doc.markers is not None:
            if doc.params.doublings != 0:
                raise ValueError("markers belong to d = 0 documents only")
            verify_markers(doc.map, doc.params.p, doc.markers)
        return doc

    @classmethod
    def from_json(cls, text: str) -> "MapDocument":
        return cls.from_dict(json.loads(text))


def _typed(params: dict, name: str, kind: type, what: str):
    """params[name], which must have JSON type kind exactly (so a bool is no int)."""
    value = params[name]
    if type(value) is not kind:
        raise ValueError(f"malformed document: field {name!r} must be {what}, got {value!r}")
    return value


def _markers_from_dict(obj: dict) -> Markers:
    """Markers from their document form; names a reversed marker interval."""
    intervals = {}
    for name, (lo, hi) in obj["intervals"].items():
        lo, hi = scalar_from_str(lo), scalar_from_str(hi)
        try:
            intervals[name] = Interval(lo, hi)  # which refuses lo > hi
        except ValueError:
            raise ValueError(
                f"marker interval {name} = [{scalar_to_str(lo)}, "
                f"{scalar_to_str(hi)}] has its ends out of order"
            ) from None
    orbit = tuple(scalar_from_str(x) for x in obj["orbit"])
    return Markers(orbit, scalar_from_str(obj["t"]), intervals)


def document_for(params: ConstructionParams, rescale: bool = True) -> MapDocument:
    """Build the map params describe, of type 2^d * p and entropy
    log(slope) / 2^d: the odd-type map followed by d square roots. Markers
    are carried only when d = 0; the square-root conjugacy does not preserve
    them. A root that is no map (in floating mode, rounding merges two
    breakpoints or two values once the map's features shrink below an ulp)
    raises ValueError naming the root and d."""
    built = odd_type_map(params.p, params.slope)
    final = built.map
    for k in range(1, params.doublings + 1):
        try:
            final = square_root(final, rescale=rescale)
        except ValueError as exc:
            raise ValueError(
                f"square root {k} of d = {params.doublings} is not a valid map: {exc}"
            ) from None
    return MapDocument(
        params=params,
        rescale=rescale,
        map=final,
        markers=built.markers if params.doublings == 0 else None,
        provenance={
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "tool": TOOL_ID,
        },
    )


def write_text_atomic(path: str, text: str) -> None:
    """Whole-file atomic write (temp file in the same directory, then rename).
    The temp file is created with mode 0o666, which the kernel reduces by the
    umask, so the file gets the mode a plain write would and the process
    umask is never changed. A failed write raises an OSError that names path,
    not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name  # ours to remove only once O_EXCL has created it
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), path) from None
        raise


def save_document(doc: MapDocument, path: str) -> None:
    write_text_atomic(path, doc.to_json())


def load_document(path: str) -> MapDocument:
    with open(path, "r") as handle:
        return MapDocument.from_json(handle.read())

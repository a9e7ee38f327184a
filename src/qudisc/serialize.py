"""JSON wire formats for matrices, states, protocols, and configs.

Schemas (complex numbers are [re, im] pairs, matrices row-major):

    matrix   {"dim": d, "entries": [[re, im], ...]}        len d*d
    state    {"dim": d, "amplitudes": [[re, im], ...]}     len d
    protocol {"system_dim": d, "ancilla_dim": a, "queries": T,
              "probe": <state>, "interleavers": [<matrix>, ...]}
    search   {"queries": T, "restarts": n, "max_iterations": m,
              "step_tolerance": x, "seed": s}

Floats are emitted with Python's shortest round-trip representation, so
parsing back reproduces every value bit for bit. The readers only map JSON
to Python, with an integral float such as ``2.0`` read as an int; the
constructors of ``Protocol`` and of the configs check every field, and
``config_from_fields`` reads every config by its dataclass fields.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .builder import SearchConfig
from .errors import CapacityError, ValidationError
from .linalg import DIM_CAP, check_integer
from .protocol import Protocol


def _pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


def _from_pairs(pairs, what: str) -> np.ndarray:
    # JSON numbers only, read as int or float: numpy would take true (a bool, which subclasses
    # int) and the string "1" as floats too
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and set(map(type, p)) <= {int, float}
            for p in pairs)):
        raise ValidationError(f"{what}: entries must be [re, im] pairs of numbers")
    try:
        arr = np.array(pairs, dtype=float).reshape(-1, 2)
    except OverflowError as exc:  # an int beyond the float range
        raise ValidationError(f"{what}: entries must be finite") from exc
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what}: entries must be finite")
    return arr[:, 0] + 1j * arr[:, 1]


def _from_json_number(value):
    """JSON has one number type, so an integral float such as ``2.0`` is read as the int 2,
    element by element in lists; every other value is left for its constructor to check."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, list):
        return [_from_json_number(v) for v in value]
    return value


def _dim_of(obj, what: str) -> int:
    """The declared dimension, checked against the cap before any entry is parsed."""
    dim = check_integer(_from_json_number(obj["dim"]), f"{what}: dim", 1)
    if dim > DIM_CAP:
        raise CapacityError(f"{what}: dim {dim} exceeds cap {DIM_CAP}")
    return dim


def matrix_to_obj(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {"dim": int(a.shape[0]), "entries": _pairs(a.ravel())}


def matrix_from_obj(obj, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValidationError(f"{what}: expected an object with 'dim' and 'entries'")
    dim = _dim_of(obj, what)
    flat = _from_pairs(obj["entries"], what)
    if flat.size != dim * dim:
        raise ValidationError(f"{what}: expected {dim * dim} entries, got {flat.size}")
    return flat.reshape(dim, dim)


def state_to_obj(v: np.ndarray) -> dict:
    a = np.asarray(v, dtype=complex)
    return {"dim": int(a.shape[0]), "amplitudes": _pairs(a)}


def state_from_obj(obj, what: str = "state") -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "amplitudes" not in obj:
        raise ValidationError(f"{what}: expected an object with 'dim' and 'amplitudes'")
    dim = _dim_of(obj, what)
    amps = _from_pairs(obj["amplitudes"], what)
    if amps.size != dim:
        raise ValidationError(f"{what}: expected {dim} amplitudes, got {amps.size}")
    return amps


def protocol_to_obj(p: Protocol) -> dict:
    return {
        "system_dim": p.system_dim,
        "ancilla_dim": p.ancilla_dim,
        "queries": p.queries,
        "probe": state_to_obj(p.probe),
        "interleavers": [matrix_to_obj(w) for w in p.interleavers],
    }


def protocol_from_obj(obj) -> Protocol:
    if not isinstance(obj, dict):
        raise ValidationError("protocol: expected a JSON object")
    try:
        interleavers = obj["interleavers"]
        if not isinstance(interleavers, list):
            raise ValidationError("protocol: interleavers must be a list of matrices")
        return Protocol(
            system_dim=_from_json_number(obj["system_dim"]),
            ancilla_dim=_from_json_number(obj["ancilla_dim"]),
            queries=_from_json_number(obj["queries"]),
            interleavers=[
                matrix_from_obj(w, f"interleaver {k}") for k, w in enumerate(interleavers)
            ],
            probe=state_from_obj(obj["probe"], "probe"),
        )
    except KeyError as exc:
        raise ValidationError(f"protocol: missing field {exc}") from exc


def config_from_fields(obj, cls, what: str):
    """Read a config object: each key present names one of ``cls``'s fields and its value goes
    to ``cls`` with integral floats read as ints, absent keys take ``cls``'s defaults, and
    ``cls`` checks every value when it is built. A key that names no field is refused, so a
    misspelt one is not silently dropped."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what}: expected a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise ValidationError(f"malformed {what}: unknown keys {', '.join(map(repr, unknown))}")
    try:
        return cls(**{k: _from_json_number(v) for k, v in obj.items()})
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def search_config_from_obj(obj) -> SearchConfig:
    return config_from_fields(obj, SearchConfig, "search config")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc

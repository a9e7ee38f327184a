"""JSON wire formats for matrices, states, protocols, and search configs.

Schemas (complex numbers are [re, im] pairs, matrices row-major):

    matrix   {"dim": d, "entries": [[re, im], ...]}        len d*d
    state    {"dim": d, "amplitudes": [[re, im], ...]}     len d
    protocol {"system_dim": d, "ancilla_dim": a, "queries": T,
              "probe": <state>, "interleavers": [<matrix>, ...]}
    search   {"queries": T, "restarts": n, "max_iterations": m,
              "step_tolerance": x, "seed": s}

Floats are emitted with Python's shortest round-trip representation, so
parsing back reproduces every value bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .builder import SearchConfig
from .errors import CapacityError, ValidationError
from .linalg import DIM_CAP
from .protocol import Protocol


def _pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


def _from_pairs(pairs, what: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: entries must be [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"{what}: entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what}: entries must be finite")
    return arr[:, 0] + 1j * arr[:, 1]


def _dim_of(obj, what: str) -> int:
    """The declared dimension, checked against the cap before any entry is parsed."""
    dim = int(obj["dim"])
    if dim < 1:
        raise ValidationError(f"{what}: dim must be positive")
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
        return Protocol(
            system_dim=int(obj["system_dim"]),
            ancilla_dim=int(obj["ancilla_dim"]),
            queries=int(obj["queries"]),
            interleavers=[
                matrix_from_obj(w, f"interleaver {k}")
                for k, w in enumerate(obj["interleavers"])
            ],
            probe=state_from_obj(obj["probe"], "probe"),
        )
    except KeyError as exc:
        raise ValidationError(f"protocol: missing field {exc}") from exc


# Search config keys and their types; absent keys take SearchConfig's defaults.
_SEARCH_FIELDS = {"queries": int, "restarts": int, "max_iterations": int,
                  "step_tolerance": float, "seed": int}


def search_config_from_obj(obj) -> SearchConfig:
    if not isinstance(obj, dict):
        raise ValidationError("search config: expected a JSON object")
    try:
        return SearchConfig(**{k: cast(obj[k]) for k, cast in _SEARCH_FIELDS.items() if k in obj})
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed search config: {exc}") from exc


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc

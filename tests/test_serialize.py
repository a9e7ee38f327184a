import dataclasses

import numpy as np
import pytest

from qudisc import CapacityError, Protocol, ValidationError, haar_unitary_from_rng
from qudisc.serialize import (
    matrix_from_obj,
    matrix_to_obj,
    protocol_from_obj,
    protocol_to_obj,
    search_config_from_obj,
    state_from_obj,
    state_to_obj,
)
from qudisc.builder import SearchConfig


def test_matrix_round_trip_is_exact():
    m = haar_unitary_from_rng(3, np.random.default_rng(99))
    assert np.array_equal(matrix_from_obj(matrix_to_obj(m)), m)


def test_state_round_trip_is_exact():
    v = np.array([0.6, 0.8j], dtype=complex)
    assert np.array_equal(state_from_obj(state_to_obj(v)), v)


def test_matrix_validation():
    with pytest.raises(ValidationError):
        matrix_from_obj({"dim": 2, "entries": [[1, 0]]})  # wrong length
    with pytest.raises(ValidationError):
        matrix_from_obj({"dim": 2, "entries": [[1, 0, 0]] * 4})  # not pairs
    with pytest.raises(ValidationError):
        matrix_from_obj({"entries": []})
    with pytest.raises(ValidationError):
        matrix_from_obj({"dim": 1, "entries": [[float("nan"), 0]]})


def test_state_validation():
    with pytest.raises(ValidationError):
        state_from_obj({"dim": 3, "amplitudes": [[1, 0]]})


def test_dim_cap_checked_before_entries():
    # the empty entry list would be a ValidationError; the cap must fire first
    with pytest.raises(CapacityError):
        matrix_from_obj({"dim": 4097, "entries": []})
    with pytest.raises(CapacityError):
        state_from_obj({"dim": 4097, "amplitudes": []})


def test_protocol_round_trip():
    probe = np.zeros(4, dtype=complex)
    probe[0] = 1.0
    p = Protocol(
        system_dim=2,
        ancilla_dim=2,
        queries=1,
        interleavers=[
            haar_unitary_from_rng(4, np.random.default_rng(1)),
            haar_unitary_from_rng(4, np.random.default_rng(2)),
        ],
        probe=probe,
    )
    q = protocol_from_obj(protocol_to_obj(p))
    assert q.system_dim == 2 and q.ancilla_dim == 2 and q.queries == 1
    assert np.array_equal(q.probe, p.probe)
    for a, b in zip(q.interleavers, p.interleavers):
        assert np.array_equal(a, b)


def test_protocol_missing_field():
    with pytest.raises(ValidationError):
        protocol_from_obj({"system_dim": 2})


def test_search_config_round_trip():
    cfg = SearchConfig(queries=3, restarts=5, max_iterations=17, step_tolerance=1e-5, seed=12)
    assert search_config_from_obj(dataclasses.asdict(cfg)) == cfg


def test_search_config_defaults_and_errors():
    cfg = search_config_from_obj({"queries": 2})
    assert cfg.restarts == 8
    with pytest.raises(ValidationError):
        search_config_from_obj({"restarts": 2})
    with pytest.raises(ValidationError):
        search_config_from_obj("queries=2")

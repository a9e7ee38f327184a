import dataclasses
import json

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
from qudisc.campaign import CampaignConfig, config_from_obj


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


def test_protocol_with_numpy_counts_writes_json():
    # json.dumps raised "Object of type int64 is not JSON serializable"
    p = Protocol(np.int64(2), np.int32(1), np.uint8(0), [np.eye(2)], np.array([1.0, 0.0]))
    assert json.loads(json.dumps(protocol_to_obj(p)))["system_dim"] == 2


def test_protocol_counts_read_integral_floats():
    obj = protocol_to_obj(Protocol(2, 1, 0, [np.eye(2)], np.array([1.0, 0.0])))
    p = protocol_from_obj({**obj, "system_dim": 2.0, "queries": 0.0})
    assert repr((p.system_dim, p.queries)) == "(2, 0)"


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


def test_search_config_takes_absent_keys_from_the_dataclass():
    assert search_config_from_obj({"queries": 3}) == SearchConfig(queries=3)
    for bad in ({"queries": "three"}, {"queries": 3, "restarts": None},
                {"queries": 3, "step_tolerance": [1e-3]}):
        with pytest.raises(ValidationError, match="malformed search config"):
            search_config_from_obj(bad)


@pytest.mark.parametrize("value", [None, 2.7, "2", True, float("nan"), float("inf"), [2]])
def test_dim_must_be_an_integer(value):
    with pytest.raises(ValidationError, match="matrix: dim must be an integer"):
        matrix_from_obj({"dim": value, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]})
    with pytest.raises(ValidationError, match="state: dim must be an integer"):
        state_from_obj({"dim": value, "amplitudes": [[1, 0], [0, 0]]})


def test_integral_float_fields_are_read_as_integers():
    assert matrix_from_obj({"dim": 1.0, "entries": [[1, 0]]}).shape == (1, 1)
    cfg = search_config_from_obj({"queries": 2.0, "restarts": 3, "step_tolerance": 1})
    assert (cfg.queries, cfg.restarts, cfg.step_tolerance) == (2, 3, 1.0)
    assert type(cfg.queries) is int and type(cfg.step_tolerance) is float


def test_search_config_refuses_non_integral_counts():
    for bad in ({"queries": 2.5}, {"queries": 2, "seed": 1.5}, {"queries": False},
                {"queries": 2, "step_tolerance": True}):
        with pytest.raises(ValidationError, match="malformed search config"):
            search_config_from_obj(bad)


def test_search_config_refuses_unknown_keys():
    # "restart" was dropped, so the search kept its default of 8 restarts
    with pytest.raises(ValidationError, match="unknown keys 'restart'"):
        search_config_from_obj({"queries": 2, "restart": 5})


def test_search_config_seed_is_a_u64():
    # numpy refused a negative seed later with a message that named no field
    for seed in (-4, 2**64):
        with pytest.raises(ValidationError, match="seed"):
            search_config_from_obj({"queries": 2, "seed": seed})
        with pytest.raises(ValidationError, match="seed"):
            SearchConfig(queries=2, seed=seed)


# Each config's class, its JSON reader, and the fewest keys it needs.
CONFIGS = {
    "search": (SearchConfig, search_config_from_obj, {"queries": 2}),
    "campaign": (CampaignConfig, config_from_obj,
                 {"instances": 1, "dim": 2, "t_range": [1, 1], "seed": 1}),
}


@pytest.mark.parametrize("config, field, value", [
    ("search", "queries", 2.5),
    ("search", "queries", "2"),
    ("search", "restarts", True),
    ("search", "restarts", 0),
    ("search", "max_iterations", None),
    ("search", "seed", -1),
    ("search", "step_tolerance", True),  # was accepted from Python as 1.0
    ("search", "step_tolerance", "0.1"),  # raised an untyped TypeError from Python
    ("search", "step_tolerance", None),
    ("search", "step_tolerance", [1e-3]),
    ("search", "step_tolerance", 2),
    ("campaign", "instances", 1.5),
    ("campaign", "instances", False),
    ("campaign", "dim", "2"),
    ("campaign", "dim", 1),
    ("campaign", "t_range", [1, 2.5]),
    ("campaign", "t_range", [1, 2, 3]),
    ("campaign", "t_range", "12"),
    ("campaign", "seed", 2**64),
    ("campaign", "protocol_source", 5),
    ("campaign", "protocol_source", "psychic"),
])
def test_python_and_json_refuse_the_same_values(config, field, value):
    cls, from_obj, needed = CONFIGS[config]
    for build in (lambda fields: cls(**fields), from_obj):
        with pytest.raises(ValidationError, match=field):
            build({**needed, field: value})


@pytest.mark.parametrize("config, field, value, read", [
    ("search", "queries", 2.0, 2),
    ("search", "step_tolerance", 1, 1.0),
    ("search", "seed", 7.0, 7),
    ("campaign", "t_range", [1.0, 2.0], (1, 2)),
])
def test_json_numbers_are_read_as_python_values(config, field, value, read):
    _, from_obj, needed = CONFIGS[config]
    # repr tells 2 from 2.0 and a tuple from a list
    assert repr(getattr(from_obj({**needed, field: value}), field)) == repr(read)

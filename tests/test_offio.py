"""OFF mesh round trips, JSON emission, measurement (de)serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from polyrig.errors import ParseError
from polyrig.generators import platonic
from polyrig.geometry import DihedralAngle, FaceAngle, FaceDistance
from polyrig.offio import (
    format_float,
    json_dumps,
    measurement_to_dict,
    off_text,
    parse_measurement_set,
    parse_point_config,
    read_off,
)
from polyrig.pointsets import Angle, DiagonalAngle, Distance, MeasurementIds

from measurement_json import measurements_to_json
from reference_json import reference_dumps


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert float(format_float(np.pi)) == np.pi


def test_json_dumps_sorted_and_parseable():
    blob = json_dumps({"b": [1.5, True, None], "a": {"z": 0.1, "y": 2}})
    back = json.loads(blob)
    assert back == {"b": [1.5, True, None], "a": {"z": 0.1, "y": 2}}
    assert blob.index('"a"') < blob.index('"b"')
    assert blob.endswith("\n")
    assert "0.10000000000000001" in blob
    # control characters and quotes in keys and strings stay valid JSON
    odd = {'k"\x01': 'a\x01b"\\\n'}
    assert json.loads(json_dumps(odd)) == odd


def test_json_dumps_numpy_arrays():
    blob = json_dumps({"v": np.array([[1.0, 2.0], [3.0, 4.0]])})
    assert json.loads(blob) == {"v": [[1.0, 2.0], [3.0, 4.0]]}


class _Opaque:
    """An object that no JSON form takes."""


_JSON_SCALARS = (
    st.integers() | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(0, 255).map(np.uint8) | st.integers(-(2**31), 2**31 - 1).map(np.int32)
    | st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0])
    | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
    | st.booleans() | st.none() | st.text()
    | st.sampled_from(["\x00\x1f\x7f", "\u00e9\u4e2d\U0001f600", '"\\/\n\t'])
    | arrays(st.sampled_from([np.float64, np.int64, np.float32]),
             array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
)
_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=40,
)
# payloads with keys that are no str and values that no JSON form takes
_BAD_PAYLOADS = st.recursive(
    _JSON_SCALARS | st.sampled_from([_Opaque(), 1j, b"x", np.bool_(False), frozenset({1})]),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=2) | st.integers(0, 3) | st.none(), inner, max_size=3)
    ),
    max_leaves=12,
)


def _dumps_or_error(dumps, obj):
    try:
        return dumps(obj)
    except TypeError as exc:
        return f"TypeError: {exc}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_PAYLOADS)
def test_json_dumps_is_the_reference_emitter_byte_for_byte(payload):
    """Nested dicts, lists and tuples of ints, numpy integers, floats and
    numpy floats (nan, infinities and -0.0 among them), bools, None,
    strings with control and non-ASCII characters, and arrays."""
    assert json_dumps(payload) == reference_dumps(payload)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_BAD_PAYLOADS)
def test_json_dumps_fails_as_the_reference_fails(payload):
    assert _dumps_or_error(json_dumps, payload) == _dumps_or_error(reference_dumps, payload)


@pytest.mark.parametrize("payload", [
    {1: "a"}, {"a": 1, 2: "b"}, {"a": [1, {"b": {0.5: None}}]}, {None: 1},
    _Opaque(), [1, 2, _Opaque()], {"a": (1, 1j)}, {"b": b"bytes"}, {"c": {1, 2}},
    [np.bool_(True)], {"d": [1, 2, object()]},
], ids=["int-key", "mixed-keys", "nested-float-key", "none-key", "object", "object-in-list",
        "complex", "bytes", "set", "numpy-bool", "object-in-int-list"])
def test_json_dumps_raises_the_reference_type_error(payload):
    """A non-str key, and a value no JSON form takes, raise the TypeError
    the reference raises, with its message."""
    assert _dumps_or_error(json_dumps, payload).startswith("TypeError: ")
    assert _dumps_or_error(json_dumps, payload) == _dumps_or_error(reference_dumps, payload)


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "dodecahedron"])
def test_off_round_trip(name):
    poly, real = platonic(name)
    text = off_text(real.vertices, poly.faces)
    coords, faces = read_off(text)
    assert np.abs(coords - real.vertices).max() == 0.0
    assert [tuple(f) for f in faces] == [tuple(f) for f in poly.faces]
    # and byte-identical on a second pass
    assert off_text(coords, faces) == text


def test_off_header_counts():
    text = off_text(np.zeros((3, 3)) + np.eye(3), [(0, 1, 2)])
    lines = text.splitlines()
    assert lines[0] == "OFF"
    assert lines[1].split() == ["3", "1", "3"]


def test_off_2d_points_get_zero_z():
    text = off_text(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0, 1, 2)])
    coords, _ = read_off(text)
    assert coords.shape == (3, 3)
    assert np.abs(coords[:, 2]).max() == 0.0


def test_read_off_tolerates_comments_and_spacing():
    text = "# comment\nOFF # inline\n\n3 1 3\n0 0 0\n1 0 0  # vertex\n0 1 0\n3 0 1 2\n"
    coords, faces = read_off(text)
    assert coords.shape == (3, 3)
    assert faces == [(0, 1, 2)]


@pytest.mark.parametrize(
    "bad",
    [
        "NOTOFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        "OFF\n3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        "OFF\n3 1 3\n0 0 x\n1 0 0\n0 1 0\n3 0 1 2\n",
        "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n",
        "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n7\n",
        "OFF\n4 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n",
        "OFF\n3 1 3\n0 0 nan\n1 0 0\n0 1 0\n3 0 1 2\n",
        "OFF\n3 1 3\n0 0 0\n1 inf 0\n0 1 0\n3 0 1 2\n",
    ],
)
def test_read_off_rejects_malformed(bad):
    with pytest.raises(ParseError):
        read_off(bad)


ALL_KINDS = [
    FaceDistance(0, 3),
    FaceAngle(2, 0, 5),
    DihedralAngle(1, 4),
    Distance(0, 1),
    Angle(0, 1, 2),
    DiagonalAngle(0, 1, 2, 3),
]


@pytest.mark.parametrize("m", ALL_KINDS, ids=lambda m: type(m).__name__)
def test_measurement_dict_round_trip(m):
    d = measurement_to_dict(m)
    assert set(d) == {"type", "ids"}
    assert parse_measurement_set({"dim": 3, "measurements": [d]})[1][0] == m


def _parse_entry(entry):
    return parse_measurement_set({"dim": 3, "measurements": [entry]})


def test_measurement_from_dict_rejects_garbage():
    with pytest.raises(ParseError):
        _parse_entry({"type": "laser", "ids": [0, 1]})
    with pytest.raises(ParseError):
        _parse_entry({"type": "distance", "ids": [0]})
    with pytest.raises(ParseError):
        _parse_entry({"type": "distance", "ids": [0, True]})
    with pytest.raises(ParseError):
        _parse_entry({"type": "distance", "ids": [0.5, 1]})
    with pytest.raises(ParseError):
        _parse_entry(["distance", 0, 1])


def test_measurement_set_round_trip():
    ms = [Distance(0, 1), Angle(0, 1, 2)]
    blob = measurements_to_json(2, ms)
    dim, back = parse_measurement_set(json.loads(blob))
    assert dim == 2
    assert back == ms


def test_measurement_set_validation():
    with pytest.raises(ParseError):
        parse_measurement_set([1, 2])
    with pytest.raises(ParseError):
        parse_measurement_set({"dim": 4, "measurements": []})
    with pytest.raises(ParseError):
        parse_measurement_set({"dim": 2, "measurements": []})
    with pytest.raises(ParseError):
        # mesh measurement under dim 2
        parse_measurement_set(
            {"dim": 2, "measurements": [{"type": "dihedral", "ids": [0, 1]}]}
        )
    dim, ms = parse_measurement_set(
        {"dim": 3, "measurements": [{"type": "face_distance", "ids": [0, 1]}]}
    )
    assert dim == 3 and ms == [FaceDistance(0, 1)]


def _entry(kind, ids):
    return {"dim": 3, "measurements": [{"type": kind, "ids": ids}]}


@pytest.mark.parametrize("obj, message", [
    ([1, 2], "measurement set must be a JSON object"),
    ({"dim": 4, "measurements": []}, "'dim' must be 2 or 3, got 4"),
    ({"dim": 3, "measurements": []}, "'measurements' must be a nonempty list"),
    ({"dim": 3, "measurements": [["distance", 0, 1]]},
     "measurement must be {'type', 'ids'}, got ['distance', 0, 1]"),
    (_entry("laser", [0, 1]), "unknown measurement type 'laser'; expected one of ['angle', "
     "'diagonal_angle', 'dihedral', 'distance', 'face_angle', 'face_distance']"),
    (_entry("distance", [0]), "distance needs 2 integer ids, got [0]"),
    (_entry("angle", [0, 1]), "angle needs 3 integer ids, got [0, 1]"),
    (_entry("diagonal_angle", [0, 1, 2]), "diagonal_angle needs 4 integer ids, got [0, 1, 2]"),
    (_entry("face_distance", [0, True]), "face_distance needs 2 integer ids, got [0, True]"),
    (_entry("face_angle", [0, 1, 2.0]), "face_angle needs 3 integer ids, got [0, 1, 2.0]"),
    (_entry("dihedral", [0, 1, 2]), "dihedral needs 2 integer ids, got [0, 1, 2]"),
    (_entry("dihedral", "01"), "dihedral needs 2 integer ids, got '01'"),
    ({"dim": 2, "measurements": [{"type": "dihedral", "ids": [0, 1]}]},
     "dihedral is a mesh measurement; dim 2 takes ['angle', 'diagonal_angle', 'distance']"),
    (_entry("face_distance", [0, 10**30]), f"vertex id {10**30} out of range"),
])
def test_measurement_set_errors_name_what_is_wrong(obj, message):
    with pytest.raises(ParseError) as err:
        parse_measurement_set(obj)
    assert str(err.value) == message


def test_measurement_set_parses_to_index_arrays():
    """Each entry's ids go to the arrays of its type; the set reads back as
    its measurement objects, in order. An id too large for an index array
    is an input error."""
    entries = [{"type": "face_angle", "ids": [0, 1, 2]}, {"type": "dihedral", "ids": [1, 2]},
               {"type": "face_angle", "ids": [3, 1, 2]}]
    dim, ms = parse_measurement_set({"dim": 3, "measurements": entries})
    assert isinstance(ms, MeasurementIds)
    assert ms.ids[FaceAngle][0].tolist() == [0, 2] and ms.ids[DihedralAngle][0].tolist() == [1]
    assert ms == [FaceAngle(0, 1, 2), DihedralAngle(1, 2), FaceAngle(3, 1, 2)]
    huge = [{"type": "face_distance", "ids": [0, 10**30]}]
    with pytest.raises(ParseError, match=f"vertex id {10**30} out of range"):
        parse_measurement_set({"dim": 3, "measurements": huge})


def test_point_config_parsing():
    obj = {
        "dim": 3,
        "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "coplanar": [[0, 1, 2, 3]],
    }
    dim, pts, cop = parse_point_config(obj)
    assert dim == 3 and pts.shape == (4, 3) and len(cop) == 1
    with pytest.raises(ParseError):
        parse_point_config({"dim": 2, "points": [[0, 0]], "coplanar": []})
    with pytest.raises(ParseError):
        parse_point_config({"dim": 2, "points": [[0, 0], [1, 0, 0]]})
    with pytest.raises(ParseError):
        parse_point_config(
            {"dim": 2, "points": [[0, 0], [1, 0]], "coplanar": [[0, 1, 2, 3]]}
        )
    with pytest.raises(ParseError):
        parse_point_config(
            {"dim": 3, "points": obj["points"], "coplanar": [[0, 1, 2, 9]]}
        )


def test_point_config_rejects_a_bool_coplanar_id():
    # JSON true is a Python int, 1, but not a point id; a bool measurement id
    # is already rejected the same way
    cube = [[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)]
    for quad in ("[true, 2, 6, 5]", "[0, 1, 3, false]"):
        obj = json.loads(f'{{"dim": 3, "points": {cube}, "coplanar": [{quad}]}}')
        with pytest.raises(ParseError, match="coplanar entries are 4 point ids"):
            parse_point_config(obj)


def test_point_config_rejects_non_numeric():
    with pytest.raises(ParseError):
        parse_point_config({"dim": 2, "points": [[0, 0], ["a", 1]]})
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParseError):
            parse_point_config({"dim": 2, "points": [[0, 0], [bad, 1]]})


@pytest.mark.parametrize("dim", [2.0, 3.0, True, "2", None])
def test_dim_must_be_the_integer_2_or_3(dim):
    # 2.0 == 2 and True == 1, but neither is an integer dimension
    with pytest.raises(ParseError, match="'dim' must be 2 or 3"):
        parse_measurement_set({"dim": dim, "measurements": [{"type": "distance", "ids": [0, 1]}]})
    with pytest.raises(ParseError, match="'dim' must be 2 or 3"):
        parse_point_config({"dim": dim, "points": [[0, 0, 0], [1, 0, 0]]})


# arbitrary JSON values, with dims near 2 and 3, strings and bools where
# numbers belong, and non-finite and overflowing numbers
_SCALARS = (
    st.none() | st.booleans() | st.integers(-1, 4) | st.integers() | st.just(10**400)
    | st.floats() | st.sampled_from(["distance", "angle", "face_distance", "dihedral", "0"])
)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=30,
)


def _object(**fields):
    """JSON objects with some of `fields` (key: strategy), each value either
    drawn from its strategy or any JSON value."""
    return st.fixed_dictionaries({}, optional={k: v | JSON_VALUES for k, v in fields.items()})


_DIM = st.sampled_from([2, 3])
_IDS = st.lists(st.integers(-1, 4) | _SCALARS, max_size=5)
MEASUREMENT_SETS = _object(dim=_DIM, measurements=st.lists(
    _object(type=st.sampled_from(["distance", "angle", "face_angle"]) | _SCALARS, ids=_IDS),
    min_size=1, max_size=4))
POINT_CONFIGS = _object(
    dim=_DIM, points=st.lists(st.lists(_SCALARS, max_size=4), max_size=5), coplanar=st.lists(_IDS))


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES | MEASUREMENT_SETS | POINT_CONFIGS)
def test_parsers_raise_only_parse_error(obj):
    for parse in (parse_measurement_set, parse_point_config):
        try:
            parse(obj)
        except ParseError:
            pass


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty OFF file"),
        ("# only a comment\n", "empty OFF file"),
        ("OFF\n0 1 0\n", "bad counts in OFF header: 0 vertices, 1 faces"),
        ("OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n", "bad counts in OFF header: 3 vertices, -1 faces"),
        ("OFF\n3 1 3\n0 0 0\n1 0 0\n", "expected 9 vertex coordinates, file ends early"),
        ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n", "face 0: file ends before face line"),
        ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\nx 0 1 2\n", "face 0: bad vertex count 'x'"),
        ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "face 0: file ends mid-face"),
        ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 z\n", "face 0: non-integer vertex id"),
    ],
)
def test_read_off_names_what_is_wrong(text, message):
    with pytest.raises(ParseError) as info:
        read_off(text)
    assert str(info.value) == message


def test_writers_reject_what_they_cannot_write():
    """off_text takes (n, 2) or (n, 3) vertices, and measurement_to_dict
    only the measurement types of MEASUREMENT_TYPES."""
    with pytest.raises(ValueError, match=r"vertices must be \(n, 2\) or \(n, 3\), got \(4, 4\)"):
        off_text(np.zeros((4, 4)), [[0, 1, 2]])
    with pytest.raises(ValueError, match=r"got \(4,\)"):
        off_text(np.zeros(4), [[0, 1, 2]])
    with pytest.raises(TypeError, match="not a serializable measurement: tuple"):
        measurement_to_dict((0, 1))


def test_point_config_errors():
    """A JSON integer too large for a float is a non-finite coordinate, and
    coplanar constraints need dim 3."""
    huge = json.loads('{"dim": 2, "points": [[1' + "0" * 400 + ', 0], [1, 0]]}')
    with pytest.raises(ParseError, match="non-finite point coordinate"):
        parse_point_config(huge)
    square = {"dim": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1]], "coplanar": [[0, 1, 2, 3]]}
    with pytest.raises(ParseError, match="coplanar constraints require dim 3"):
        parse_point_config(square)

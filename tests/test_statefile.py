import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutwirl import statefile, states
from permutwirl.errors import DimMismatchError, NonSquareError, StateFileError, TraceNotOneError


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(71)
    rho = states.random_density(3, rng)
    path = tmp_path / "state.json"
    statefile.save_state(path, rho.mat, rho.dims, label="roundtrip")
    loaded = statefile.load_density(path)
    assert loaded.dims == (3,)
    assert loaded.label == "roundtrip"
    np.testing.assert_array_equal(loaded.mat, rho.mat)


def test_round_trip_bipartite_dims(tmp_path):
    rng = np.random.default_rng(72)
    rho = states.random_density(6, rng, dims=(2, 3))
    path = tmp_path / "state.json"
    statefile.save_state(path, rho.mat, rho.dims)
    loaded = statefile.load_density(path)
    assert loaded.dims == (2, 3)
    assert loaded.label is None


def test_load_raw_skips_validation(tmp_path):
    path = tmp_path / "op.json"
    statefile.save_state(path, states.SIGMA_3, (2,))
    raw = statefile.load_raw(path)
    np.testing.assert_array_equal(raw.mat, states.SIGMA_3)
    with pytest.raises(TraceNotOneError):
        statefile.load_density(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2],\n  "matrix": [[1, 0],]}')
    with pytest.raises(StateFileError, match="line 2"):
        statefile.load_raw(path)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"matrix": []}, "missing field 'dims'"),
        ({"dims": [2]}, "missing field 'matrix'"),
        ({"dims": [0], "matrix": []}, "positive integers"),
        ({"dims": [2], "matrix": [[1, 0]]}, "must hold 4"),
        ({"dims": [2], "matrix": [[1, 0], [0], [0, 0], [1, 0]]}, r"matrix'\[1\]"),
        ({"dims": [2], "matrix": [[1, 0], "x", [0, 0], [1, 0]]}, r"matrix'\[1\]"),
        ({"dims": [2], "matrix": [[1, 0], [True, 0], [0, 0], [1, 0]]}, r"matrix'\[1\]"),
        ({"dims": [True], "matrix": [[1, 0]]}, "positive integers"),
        ({"dims": [2], "matrix": [[1, 0]] * 4, "label": 5}, "label"),
        # Booleans among floats: numpy would read them as 1.0/0.0.
        ({"dims": [2], "matrix": [[1.5, 0.0], [True, 0.5], [0.0, 0.0], [1.0, 0.0]]}, r"matrix'\[1\] is not"),
        ({"dims": [2], "matrix": [[1.5, 0.0], [0.5, False], [0.0, 0.0], [1.0, 0.0]]}, r"matrix'\[1\] is not"),
        # Triples and over-nested pairs, ragged or uniform.
        ({"dims": [2], "matrix": [[1, 0], [0, 0, 0], [0, 0], [1, 0]]}, r"matrix'\[1\] is not"),
        ({"dims": [2], "matrix": [[1.0, 0.0, 0.0]] * 4}, r"matrix'\[0\] is not"),
        ({"dims": [2], "matrix": [[1, 0], [[1, 2], [3, 4]], [0, 0], [1, 0]]}, r"matrix'\[1\] is not"),
        ({"dims": [2], "matrix": [[[1.0], [0.0]]] * 4}, r"matrix'\[0\] is not"),
        ({"dims": [2], "matrix": [[1, 0], [None, 0], [0, 0], [1, 0]]}, r"matrix'\[1\] is not"),
        # Non-finite values (json.dumps writes NaN, Infinity, -Infinity).
        ({"dims": [2], "matrix": [[1, 0], [float("nan"), 0], [0, 0], [1, 0]]}, r"matrix'\[1\] .*not finite"),
        ({"dims": [2], "matrix": [[1, 0], [0, 0], [0.5, float("inf")], [1, 0]]}, r"matrix'\[2\] .*not finite"),
        ({"dims": [2], "matrix": [[1, 0], [0, 0], [0, 0], [-float("inf"), 0]]}, r"matrix'\[3\] .*not finite"),
        # The first bad index wins, whatever is wrong with it.
        ({"dims": [2], "matrix": [[1, 0], [float("nan"), 0], "x", [1, 0]]}, r"matrix'\[1\] .*not finite"),
        ({"dims": [2], "matrix": [[1, 0], "x", [float("nan"), 0], [1, 0]]}, r"matrix'\[1\] is not"),
        # An integer beyond the float range.
        ({"dims": [2], "matrix": [[1, 0], [10**400, 0], [0, 0], [1, 0]]}, r"matrix'\[1\] .*too large"),
        ({"dims": [1], "matrix": [[0.5, -(10**400)]]}, r"matrix'\[0\] .*too large"),
        # Strings, which np.fromiter would read as numbers: "12" has two
        # parts, as a pair has.
        ({"dims": [2], "matrix": [[1, 0], "12", [0, 0], [1, 0]]}, r"matrix'\[1\] is not"),
        ({"dims": [2], "matrix": [[1, 0], ["1", "2"], [0, 0], [1, 0]]}, r"matrix'\[1\] is not"),
        ({"dims": [2], "matrix": [[1, 0], [0, 0], ["1.5", 0], [1, 0]]}, r"matrix'\[2\] is not"),
    ],
)
def test_schema_violations(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError, match=message):
        statefile.load_raw(path)


def test_float_literal_beyond_range_is_not_finite(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [1], "matrix": [[1e400, 0]]}')
    with pytest.raises(StateFileError, match=r"matrix'\[0\] .*not finite"):
        statefile.load_raw(path)


@pytest.mark.parametrize(
    "doc",
    [
        # "true" in the label, none in the matrix.
        {"dims": [1], "matrix": [[0.5, -0.0]], "label": "true or false"},
        {"dims": [2], "matrix": [[1, 0.5], [2, 3], [0.25, -7], [-0.0, 4]]},
        {"dims": [2], "matrix": [[1, 0], [0, 1], [2, 3], [-4, 5]]},
        {"dims": [1], "matrix": [[10**20, 1]]},
        {"dims": [1], "matrix": [[0.5, 10**20]]},
        {"dims": [1], "matrix": [[2**63, 1]]},
        {"dims": [1], "matrix": [[2**60 + 1, 0.5]]},
        {"dims": [1], "matrix": [[-(2**63) - 1, 0.5]]},
    ],
)
def test_accepted_documents(tmp_path, doc):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    loaded = statefile.load_raw(path)
    want = np.array([complex(float(re), float(im)) for re, im in doc["matrix"]])
    assert loaded.label == doc.get("label")
    np.testing.assert_array_equal(loaded.mat.reshape(-1).view(np.uint64), want.view(np.uint64))


def test_save_refuses_non_finite(tmp_path):
    for bad in (float("nan"), float("inf"), complex(0.0, -float("inf"))):
        mat = np.eye(2, dtype=complex)
        mat[1, 0] = bad
        path = tmp_path / "out.json"
        with pytest.raises(StateFileError, match="not finite"):
            statefile.save_state(path, mat, (2,))
        assert not path.exists()


@pytest.mark.parametrize(
    "mat, dims, label, error",
    [
        (np.eye(4) / 4, (3,), None, DimMismatchError),
        (np.eye(4) / 4, (0, 4), None, DimMismatchError),
        (np.eye(4) / 4, (2.0, 2), None, DimMismatchError),
        (np.eye(4) / 4, (True, 4), None, DimMismatchError),
        (np.eye(4) / 4, [], None, DimMismatchError),
        (np.ones((2, 3)) / 2, (2,), None, NonSquareError),
        (np.eye(2)[None] / 2, (2,), None, NonSquareError),
        (np.full(4, 0.25), (2,), None, NonSquareError),
        (np.eye(2) / 2, (2,), 5, StateFileError),
    ],
    ids=["product", "zero", "float", "bool", "empty", "2x3", "stack", "vector", "label"],
)
def test_save_refuses_what_a_load_refuses_before_writing(tmp_path, mat, dims, label, error):
    path = tmp_path / "out.json"
    path.write_text("kept")
    with pytest.raises(error):
        statefile.save_state(path, mat, dims, label=label)
    assert path.read_text() == "kept"
    buf = io.StringIO()
    with pytest.raises(error):
        statefile.save_state(buf, mat, dims, label=label)
    assert buf.getvalue() == ""


def test_non_object_top_level(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(StateFileError, match="object"):
        statefile.load_raw(path)


def test_stream_sources(tmp_path):
    rng = np.random.default_rng(73)
    rho = states.random_density(2, rng)
    path = tmp_path / "state.json"
    statefile.save_state(path, rho.mat, rho.dims)
    with open(path) as fh:
        loaded = statefile.load_raw(fh)
    np.testing.assert_array_equal(loaded.mat, rho.mat)


# ------------------------------------------------------------ properties
#
# The references below are the documented schema and the per-pair
# conversion, written here independently of statefile.

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300, 1.7976931348623157e308]
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_SPECIAL)


def _schema_text(mat, dims, label) -> str:
    doc = {
        "dims": [int(k) for k in dims],
        "matrix": [[float(z.real), float(z.imag)] for z in np.asarray(mat).reshape(-1)],
    }
    if label is not None:
        doc["label"] = label
    return json.dumps(doc) + "\n"


@st.composite
def _matrices(draw):
    """Finite complex matrices with repeated values, in C, transposed or sliced layout."""
    d_a, d_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d = d_a * d_b
    pool = draw(st.lists(_finite, min_size=1, max_size=6))
    layout = draw(st.sampled_from(["c", "transposed", "sliced"]))
    shape = (2 * d, 2 * d) if layout == "sliced" else (d, d)
    n = 2 * shape[0] * shape[1]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    parts = np.array([pool[i] for i in picks]).reshape(*shape, 2)
    mat = parts[..., 0] + 0j
    mat.imag = parts[..., 1]
    if layout == "transposed":
        mat = mat.T
    elif layout == "sliced":
        mat = mat[1::2, ::2]
    dims = draw(st.sampled_from([(d,), (d_a, d_b)]))
    label = draw(st.none() | st.text(max_size=12))
    return mat, dims, label


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_save_text_matches_schema_and_round_trips_bit_exactly(case):
    mat, dims, label = case
    buf = io.StringIO()
    statefile.save_state(buf, mat, dims, label=label)
    text = buf.getvalue()
    assert text == _schema_text(mat, dims, label)
    loaded = statefile.load_raw(io.StringIO(text))
    assert loaded.dims == tuple(dims)
    assert loaded.label == label
    np.testing.assert_array_equal(
        loaded.mat.view(np.uint64), np.ascontiguousarray(mat).view(np.uint64)
    )


def _per_pair_reference(entries):
    """(flat complex array, None) or (None, first bad index)."""
    flat = []
    for idx, pair in enumerate(entries):
        ok = isinstance(pair, list) and len(pair) == 2
        ok = ok and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in pair)
        if not ok:
            return None, idx
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:
            return None, idx
        if not (np.isfinite(re) and np.isfinite(im)):
            return None, idx
        flat.append(complex(re, im))
    return np.array(flat, dtype=complex), None


_json_number = (
    st.integers(-(2**70), 2**70)
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.sampled_from(_SPECIAL)
)
_pair = st.lists(_json_number, min_size=2, max_size=2)
_finite_pair = st.lists(st.integers(-(2**70), 2**70) | _finite, min_size=2, max_size=2)
# Number-like strings, which np.fromiter would read as numbers.
_numeric_text = st.text(alphabet="0123456789.-e", min_size=1, max_size=3)
# Mostly pairs of numbers (finite or not), sometimes a boolean, a string,
# a list of the wrong length, or a pair holding a boolean or a string.
_entry = st.one_of(
    _pair,
    _pair,
    _pair,
    st.booleans(),
    _numeric_text,
    st.lists(_json_number, max_size=3),
    st.lists(st.booleans() | _json_number, min_size=2, max_size=2),
    st.lists(_numeric_text | _json_number, min_size=2, max_size=2),
)


@st.composite
def _matrix_fields(draw):
    """Half the time every entry is a finite pair, which the array route takes."""
    d = draw(st.integers(1, 3))
    entry = draw(st.sampled_from([_finite_pair, _entry]))
    return d, draw(st.lists(entry, min_size=d * d, max_size=d * d))


@settings(max_examples=200, deadline=None)
@given(_matrix_fields())
def test_load_matches_per_pair_conversion(case):
    d, entries = case
    text = json.dumps({"dims": [d], "matrix": entries})
    want, bad = _per_pair_reference(entries)
    if bad is not None:
        with pytest.raises(StateFileError, match=rf"matrix'\[{bad}\]"):
            statefile.load_raw(io.StringIO(text))
        return
    loaded = statefile.load_raw(io.StringIO(text))
    np.testing.assert_array_equal(loaded.mat.reshape(-1).view(np.uint64), want.view(np.uint64))

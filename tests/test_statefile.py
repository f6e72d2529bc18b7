import io
import json
import sys
import tracemalloc

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
        # Within one pair: the type first, then both parts' range, then finiteness.
        ({"dims": [1], "matrix": [[float("nan"), 10**400]]}, r"matrix'\[0\] .*too large"),
        ({"dims": [1], "matrix": [[True, 10**400]]}, r"matrix'\[0\] is not"),
    ],
)
def test_schema_violations(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError, match=message):
        statefile.load_raw(path)


def test_integer_of_more_digits_than_int_reads_is_too_large(tmp_path):
    # json.dumps cannot write it: int() refuses more than 4300 digits by default
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2], "matrix": [[1, 0], [0, 0], [0, 1' + "0" * 5000 + "], [1, 0]]}")
    with pytest.raises(StateFileError, match=r"matrix'\[2\] .*too large"):
        statefile.load_raw(path)


_DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dims": [1], "matrix": ' + "[" * 100000 + "]" * 100000 + "}", "JSON nested too deeply to parse"),
        # too deep for the parser in the dims, where the whole-buffer route parses
        ('{"dims": ' + "[" * 100000 + "]" * 100000 + ', "matrix": [[1.0, 0.0]]}', "JSON nested too deeply to parse"),
        # a count of more digits than str() prints, from printable dims
        (
            '{"dims": [' + ", ".join(["1" + "0" * 400] * 6) + '], "matrix": [[1, 0]]}',
            f"field 'matrix' must hold at least 10^{_DIGIT_LIMIT} [re, im] pairs for its dims, got 1",
        ),
        # a dims entry of more digits than int() reads is not named by a stand-in
        (
            '{"dims": [1' + "0" * 5000 + '], "matrix": [[1, 0]]}',
            f"field 'matrix' must hold at least 10^{_DIGIT_LIMIT} [re, im] pairs for its dims, got 1",
        ),
        (
            '{"dims": [0, 1' + "0" * 5000 + '], "matrix": [[1, 0]]}',
            "field 'dims' must be a nonempty list of positive integers",
        ),
        (
            '{"dims": [-1' + "0" * 5000 + '], "matrix": [[1, 0]]}',
            "field 'dims' must be a nonempty list of positive integers",
        ),
    ],
    ids=["deep-matrix", "deep-dims", "six-401-digit-dims", "5001-digit-dims", "zero-and-5001-digit-dims", "negative-5001-digit-dims"],
)
def test_extreme_documents_are_state_file_errors(text, message):
    with pytest.raises(StateFileError) as info:
        statefile.load_raw(io.StringIO(text))
    assert str(info.value) == message


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


# ------------------------------------------------------------ two routes
#
# load_raw reads the layout that save_state and json.dumps write through
# statefile._load_flat, and every other document through
# statefile._load_tree, the only route that raises.  A document gives the
# same bits, dims and label, or the same error class and message, either way.


def _outcome(load, source):
    try:
        loaded = load(source)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)
    return loaded.mat.view(np.uint64).tolist(), loaded.dims, loaded.label


def _one(matrix: str, tail: str = "") -> str:
    return '{"dims": [1], "matrix": ' + matrix + tail + "}"


def _two(pairs: str, tail: str = "") -> str:
    return '{"dims": [2], "matrix": [' + pairs + "]" + tail + "}"


_CANONICAL = _two("[0.5, 0.0], [0.25, -0.125], [0.25, 0.125], [0.5, 0.0]", ', "label": "c"') + "\n"
_INDENTED = json.dumps(json.loads(_CANONICAL), indent=2)

# (id, document, the route load_raw takes)
_ROUTE_ROWS = [
    ("canonical", _CANONICAL, "flat"),
    ("minus-zero-float", _one("[[-0.0, -0.0]]"), "flat"),
    ("minus-zero-int", _one("[[-0, 1]]"), "flat"),
    ("ints", _two("[1, 0], [2, -3], [0, 4], [5, 0]"), "flat"),
    ("2**53+1", _one("[[9007199254740993, 0]]"), "flat"),
    ("400-digit-int", _one("[[1" + "0" * 400 + ", 0]]"), "tree"),
    # more digits than int() reads (4300 by default)
    ("5001-digit-int", _two("[1, 0], [-1" + "0" * 5000 + ", 0], [0, 0], [1, 0]"), "tree"),
    ("1e400", _one("[[1e400, 0]]"), "tree"),
    ("leading-zero", _one("[[01, 0]]"), "tree"),
    ("bare-point", _one("[[1., 0]]"), "tree"),
    ("1-2", _one("[[1-2, 0]]"), "tree"),
    ("plus-sign", _one("[[+1, 0]]"), "tree"),
    ("empty-slot", _one("[[, 1]]"), "tree"),
    ("true", _one("[[true, 0]]"), "tree"),
    ("string", _one('[["1", 0]]'), "tree"),
    ("nan", _one("[[NaN, 0]]"), "tree"),
    ("ragged", _two("[1, 0], [0], [0, 0], [1, 0]"), "tree"),
    ("triple", _two("[1, 0, 0], [0, 0], [0, 0], [1, 0]"), "tree"),
    # a number across a bracket, where no slot is left empty once the
    # brackets are gone
    ("number-after-pair", _two("[1, ]2, [0, 0], [0, 0], [1, 0]"), "tree"),
    ("number-before-pair", _two("[1, 0], 5[, 0], [0, 0], [1, 0]"), "tree"),
    ("duplicate-matrix", _one("[[1, 0]]", ', "matrix": []'), "tree"),
    ("duplicate-dims", '{"dims": [2], "dims": [1], "matrix": [[1, 0]]}', "tree"),
    ("extra-key", _one("[[1, 0]]", ', "extra": 1'), "tree"),
    ("key-ending-in-matrix", '{"dims": [1], "x\\"matrix": [[1, 0]], "matrix": [[2, 0]]}', "tree"),
    ("matrix-in-label", '{"dims": [1], "matrix": [], "label": {"matrix": [[1, 0]]}}', "tree"),
    ("matrix-in-object", '{"dims": [1], "matrix": {"matrix": [[1, 0]]}}', "tree"),
    ("matrix-in-array-object", '{"dims": [1], "matrix": [{"matrix": [[1, 0]]}]}', "tree"),
    ("label-first", '{"label": "first", "dims": [1], "matrix": [[1, 0]]}', "flat"),
    ("label-escapes", _one("[[1, 0]]", ', "label": "a\\"b \\u00e9 é"'), "flat"),
    ("label-brackets", _one("[[1, 0]]", ', "label": "]] [[ \\" é"'), "tree"),
    ("label-number", _one("[[1, 0]]", ', "label": 5'), "tree"),
    ("label-null", _one("[[1, 0]]", ', "label": null'), "flat"),
    ("trailing-data", _one("[[1, 0]]") + " x", "tree"),
    ("dims-disagree", '{"dims": [3], "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]}', "tree"),
    ("dims-sized-beyond-file", '{"dims": [30, 30], "matrix": [[1, 0]]}', "tree"),
    ("dims-zero", '{"dims": [0], "matrix": [[1, 0]]}', "tree"),
    ("dims-float", '{"dims": [1.0], "matrix": [[1, 0]]}', "tree"),
    ("top-level-array", '[{"dims": [1], "matrix": [[1, 0]]}]', "tree"),
    ("indent-1", json.dumps(json.loads(_CANONICAL), indent=1), "tree"),
    ("indent-2", _INDENTED, "tree"),
    ("leading-whitespace", " \n\t" + _CANONICAL, "flat"),
    ("bom", "\ufeff" + _CANONICAL, "tree"),
]


@pytest.mark.parametrize(
    "text, route", [row[1:] for row in _ROUTE_ROWS], ids=[row[0] for row in _ROUTE_ROWS]
)
def test_routes_agree(text, route):
    assert (statefile._load_flat(text.encode()) is not None) == (route == "flat")
    assert _outcome(statefile.load_raw, io.StringIO(text)) == _outcome(statefile._load_tree, text.encode())


_SOURCES = ["path", "text", "binary", "stdin", "stdin-latin-1"]


def _source(tmp_path, monkeypatch, data: bytes, kind: str):
    """``data`` as a path, a text reader, a binary reader, or '-' with
    stdin a test's StringIO or a text wrapper over the bytes that declares
    latin-1 and splits lines at \\n, as the real stdin does."""
    if kind == "path":
        (tmp_path / "state.json").write_bytes(data)
        return tmp_path / "state.json"
    if kind == "binary":
        return io.BytesIO(data)
    if kind == "stdin-latin-1":
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="latin-1", newline="\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        return "-"
    text = io.StringIO(data.decode("utf-8", "surrogatepass"))
    if kind == "text":
        return text
    monkeypatch.setattr(sys, "stdin", text)
    return "-"


# (id, document): each decodes with surrogatepass, so a text reader holds it too
_SOURCE_ROWS = [
    ("canonical", _CANONICAL.encode()),
    ("minus-zero", _one("[[-0, -0.0]]").encode()),
    ("bom", ("\ufeff" + _CANONICAL).encode()),
    ("indent-2", _INDENTED.encode()),
    # json counts lines by \n alone, whatever the source
    ("lone-cr", b'{"dims": [1],\r"matrix": [[1, 0]],\r"x": ]}'),
    ("crlf", b'{"dims": [1],\r\n"matrix": [[1, 0]],\r\n"x": ]}'),
    ("non-ascii-label", _one("[[1, 0]]", ', "label": "\u00e9 \u00fc"').encode()),
    # a UTF-8-encoded lone surrogate: strict UTF-8 refuses its first byte
    ("non-utf8-bytes", _one("[[1, 0]]", ', "label": "a\ud800"').encode("utf-8", "surrogatepass")),
]


@pytest.mark.parametrize("kind", _SOURCES)
@pytest.mark.parametrize(
    "data", [row[1] for row in _SOURCE_ROWS], ids=[row[0] for row in _SOURCE_ROWS]
)
def test_routes_agree_on_every_source(tmp_path, monkeypatch, data, kind):
    # one outcome from every source: each is read as bytes, decoded once,
    # so a BOM or bytes that are not UTF-8 are refused from each
    source = _source(tmp_path, monkeypatch, data, kind)
    assert _outcome(statefile.load_raw, source) == _outcome(statefile._load_tree, data)


def test_bytes_that_are_not_utf8_are_refused(tmp_path, monkeypatch):
    data = b'{"dims": [1], "matrix": [[1, 0]], "label": "\xe9"}'
    for kind in ("path", "binary", "stdin-latin-1"):
        source = _source(tmp_path, monkeypatch, data, kind)
        with pytest.raises(StateFileError, match="not UTF-8 text: .* byte 0xe9 in position 44"):
            statefile.load_raw(source)


def test_a_reader_giving_neither_text_nor_bytes():
    class Reader:
        def read(self):
            return None

    assert _outcome(statefile.load_raw, Reader()) == _outcome(statefile._load_tree, None)


@pytest.mark.parametrize("kind", _SOURCES)
def test_every_source_takes_the_flat_route(tmp_path, monkeypatch, kind):
    want = _outcome(statefile._load_tree, _CANONICAL.encode())
    source = _source(tmp_path, monkeypatch, _CANONICAL.encode(), kind)

    def tree_route(text):
        raise AssertionError("the tree route was taken")

    monkeypatch.setattr(statefile, "_load_tree", tree_route)
    assert _outcome(statefile.load_raw, source) == want


def test_dims_size_no_allocation_before_the_matrix_is_measured():
    # 810000 pairs declared, one written: the expected skeleton alone
    # would take 4.9 MB
    tracemalloc.start()
    try:
        with pytest.raises(StateFileError, match=r"must hold 810000 \[re, im\] pairs .* got 1$"):
            statefile.load_raw(io.StringIO('{"dims": [30, 30], "matrix": [[1, 0]]}'))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


_EDIT_BYTES = list('[] ,.-eE0"t')
_KEYS = ['"dims"', '"matrix"', '"label"']


@st.composite
def _edited_documents(draw):
    """A schema document with one edit: a byte replaced, a pair dropped or
    doubled, or a key renamed."""
    text = _schema_text(*draw(_matrices()))
    edit = draw(st.sampled_from(["byte", "drop", "double", "rename"]))
    if edit == "byte":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(st.sampled_from(_EDIT_BYTES)) + text[at + 1 :]
    if edit == "rename":
        return text.replace(draw(st.sampled_from(_KEYS)), draw(st.sampled_from(_KEYS + ['"x"'])), 1)
    doc = json.loads(text)
    at = draw(st.integers(0, len(doc["matrix"]) - 1))
    if edit == "drop":
        del doc["matrix"][at]
    else:
        doc["matrix"].insert(at, doc["matrix"][at])
    return json.dumps(doc) + "\n"


@settings(max_examples=300, deadline=None)
@given(_edited_documents())
def test_routes_agree_on_edited_documents(text):
    assert _outcome(statefile.load_raw, io.StringIO(text)) == _outcome(statefile._load_tree, text.encode())

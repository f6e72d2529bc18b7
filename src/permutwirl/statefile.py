"""JSON state files.

Schema::

    {"dims": [2, 2], "matrix": [[re, im], ...], "label": "optional"}

with the matrix flattened row-major, one [re, im] pair per entry.  Each
part is a finite JSON number, integer or float.  Both directions check
dims by ``linalg._check_dims``.  A load rejects NaN, Infinity, -Infinity
and integers too large for a float; before it writes, a save refuses a
matrix holding NaN or an infinity, and dims, a shape or a label that a
load would refuse.  Floats are written exactly as ``json.dumps`` writes
them (``repr``), so save followed by load is bit-exact.  The path '-'
means stdin/stdout.

Both directions work on whole arrays.  The layout that ``save_state`` and
``json.dumps`` write loads by ``_load_flat``: it checks the matrix's bracket
skeleton on the raw bytes and parses its numbers as one flat list.  Any
other document goes to ``_load_tree``, which checks the pairs' types in
set-building passes, then pair by pair to name the first bad index.  Only
``_load_tree`` raises, so no bit and no refusal depends on the route.  A save
groups the entries by their (re, im) bits with one ``np.lexsort``, spells
each distinct entry once and writes head, entries and tail in turn.
"""

import json
import math
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import linalg, states
from .errors import DimMismatchError, NonSquareError, StateFileError


@dataclass(frozen=True)
class StateFile:
    mat: np.ndarray
    dims: tuple[int, ...]
    label: str | None


def _read_text(source) -> str:
    # Every source decodes as UTF-8 and keeps a BOM, which json then refuses.
    try:
        if source == "-" or hasattr(source, "read"):
            text = (sys.stdin if source == "-" else source).read()
            return text.decode() if isinstance(text, (bytes, bytearray)) else text
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise StateFileError(f"not UTF-8 text: {exc}") from None


def _pairs_as_array(entries: list) -> np.ndarray | None:
    """All pairs as one complex array, or None when the array route cannot vouch for them.

    ``np.fromiter`` reads the string "1" as 1.0 and a boolean as 1.0/0.0,
    so the exact types of the entries and of their parts are checked first:
    lists of two, holding floats and integers only.  The view reinterprets
    (re, im) float pairs, so the bits equal ``complex(re, im)``.
    """
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    if not set(map(type, chain.from_iterable(entries))) <= {float, int}:
        return None
    try:
        flat = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries))
    except OverflowError:  # an integer too large for a float
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(complex)


def _raise_at_first_bad_pair(entries: list) -> None:
    """Raises at the first entry that is not a finite [re, im] pair: every
    list that :func:`_pairs_as_array` refuses holds one."""
    for idx, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in pair
            )
        ):
            raise StateFileError(f"field 'matrix'[{idx}] is not an [re, im] pair")
        try:
            z = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise StateFileError(
                f"field 'matrix'[{idx}] holds an integer too large for a float"
            ) from exc
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise StateFileError(f"field 'matrix'[{idx}] holds a value that is not finite")


_NUMBER_BYTES = b"0123456789+-.eE"  # the bytes a JSON number may hold
_KEY_LISTS = (["dims", "matrix"], ["dims", "label", "matrix"])


def _load_flat(text: str) -> StateFile | None:
    """The whole-buffer route; None for a document it cannot vouch for.

    The region from the first ``"matrix": [[`` to the last ``]]`` is the matrix:
    the rest, with ``[]`` as its top-level ``matrix``, holds ``dims`` and an
    optional ``label``.  Without its number bytes the region reads ``[`` +
    ``[, ], `` * (n - 1) + ``[, ]]``; ``json.loads`` parses its 2n numbers once
    each ``], [`` is ``, ``, and refuses the stray ``]`` of ``[1, ]2``."""
    try:
        data = text.encode()
        start, end = data.index(b'"matrix": [[') + 10, data.rindex(b"]]") + 2
        doc = json.loads((data[:start] + b"[]" + data[end:]).decode(), object_pairs_hook=tuple)
        if not isinstance(doc, tuple) or sorted(key for key, _ in doc) not in _KEY_LISTS:
            return None
        fields = dict(doc)  # a nested object is a tuple here, so != []
        if fields["matrix"] != [] or not isinstance(fields.get("label"), (str, type(None))):
            return None
        dims = linalg._check_dims(fields["dims"], None)
        n = math.prod(dims) ** 2
        skeleton = data[start:end].translate(None, _NUMBER_BYTES)  # length compared first
        if len(skeleton) != 6 * n or skeleton != b"[" + b"[, ], " * (n - 1) + b"[, ]]":
            return None
        numbers = data[start + 1 : end - 1].replace(b"], [", b", ").decode()
        del data  # not held while json builds its list of floats
        flat = np.fromiter(json.loads(numbers), float, 2 * n)
    except (AttributeError, ValueError, OverflowError, RecursionError, DimMismatchError):
        return None  # AttributeError: a reader gave neither text nor bytes
    if not np.isfinite(flat).all():
        return None
    return StateFile(flat.view(complex).reshape(math.prod(dims), -1), dims, fields.get("label"))


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads: far beyond a float
        # A stand-in of the literal's sign that no str() prints either, so no
        # message describes it; the pair checks refuse it by index.
        return int(digits[:400]) * 10 ** sys.get_int_max_str_digits()


def _load_tree(text) -> StateFile:
    """The route for any document, and the only one that raises."""
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise StateFileError("JSON nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise StateFileError("top-level JSON value must be an object")
    for field in ("dims", "matrix"):
        if field not in doc:
            raise StateFileError(f"missing field '{field}'")
    try:  # the matrix field, not yet read, is sized from the dims
        dims = linalg._check_dims(doc["dims"], None)
    except (DimMismatchError, ValueError):  # ValueError: str() refusing a dims entry
        raise StateFileError(
            "field 'dims' must be a nonempty list of positive integers"
        ) from None
    d = math.prod(dims)
    entries = doc["matrix"]
    if not isinstance(entries, list) or len(entries) != d * d:
        try:
            need = f"{d * d} [re, im] pairs for dims {list(dims)}"
        except ValueError:  # str() prints no int of more digits than this
            need = f"at least 10^{sys.get_int_max_str_digits()} [re, im] pairs for its dims"
        raise StateFileError(
            f"field 'matrix' must hold {need}, "
            f"got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    flat = _pairs_as_array(entries)
    if flat is None:
        _raise_at_first_bad_pair(entries)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFileError("field 'label' must be a string")
    return StateFile(mat=flat.reshape(d, d), dims=dims, label=label)


def load_raw(source) -> StateFile:
    """Parse a state file without density validation (operator mode)."""
    text = _read_text(source)
    return _load_flat(text) or _load_tree(text)


def load_density(source) -> StateFile:
    """Parse and validate as a density matrix (:func:`states.validate_density`)."""
    raw = load_raw(source)
    validated = states.validate_density(raw.mat, dims=raw.dims)
    return StateFile(mat=validated.mat, dims=validated.dims, label=raw.label)


def _matrix_entries_json(mat: np.ndarray) -> str:
    """The entries of ``json.dumps`` of the [[re, im], ...] list, without its
    brackets, spelling each distinct entry once.

    Entries are grouped by the bits of the (re, im) pair, so -0.0 keeps
    its own spelling; ``%r`` is the ``repr`` that ``json.dumps`` uses.
    """
    flat = np.ascontiguousarray(mat.reshape(-1))
    if not np.isfinite(flat).all():
        raise StateFileError(
            "matrix holds a value that is not finite; state files store finite numbers only"
        )
    bits = flat.view(np.uint64).reshape(-1, 2)
    order = np.lexsort((bits[:, 1], bits[:, 0]))
    re, im = bits[order, 0], bits[order, 1]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    spelled = np.array(
        ["[%r, %r]" % (z.real, z.imag) for z in flat[order[first]].tolist()], dtype=object
    )
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ", ".join(spelled[inverse].tolist())


def save_state(target, mat: np.ndarray, dims, label: str | None = None) -> None:
    """Write a state file; floats keep round-trip precision.

    The text is the one ``json.dumps`` gives for the schema document.
    Before it opens ``target``, it raises NonSquareError unless ``mat`` is
    a square matrix, DimMismatchError for the ``dims`` a load refuses (by
    ``linalg._check_dims`` against its side), and StateFileError if it
    holds NaN or an infinity or ``label`` is not a string.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise NonSquareError(f"expected a square matrix, got shape {mat.shape}")
    dims = linalg._check_dims(dims, linalg.require_square(mat))
    if label is not None and not isinstance(label, str):
        raise StateFileError("field 'label' must be a string")
    parts = (
        '{"dims": ' + json.dumps(list(dims)) + ', "matrix": [',
        _matrix_entries_json(mat),
        "]" + ("" if label is None else ', "label": ' + json.dumps(label)) + "}\n",
    )
    if target == "-" or hasattr(target, "write"):
        out = sys.stdout if target == "-" else target
        for part in parts:
            out.write(part)
        return
    with open(target, "w", encoding="utf-8") as fh:
        fh.writelines(parts)

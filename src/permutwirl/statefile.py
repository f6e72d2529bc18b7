"""JSON state files.

Schema::

    {"dims": [2, 2], "matrix": [[re, im], ...], "label": "optional"}

with the matrix flattened row-major, one [re, im] pair per entry.  Each
part is a finite JSON number, integer or float.  Both directions check
dims by ``linalg._check_dims``.  A load rejects NaN, Infinity, -Infinity
and integers too large for a float; before it writes, a save takes its
matrix by the rule of every single-matrix argument (2-d and finite, by
``linalg.as_complex_matrix``) and refuses dims, a shape or a label that a
load would refuse.  Floats are written exactly as ``json.dumps`` writes
them (``repr``), so save followed by load is bit-exact.  The path '-'
means stdin/stdout (``_stdio``, the CLI's stdout too); a closed one is OSError.
``_output`` writes every output target, the CLI's CSV too, with ``\n`` line ends.

A load reads every source as bytes: a path, '-' (stdin's bytes, whatever
its text encoding), a binary reader, or a text reader, whose str is encoded
as UTF-8.  A source of more than ``MAX_STATE_FILE_BYTES`` is refused with
DimensionTooLargeError, a path before it is read.  Both directions work on
whole arrays.  The layout that ``save_state`` and ``json.dumps`` write
loads by ``_load_flat``: it checks the matrix's bracket skeleton on those
bytes and parses its numbers as one flat list.  Any other document goes to ``_load_tree``, the one decode of the
whole document (strict UTF-8, so json counts lines by ``\n`` alone and
refuses a BOM), which checks the pairs in one pass in index order, naming
the first bad index.  Past the size limit only ``_load_tree`` raises, so
no bit and no refusal depends on the route or on the source.  A save
groups the entries by their (re, im) bits with one ``np.lexsort``, spells
each distinct entry once and writes head, entries and tail in turn.
"""

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import linalg, states
from .errors import DimensionTooLargeError, DimMismatchError, StateFileError

# A load holds about four times the file's size at its peak (json's list
# of every pair): a fresh process that loads a file of this size peaks near
# 294 MiB of RSS, and one that refuses a larger file near its 30 MiB import.
MAX_STATE_FILE_BYTES = 64 << 20


@dataclass(frozen=True)
class StateFile:
    mat: np.ndarray
    dims: tuple[int, ...]
    label: str | None


def _stdio(target, direction: str):
    """``target``, or for '-' the standard stream of ``direction``: stdin's
    bytes (where it has a binary layer) for "input", stdout for "output".

    A stream that the process began with closed is None in ``sys``: OSError,
    which the CLI prints as one line."""
    if target != "-":
        return target
    stream = sys.stdout if direction == "output" else getattr(sys.stdin, "buffer", sys.stdin)
    if stream is None:
        raise OSError(f"standard {direction} is closed")
    return stream


@contextmanager
def _output(target):
    """The writer of ``target``: stdout for '-' (``_stdio``), a writer as
    given, or the path opened as UTF-8 with ``newline=""``."""
    target = _stdio(target, "output")
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _read_bytes(source):
    """The one read of every source: its bytes as given, a reader's str as
    UTF-8, a lone surrogate included, so that _load_tree's decode refuses it.

    A source of more than MAX_STATE_FILE_BYTES is DimensionTooLargeError:
    a path by its size before the read, any source after reading at most
    one byte more than the limit."""
    source = _stdio(source, "input")
    if hasattr(source, "read"):
        data = source.read(MAX_STATE_FILE_BYTES + 1)
        data = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    else:
        import os  # loaded at interpreter start-up, so this adds no import time

        with open(source, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            _check_size(size)
            # a buffer of the file's size, then what a stream (of size 0) or a
            # file that grew holds past it, up to one byte over the limit
            data = fh.read(size + 1) + fh.read(MAX_STATE_FILE_BYTES - size)
    _check_size(len(data or b""))  # None: a reader with no data, which _load_tree refuses
    return data


def _check_size(size: int) -> None:
    if size > MAX_STATE_FILE_BYTES:
        raise DimensionTooLargeError(
            f"state file exceeds the limit of {MAX_STATE_FILE_BYTES} bytes"
        )


_NUMBER_BYTES = b"0123456789+-.eE"  # the bytes a JSON number may hold
_PART_TYPES = frozenset((int, float))  # exact types (a bool is neither); a set: hashed, not compared
_KEY_LISTS = (["dims", "matrix"], ["dims", "label", "matrix"])


def _load_flat(data: bytes) -> StateFile | None:
    """The whole-buffer route; None for a document it cannot vouch for.

    The region from the first ``"matrix": [[`` to the last ``]]`` is the matrix:
    the rest, with ``[]`` as its top-level ``matrix``, holds ``dims`` and an
    optional ``label``.  Without its number bytes the region reads ``[`` +
    ``[, ], `` * (n - 1) + ``[, ]]``; ``json.loads`` parses its 2n numbers once
    each ``], [`` is ``, ``, and refuses the stray ``]`` of ``[1, ]2``."""
    try:
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
        # ASCII, as the skeleton shows: a str, so json holds no bytes copy as it parses
        numbers = data[start + 1 : end - 1].replace(b"], [", b", ").decode()
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


def _load_tree(data) -> StateFile:
    """The route for any document, and the only one that raises.

    The one decode of the whole document: strict UTF-8, which keeps a BOM
    for json to refuse."""
    try:
        doc = json.loads(str(data, "utf-8"), parse_int=_parse_int)
    except UnicodeDecodeError as exc:
        raise StateFileError(f"not UTF-8 text: {exc}") from None
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
    # one pass in index order, so the first bad index is named: a list of two
    # ints or floats, by exact type (np.fromiter would read a string or a bool
    # as a number), then both parts within the float range, then both finite
    try:
        for idx, pair in enumerate(entries):
            if type(pair) is not list or len(pair) != 2 or not (
                type(pair[0]) in _PART_TYPES and type(pair[1]) in _PART_TYPES
            ):
                raise StateFileError(f"field 'matrix'[{idx}] is not an [re, im] pair")
            # `&`, not `and`: both parts' range (OverflowError) before finiteness
            if not math.isfinite(pair[0]) & math.isfinite(pair[1]):
                raise StateFileError(f"field 'matrix'[{idx}] holds a value that is not finite")
    except OverflowError:
        raise StateFileError(
            f"field 'matrix'[{idx}] holds an integer too large for a float"
        ) from None
    # the view reinterprets (re, im) float pairs: the bits of complex(re, im)
    flat = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries)).view(complex)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFileError("field 'label' must be a string")
    return StateFile(mat=flat.reshape(d, d), dims=dims, label=label)


def load_raw(source) -> StateFile:
    """Parse a state file without density validation (operator mode)."""
    data = _read_bytes(source)
    return _load_flat(data) or _load_tree(data)


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
    Before it opens ``target``, it takes ``mat`` by the rule of every
    single-matrix argument (``linalg.as_complex_matrix``), raises
    DimMismatchError for the ``dims`` a load refuses (by ``linalg._check_dims``
    against its side), and StateFileError if ``label`` is not a string.
    """
    mat = linalg.as_complex_matrix(mat)
    dims = linalg._check_dims(dims, linalg.require_square(mat))
    if label is not None and not isinstance(label, str):
        raise StateFileError("field 'label' must be a string")
    parts = (
        '{"dims": ' + json.dumps(list(dims)) + ', "matrix": [',
        _matrix_entries_json(mat),
        "]" + ("" if label is None else ', "label": ' + json.dumps(label)) + "}\n",
    )
    with _output(target) as fh:
        for part in parts:
            fh.write(part)

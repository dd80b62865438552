"""JSON wire formats for matrices, groups, elements, and systems.

Integers ride as plain JSON numbers while they fit in 53 bits and as
decimal strings beyond that, so consumers in double-precision land never
see a rounded value; both spellings are accepted on input.  Booleans are
rejected wherever an integer is expected.
"""

from __future__ import annotations

import json
import sys
from itertools import chain

from .abelian import AbelianGroup
from .errors import PreconditionError, SchemaError
from .intmat import IntMatrix
from .system import RestrictedSystem

_SAFE = 1 << 53


def _too_long() -> PreconditionError:
    return PreconditionError(
        "a result integer is longer than Python's limit of "
        f"{sys.get_int_max_str_digits()} digits for a decimal string"
    )


def encode_int(v: int):
    try:
        return v if abs(v) < _SAFE else str(v)
    except ValueError:
        raise _too_long() from None


def parse_decimal(text: str, where: str) -> int | None:
    """The integer a decimal string spells, or None when it is not one:
    decimal digits after at most one leading '-', the test int() applies
    to them (isdigit() would also pass superscripts).  SchemaError when
    the digits run past Python's limit for reading a decimal string."""
    digits = text.removeprefix("-")
    if not digits.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:
        raise SchemaError(
            f"{where}: {len(digits)} digits exceed Python's limit of "
            f"{sys.get_int_max_str_digits()} for a decimal integer string"
        ) from None


def decode_int(v, where: str) -> int:
    if isinstance(v, bool):
        raise SchemaError(f"{where}: expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        value = parse_decimal(v, where)
        if value is None:
            raise SchemaError(f"{where}: {v!r} is not a decimal integer string")
        return value
    raise SchemaError(f"{where}: expected an integer, got {type(v).__name__}")


def encode_matrix(matrix: IntMatrix) -> dict:
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "data": [[encode_int(v) for v in row] for row in matrix.data],
    }


def decode_matrix(obj, where: str = "matrix") -> IntMatrix:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise SchemaError(f"{where}: missing key {key!r}")
    rows = decode_int(obj["rows"], f"{where}.rows")
    cols = decode_int(obj["cols"], f"{where}.cols")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError(f"{where}.data: expected {rows} rows")
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{where}.data[{i}]: expected {cols} entries")
        out.append([decode_int(v, f"{where}.data[{i}][{j}]") for j, v in enumerate(row)])
    if rows < 1 or cols < 1:
        raise SchemaError(f"{where}: dimensions must be positive")
    return IntMatrix(out)


def encode_group(group: AbelianGroup) -> dict:
    return {"moduli": [encode_int(v) for v in group.moduli]}


def decode_group(obj, where: str = "group") -> AbelianGroup:
    if not isinstance(obj, dict) or "moduli" not in obj:
        raise SchemaError(f"{where}: expected an object with a moduli key")
    moduli = obj["moduli"]
    if not isinstance(moduli, list) or not moduli:
        raise SchemaError(f"{where}.moduli: expected a nonempty array")
    vals = [decode_int(v, f"{where}.moduli[{i}]") for i, v in enumerate(moduli)]
    if any(v < 1 for v in vals):
        raise SchemaError(f"{where}.moduli: entries must be >= 1")
    return AbelianGroup(tuple(vals))


def encode_element(elem) -> list:
    return [encode_int(v) for v in elem]


def encode_rows(rows, group: AbelianGroup):
    """Rows of elements of ``group`` in wire form, for a report to dump.
    A reduced residue is below its modulus, so while every modulus is at
    most 2^53 each residue is its own wire form, and a tuple dumps as a
    list: the rows go out as they are.  Only a larger modulus maps each
    element through ``encode_element``."""
    if max(group.moduli) <= _SAFE:
        return rows
    return [[encode_element(v) for v in row] for row in rows]


class JSONText(str):
    """Text that is already compact JSON: ``dump`` writes it as it is in a
    compact report and indents the value it spells in a ``human`` one."""


class _ElementText(dict):
    """The compact JSON text of each element, made through
    ``encode_element`` the first time the element is looked up, so only
    the elements a listing holds are encoded, never all of a group."""

    def __missing__(self, elem):
        text = self[elem] = json.dumps(encode_element(elem), separators=(",", ":"))
        return text


def encode_copies(copies, m: int) -> JSONText:
    """The copy rows of a report in either layout, each copy c as the
    object {"assignment": c[:m], "labels": c[m:]}, as the compact text that
    ``dump`` writes as it is or reads back to indent: each distinct element
    is encoded once, and one format with 2m slots per copy writes every row."""
    slots = ",".join(["%s"] * m)
    row = '{"assignment":[%s],"labels":[%s]}' % (slots, slots)
    texts = map(_ElementText().__getitem__, chain.from_iterable(copies))
    return JSONText(("[" + ",".join([row] * len(copies)) + "]") % tuple(texts))


def _elements(raw: list, group: AbelianGroup, where: str, *index: int) -> tuple:
    """The elements of one list, checked but not reduced.  A list of
    lists of ``rank`` plain ints passes one test for the whole list; only
    a list that fails it is read element by element by ``_residues``, which
    also takes decimal strings and names the first bad element."""
    if (
        {*map(type, raw)} <= {list}
        and {*map(len, raw)} <= {group.rank}
        and {*map(type, chain.from_iterable(raw))} <= {int}
    ):
        return tuple(map(tuple, raw))
    return tuple([_residues(v, group, where, *index, j) for j, v in enumerate(raw)])


def _residues(obj, group: AbelianGroup, where: str, *index: int) -> tuple[int, ...]:
    """The integers of one element, checked but not reduced.  A list of
    ``rank`` plain ints passes one test; the element's label, ``where``
    followed by ``[i]`` per index, is built only when that test fails."""
    if type(obj) is list and [*map(type, obj)] == [int] * group.rank:
        return tuple(obj)
    where += "".join(f"[{i}]" for i in index)
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected an array of residues")
    if len(obj) != group.rank:
        raise SchemaError(
            f"{where}: expected {group.rank} residues, got {len(obj)}"
        )
    return tuple(decode_int(v, f"{where}[{i}]") for i, v in enumerate(obj))


def encode_system(system: RestrictedSystem) -> dict:
    return {
        "group": encode_group(system.group),
        "A": encode_matrix(system.matrix),
        "b": [encode_element(v) for v in system.rhs],
        "X": [
            [encode_element(v) for v in xs] for xs in system.restrictions
        ],
    }


def decode_system(obj, where: str = "system") -> RestrictedSystem:
    """Check the wire form of a system; ``RestrictedSystem`` reduces its
    elements, so each is reduced once."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    for key in ("group", "A", "b", "X"):
        if key not in obj:
            raise SchemaError(f"{where}: missing key {key!r}")
    group = decode_group(obj["group"], f"{where}.group")
    matrix = decode_matrix(obj["A"], f"{where}.A")
    b = obj["b"]
    if not isinstance(b, list) or len(b) != matrix.rows:
        raise SchemaError(f"{where}.b: expected {matrix.rows} elements")
    rhs = _elements(b, group, f"{where}.b")
    xs = obj["X"]
    if not isinstance(xs, list) or len(xs) != matrix.cols:
        raise SchemaError(f"{where}.X: expected {matrix.cols} restriction sets")
    sets = []
    label = f"{where}.X"
    for i, raw in enumerate(xs):
        if not isinstance(raw, list):
            raise SchemaError(f"{label}[{i}]: expected an array of elements")
        sets.append(_elements(raw, group, label, i))
    return RestrictedSystem(group, matrix, rhs, tuple(sets))


def load_text(text: str, where: str = "input"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"{where}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except ValueError:
        # the one other ValueError json raises: a number literal past
        # Python's limit for reading a decimal string
        raise SchemaError(
            f"{where}: a number has more digits than Python's limit of "
            f"{sys.get_int_max_str_digits()}"
        ) from None


def load_file(path: str):
    """The JSON value in a UTF-8 file.  The bytes are decoded in one call,
    without the text layer's newline translation, which JSON, taking CR as
    whitespace, does not need; a byte order mark stays and is refused."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise SchemaError(f"cannot read {path}: not UTF-8 text") from None
    return load_text(text, path)


def dump(report: dict, human: bool = False) -> str:
    """A report as JSON text, keys sorted, compact or with ``human``
    indented.  A ``JSONText`` value is the value its text spells: the
    compact layout writes the text as it is, which is the bytes of dumping
    that value, and the indented one dumps the value, read back once."""
    # a report is a fresh tree of dicts, lists and tuples; its element
    # tuples are shared between rows but never form a cycle, so the
    # per-container cycle check is skipped: same bytes
    layout = {"indent": 2} if human else {"separators": (",", ":")}
    layout.update(sort_keys=True, check_circular=False)
    try:
        if human:
            report = {
                k: json.loads(v) if type(v) is JSONText else v
                for k, v in report.items()
            }
        if human or JSONText not in map(type, report.values()):
            return json.dumps(report, **layout) + "\n"
        items = [
            json.dumps(k) + ":" + (v if type(v) is JSONText else json.dumps(v, **layout))
            for k, v in sorted(report.items())
        ]
        return "{" + ",".join(items) + "}\n"
    except ValueError:
        # an integer past the digit limit that a report writes as a bare
        # JSON number
        raise _too_long() from None

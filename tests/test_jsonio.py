"""Wire format: 53-bit integer boundary, schema errors, round trips."""

import json
import sys

import pytest

from linremoval import AbelianGroup, IntMatrix, PreconditionError, SchemaError
from linremoval.jsonio import (
    decode_group,
    decode_int,
    decode_matrix,
    decode_system,
    dump,
    encode_copies,
    encode_int,
    encode_matrix,
    encode_rows,
    encode_system,
    load_file,
    load_text,
    parse_decimal,
)
from linremoval import RestrictedSystem

BIG = 1 << 53
# Python's limit on the digits of an integer read from or written as text
LIMIT = sys.get_int_max_str_digits()
needs_limit = pytest.mark.skipif(LIMIT == 0, reason="no int-string digit limit")


def test_int_boundary():
    assert encode_int(BIG - 1) == BIG - 1
    assert encode_int(BIG) == str(BIG)
    assert encode_int(-(BIG - 1)) == -(BIG - 1)
    assert encode_int(-BIG) == str(-BIG)


def test_int_decoding_accepts_both_spellings():
    assert decode_int(7, "x") == 7
    assert decode_int("7", "x") == 7
    assert decode_int(str(BIG * 3), "x") == BIG * 3
    assert decode_int("-12", "x") == -12


def test_int_decoding_rejects_garbage():
    with pytest.raises(SchemaError):
        decode_int(True, "x")
    with pytest.raises(SchemaError):
        decode_int(1.5, "x")
    with pytest.raises(SchemaError):
        decode_int("1.5", "x")
    with pytest.raises(SchemaError):
        decode_int("--3", "x")


def test_parse_decimal_reads_what_int_reads():
    assert parse_decimal("-12", "x") == -12
    assert parse_decimal("\u0663", "x") == 3
    for text in ("\u00b2", "-\u00b2", "--5", "+5", " 5", "", "-"):
        assert parse_decimal(text, "x") is None, text


@needs_limit
def test_digits_past_the_limit_are_a_schema_error():
    assert decode_int("9" * LIMIT, "x") == 10**LIMIT - 1
    assert decode_int("-" + "9" * LIMIT, "x") == 1 - 10**LIMIT
    message = (
        f"m.data[0][0]: {LIMIT + 1} digits exceed Python's limit of {LIMIT}"
        " for a decimal integer string"
    )
    for text in ("9" * (LIMIT + 1), "-" + "9" * (LIMIT + 1)):
        with pytest.raises(SchemaError) as exc:
            decode_matrix({"rows": 1, "cols": 1, "data": [[text]]}, "m")
        assert str(exc.value) == message
    # a JSON number literal past the limit fails inside the JSON parser
    with pytest.raises(SchemaError) as exc:
        load_text("[" + "9" * (LIMIT + 1) + "]", "in.json")
    assert str(exc.value) == (
        f"in.json: a number has more digits than Python's limit of {LIMIT}"
    )


@needs_limit
def test_results_past_the_limit_are_a_precondition_error():
    message = (
        f"a result integer is longer than Python's limit of {LIMIT} digits"
        " for a decimal string"
    )
    assert encode_int(10**LIMIT - 1) == "9" * LIMIT
    for v in (10**LIMIT, -(10**LIMIT)):
        with pytest.raises(PreconditionError) as exc:
            encode_int(v)
        assert str(exc.value) == message
        # a report writes some counts as plain JSON numbers
        for human in (False, True):
            with pytest.raises(PreconditionError) as exc:
                dump({"count": v}, human=human)
            assert str(exc.value) == message


def test_matrix_round_trip_with_big_entries():
    m = IntMatrix([[BIG * 2, -BIG * 5], [1, 0]])
    again = decode_matrix(
        __import__("json").loads(dump(encode_matrix(m))), "m"
    )
    assert again == m


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        decode_matrix([], "m")
    with pytest.raises(SchemaError):
        decode_matrix({"rows": 1, "cols": 2}, "m")
    with pytest.raises(SchemaError):
        decode_matrix({"rows": 2, "cols": 1, "data": [[1]]}, "m")
    with pytest.raises(SchemaError):
        decode_matrix({"rows": 1, "cols": 2, "data": [[1]]}, "m")
    with pytest.raises(SchemaError):
        decode_matrix({"rows": 0, "cols": 0, "data": []}, "m")


def test_group_schema():
    assert decode_group({"moduli": [2, 4]}).moduli == (2, 4)
    with pytest.raises(SchemaError):
        decode_group({"moduli": []})
    with pytest.raises(SchemaError):
        decode_group({"moduli": [0]})
    with pytest.raises(SchemaError):
        decode_group({})


@pytest.mark.parametrize(
    "bad, message",
    [
        ([True, 0], "[0]: expected an integer, got a boolean"),
        ([1, 0.5], "[1]: expected an integer, got float"),
        ([1, "1.5"], "[1]: '1.5' is not a decimal integer string"),
        ([1, "²"], "[1]: '²' is not a decimal integer string"),
        ([1], ": expected 2 residues, got 1"),
        ([1, 2, 3], ": expected 2 residues, got 3"),
        ("nope", ": expected an array of residues"),
        ({"0": 1}, ": expected an array of residues"),
    ],
)
def test_malformed_system_elements_name_their_place(bad, message):
    # every element of b and of each X[i] is checked, and its message names
    # the element and, for a bad residue, the residue
    def wire():
        return {
            "group": {"moduli": [5, 3]},
            "A": {"rows": 1, "cols": 2, "data": [[1, 1]]},
            "b": [[0, 0]],
            "X": [[[0, 0], [1, 2]], [[0, 0], [4, 1], [2, 2]]],
        }

    obj = wire()
    obj["b"][0] = bad
    with pytest.raises(SchemaError) as exc:
        decode_system(obj)
    assert str(exc.value) == "system.b[0]" + message
    obj = wire()
    obj["X"][1][2] = bad
    with pytest.raises(SchemaError) as exc:
        decode_system(obj, "in")
    assert str(exc.value) == "in.X[1][2]" + message


def test_system_round_trip():
    g = AbelianGroup([5])
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 1, 1]]),
        ((0,),),
        (((0,), (1,)), g.elements(), g.elements()),
    )
    text = dump(encode_system(sys_))
    again = decode_system(load_text(text))
    assert again == sys_
    # residues outside [0, 5) decode to the same canonical system
    wire = encode_system(sys_)
    wire["b"] = [[-5]]
    wire["X"][0] = [[5], [-4]]
    assert decode_system(wire) == sys_


def test_element_schema():
    # elements are read through decode_system; over Z2 x Z4 each residue is
    # reduced by its own factor, and a wrong length or a non-array is refused
    def wire(elem):
        return {
            "group": {"moduli": [2, 4]},
            "A": {"rows": 1, "cols": 2, "data": [[1, 1]]},
            "b": [elem],
            "X": [[[1, 3], [3, -1]], [[0, 0]]],
        }

    expected = RestrictedSystem(
        AbelianGroup([2, 4]), IntMatrix([[1, 1]]), ((1, 3),), (((1, 3),), ((0, 0),))
    )
    assert decode_system(wire([1, 3])) == expected
    assert decode_system(wire([3, -1])) == expected  # reduced on the way in
    with pytest.raises(SchemaError):
        decode_system(wire([1]))
    with pytest.raises(SchemaError):
        decode_system(wire("nope"))


def test_load_text_reports_position():
    with pytest.raises(SchemaError) as exc:
        load_text('{"a": 1,\n "b": }')
    msg = str(exc.value)
    assert "line 2" in msg
    assert "column" in msg


def test_load_file_reads_utf8_text_only(tmp_path):
    # a byte that is not UTF-8 is a schema error, and the file is read as
    # plain UTF-8, so a byte order mark is refused as JSON refuses it
    path = tmp_path / "input.json"
    path.write_bytes(b'{"rows": 1, "cols": 1, "data": [[\xff]]}')
    with pytest.raises(SchemaError) as exc:
        load_file(str(path))
    assert str(exc.value) == f"cannot read {path}: not UTF-8 text"
    path.write_bytes(b"\xef\xbb\xbf" + b'{"rows": 1, "cols": 1, "data": [[1]]}')
    with pytest.raises(SchemaError, match="BOM"):
        load_file(str(path))
    # CR is JSON whitespace, so CRLF line ends read as LF ones do
    path.write_bytes(b'{"rows": 1,\r\n "cols": 1,\r\n "data": [[1]]}\r\n')
    assert load_file(str(path)) == {"rows": 1, "cols": 1, "data": [[1]]}


def test_dump_formats():
    compact = dump({"b": 1, "a": [1, 2]})
    assert compact == '{"a":[1,2],"b":1}\n'
    human = dump({"b": 1, "a": [1, 2]}, human=True)
    assert human.startswith('{\n  "a"')
    assert human.endswith("\n")


def test_dump_matches_checked_encoding_on_shared_lists():
    # reports share one element tuple across many rows, as the walk's
    # solution and copy tuples do, and may share a list; the dump skips the
    # cycle check and must give the bytes the checked encoder gives, and a
    # tuple the bytes of a list
    code = {v: (v, -v, BIG - v) for v in range(4)}
    rows = [
        {
            "assignment": tuple(code[(i + j) % 4] for j in range(3)),
            "labels": (code[i % 4],),
        }
        for i in range(50)
    ]
    listed = [{k: [list(v) for v in row[k]] for k in row} for row in rows]
    shared = [str(BIG)]
    obj = {"count": len(rows), "copies": rows, "table": [shared] * 3}
    for human in (False, True):
        layout = {"indent": 2} if human else {"separators": (",", ":")}
        expected = json.dumps(obj, sort_keys=True, check_circular=True, **layout)
        assert dump(obj, human=human) == expected + "\n"
        assert dump({**obj, "copies": listed}, human=human) == expected + "\n"


def test_copy_text_past_53_bits_matches_dumped_rows():
    # copies of a host whose moduli pass 2^53, as 2m-tuples (x, y): each
    # residue past 2^53 is a decimal string, with the bytes dump writes for
    # the same rows, and a small one a number
    group = AbelianGroup([3, BIG + 5])
    m = 3
    els = [(0, 0), (1, BIG - 1), (2, BIG), (1, BIG + 4), (0, 17)]
    copies = sorted(
        tuple(els[(i * t + i + 1) % 5] for t in range(2 * m)) for i in range(4)
    )
    rows = [
        {"assignment": c[:m], "labels": c[m:]} for c in encode_rows(copies, group)
    ]
    text = encode_copies(copies, m)
    assert text == json.dumps(rows, sort_keys=True, separators=(",", ":"))
    report = {"count": len(copies), "copies": text, "positions": m}
    assert dump(report) == dump({**report, "copies": rows})
    listed = [e for row in json.loads(text) for half in row.values() for e in half]
    assert [1, BIG - 1] in listed
    assert [2, str(BIG)] in listed and [1, str(BIG + 4)] in listed
    assert encode_copies([], m) == "[]"


@pytest.mark.parametrize("moduli", [(3, 5), (3, BIG + 5)])
def test_human_dump_of_copy_text_indents_the_rows(moduli):
    # the indented layout writes the rows the copy text spells with the
    # bytes of dumping the dict rows themselves; past 2^53 a residue is a
    # decimal string in both
    group = AbelianGroup(moduli)
    m = 2
    els = [(0, 0), (1, 4), (2, moduli[1] - 1), (1, 3)]
    copies = sorted(
        tuple(els[(i * t + i + 1) % 4] for t in range(2 * m)) for i in range(4)
    )
    rows = [
        {"assignment": c[:m], "labels": c[m:]} for c in encode_rows(copies, group)
    ]
    report = {"count": len(copies), "copies": encode_copies(copies, m), "positions": m}
    human = dump(report, human=True)
    assert human == dump({**report, "copies": rows}, human=True)
    assert (f'"{BIG + 4}"' in human) == (moduli[1] > BIG)


def test_dump_places_json_text_among_sorted_keys():
    # a JSONText value goes out as it is among the sorted keys of a compact
    # report; any other report dumps as json writes it
    text = encode_copies([((1,), (2,), (3,), (4,))], 2)
    report = {"z": [1], "copies": text, "a": {"b": BIG}}
    rows = [{"assignment": [[1], [2]], "labels": [[3], [4]]}]
    assert dump(report) == dump({**report, "copies": rows}) == (
        '{"a":{"b":%d},"copies":%s,"z":[1]}\n' % (BIG, text)
    )


def test_encode_rows_passes_rows_while_every_modulus_fits():
    rows = [((1,), (BIG - 1,)), ((0,), (3,))]
    assert encode_rows(rows, AbelianGroup([BIG])) is rows
    assert encode_rows(rows, AbelianGroup([2, BIG])) is rows
    assert encode_rows([((BIG,), (1,))], AbelianGroup([BIG + 1])) == [
        [[str(BIG)], [1]]
    ]

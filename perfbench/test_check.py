"""The checker on values known by hand, and on real and corrupted reports.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from linremoval import cli  # noqa: E402

Z5 = [[v] for v in range(5)]
Z7 = [[v] for v in range(7)]


def system_obj(moduli, X, A=((1, 1, 1),), b=((0,),)):
    return gen.wire(moduli, A, b, X)


FULL_Z5 = system_obj([5], [Z5, Z5, Z5])
RESTRICTED_Z5 = system_obj([5], [[[0], [1]], Z5, Z5])
FULL_Z7 = system_obj([7], [Z7, Z7, Z7])


def run_cli(tmp_path, obj, *argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([argv[0], str(path), *argv[1:], "--budget", "1000000"]) == 0
    op = {"input": str(path), "argv": [argv[0], str(path), *argv[1:]]}
    return op, json.loads(out.getvalue())


@pytest.mark.parametrize(
    "obj, count, minimum",
    [(FULL_Z5, 25, 5), (RESTRICTED_Z5, 10, 2), (FULL_Z7, 49, 7)],
)
def test_counts_and_minimum_by_hand(obj, count, minimum):
    system = oracle.parse_system(obj)
    sols = oracle.solutions(system)
    assert len(sols) == count
    assert all(sum(v[0] for v in x) % system.order == 0 for x in sols)
    assert oracle.min_hitting_set(sols, system.m) == minimum


@pytest.mark.parametrize(
    "obj, copies, classes",
    [(FULL_Z5, 125, 25), (RESTRICTED_Z5, 50, 10), (FULL_Z7, 343, 49)],
)
def test_copy_counts_by_hand(tmp_path, obj, copies, classes):
    op, rep = run_cli(tmp_path, obj, "copies", "--full")
    assert rep["count"] == copies
    assert len({tuple(map(tuple, c["labels"])) for c in rep["copies"]}) == classes
    assert check.Checker().check_op(op, rep) is None
    op, rep = run_cli(tmp_path, obj, "verify")
    assert (rep["copies"], rep["classes"]) == (copies, classes)
    assert check.Checker().check_op(op, rep) is None


def test_copies_rejects_a_shared_window(tmp_path):
    op, rep = run_cli(tmp_path, FULL_Z5, "copies", "--full")
    a = rep["copies"][0]
    b = next(c for c in rep["copies"][1:] if c["labels"] == a["labels"])
    b["assignment"] = [a["assignment"][0], a["assignment"][1], [9]]
    assert "window" in check.Checker().check_op(op, rep)


def test_copies_rejects_a_wrong_count(tmp_path):
    op, rep = run_cli(tmp_path, RESTRICTED_Z5, "copies")
    rep["count"] += 1
    assert "count" in check.Checker().check_op(op, rep)


def test_remove_minimum_and_corruptions(tmp_path):
    op, rep = run_cli(tmp_path, FULL_Z5, "remove")
    assert rep["total_size"] == 5
    assert check.Checker().check_op(op, rep) is None
    rep["removed"][0] = rep["removed"][0][:-1] if rep["removed"][0] else []
    rep["total_size"] = sum(len(xs) for xs in rep["removed"])
    assert check.Checker().check_op(op, rep) is not None


def test_default_remove_above_the_minimum_is_the_known_fault(tmp_path):
    op, rep = run_cli(tmp_path, gen.z6_fault_system(), "remove")
    system, sols = check.Checker().system(op["input"])
    assert oracle.min_hitting_set(sols, system.m) == 3
    assert rep["total_size"] == 6
    assert check.Checker().check_op(op, rep) == check.FAULT
    op["argv"].append("--greedy")
    assert check.Checker().check_op(op, rep) is None


def test_pipeline_trace_checks(tmp_path):
    obj = system_obj([3, 5], [[[v, w] for v in range(3) for w in range(5)]] * 3,
                     A=((1, 2, 1),), b=((1, 2),))
    op, rep = run_cli(tmp_path, obj, "pipeline", "--trace")
    assert check.Checker().check_op(op, rep) is None
    circ = rep["matrices"]["circular"]["data"]
    assert all(oracle.windows_nonsingular_mod(circ, p) for p in (3, 5))
    bad = [row[:] for row in circ]
    k = len(bad)
    for i in range(k):  # make the window at columns 0..k-1 singular mod 3
        bad[i][0] = 3 * bad[i][1]
    assert not oracle.windows_nonsingular_mod(bad, 3)
    rep["stages"][1]["solutions"] += 1
    assert "stage" in check.Checker().check_op(op, rep)


def test_windows_by_hand():
    assert oracle.windows_nonsingular_mod([[1, 2, 3]], 5)
    assert not oracle.windows_nonsingular_mod([[1, 5, 3]], 5)
    assert oracle.windows_nonsingular_mod([[1, 0, 1, 1], [0, 1, 1, 2]], 3)
    assert not oracle.windows_nonsingular_mod([[1, 0, 1, 2], [0, 1, 1, 2]], 3)
    assert oracle.annihilates([[1, 1, 3]], [[4, 0, 1], [1, 4, 0], [0, 0, 3]], 5) is False

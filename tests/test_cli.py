"""Command line surface: reports, exit codes, determinism."""

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from linremoval import (
    AbelianGroup,
    IntMatrix,
    cli,
    enumerate_solutions,
    greedy_removal,
    hypergraph,
    intmat,
    pipeline,
    system,
)
from linremoval.jsonio import decode_system, dump, load_file
from test_acceptance import cli_runs
from test_removal import brute_min_size

FIXTURES = Path(__file__).parent / "fixtures"
# Python's limit on the digits of an integer read from or written as text
LIMIT = sys.get_int_max_str_digits()


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "linremoval", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def run_json(*args, **kw):
    proc = run_cli(*args, **kw)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def fixture(name):
    return str(FIXTURES / name)


# ----------------------------------------------------------- matrix commands


def test_snf_command():
    out = run_json("snf", fixture("matrix_2x2.json"))
    assert out["S"]["data"] == [[2, 0], [0, 6]]
    assert set(out) == {"S", "U", "V"}


def test_dk_command():
    out = run_json("dk", fixture("matrix_2x2.json"))
    assert out == {"divisors": [2, 12]}


def test_complete_command():
    out = run_json("complete", fixture("matrix_row.json"))
    assert out["completed"]["rows"] == 3
    assert out["completed"]["data"][0] == [1, 1, 1]
    assert out["det"] == 1


def test_complete_takes_one_determinant(count_calls):
    # complete_to_square returns the determinant it takes to fix the sign,
    # so the report's det is not a second 4 x 4 determinant
    dets = count_calls(intmat, "det", lambda a: (a.rows, a.cols))
    out = main_json(["complete", fixture("matrix_wide.json")])
    assert out["completed"]["rows"] == 4
    assert dets == [(4, 4)]
    dets.clear()
    out = main_json(["complete", fixture("matrix_square.json")])
    assert dets == [(2, 2)]


def test_ngood_command():
    out = run_json("ngood", "--n", "5", fixture("matrix_square.json"))
    assert out["rows"] == 10
    assert out["n"] == 5
    assert out["n_good"] is True
    assert out["padded"]["data"][4] == [2, 3]
    assert out["padded"]["data"][5] == [1, 2]


def test_ngood_checks_the_padding_once(count_calls):
    # n_good_padding returns only a padding it has found n-good, so the
    # report's n_good is that check, not a second scan
    calls = count_calls(intmat, "is_n_good", lambda m, n: (m.rows, n))
    out = main_json(["ngood", "--n", "5", fixture("matrix_square.json")])
    assert out["n_good"] is True
    assert calls == [(10, 5)]


def test_ngood_rejects_non_square():
    proc = run_cli("ngood", "--n", "5", fixture("matrix_row.json"))
    assert proc.returncode == 3


def test_circular_command():
    out = run_json("circular", "--n", "5", fixture("matrix_wide.json"))
    assert out["circular"] is True
    assert out["standard"]["data"] == [[1, 0, 2, 1], [0, 1, 1, 1]]
    out4 = run_json("circular", "--n", "4", fixture("matrix_wide.json"))
    assert out4["circular"] is False
    assert out4["standard"] is None


def test_cmatrix_command():
    out = run_json("cmatrix", "--n", "5", fixture("matrix_row.json"))
    assert out["kernel"]["data"] == [[4, 1, 0], [0, 4, 1], [1, 0, 4]]
    assert out["n"] == 5


# ----------------------------------------------------------- system commands


def test_solve_command():
    out = run_json("solve", fixture("sys_z5_full.json"))
    assert out["count"] == 25
    assert len(out["solutions"]) == 25
    assert out["solutions"][0] == [[0], [0], [0]]


def sum_system(path, n, sets):
    """Write x1 + x2 + x3 = 0 over Z_n with residue sets ``sets``."""
    path.write_text(
        json.dumps(
            {
                "group": {"moduli": [str(n)]},
                "A": {"rows": 1, "cols": 3, "data": [[1, 1, 1]]},
                "b": [[0]],
                "X": [[[v] for v in xs] for xs in sets],
            }
        )
    )
    return str(path)


@pytest.mark.parametrize("n", [2**53, 2**53 + 1])
def test_report_elements_follow_the_53_bit_wire_rule(tmp_path, n):
    # a residue below 2^53 is a JSON number and a larger one a decimal
    # string: over Z_{2^53} every residue is a number, over Z_{2^53 + 1}
    # the residue 2^53 = -1 is "9007199254740992"; the four solutions carry
    # the residues n - 1, n - 2 and n - 3
    path = sum_system(tmp_path / "sum.json", n, [[-1, 1, 5], [1, -2], [0, 3, -2, -3]])

    def wire(r):
        return r if r < 2**53 else str(r)

    solutions = [(1, 1, n - 2), (5, n - 2, n - 3), (n - 1, 1, 0), (n - 1, n - 2, 3)]
    code, out, _ = main_result(["solve", path])
    assert code == 0
    assert json.loads(out) == {
        "count": 4,
        "solutions": [[[wire(r)] for r in x] for x in solutions],
    }
    # greedy takes the value killing two solutions, then the lowest ones
    code, out, _ = main_result(["remove", "--greedy", path])
    assert code == 0
    assert json.loads(out)["removed"] == [[[1], [5], [wire(n - 1)]], [], []]
    assert ('"9007199254740992"' in out) == (n > 2**53)


def test_pipeline_command():
    # circular as given: the standard stage keeps the order, no padding
    out = run_json("pipeline", fixture("sys_z5_full.json"))
    assert out["outcome"] == "circular"
    assert [s["stage"] for s in out["stages"]] == ["input", "translate", "standard"]
    assert out["stages"][-1]["column_order"] == [1, 2, 3]  # 1-based
    assert out["target"] == {"equations": 1, "variables": 3, "modulus": 5}
    assert out["target_circular"] is True
    assert out["verification"]["ok"] is True
    assert out["mapped_coords"] == [1, 2, 3]
    assert "matrices" not in out


def test_pipeline_command_padded_route():
    # no cyclic column order of the Z6 matrix is circular: the paper's
    # padded target
    out = run_json("pipeline", fixture("sys_z6_full.json"))
    assert out["outcome"] == "circular"
    assert [s["stage"] for s in out["stages"]] == [
        "input",
        "translate",
        "identity-form",
        "circular",
    ]
    assert all("column_order" not in s for s in out["stages"])
    assert out["target"] == {"equations": 93, "variables": 96, "modulus": 6}
    assert out["verification"]["ok"] is True
    assert len(out["mapped_coords"]) == 5


def test_pipeline_reorders_columns(tmp_path):
    # columns 1 and 2 are proportional mod 5, so their window is singular;
    # the first cyclic order that separates them is 1, 3, 2, 4
    path = tmp_path / "swapped.json"
    full = [[v] for v in range(5)]
    path.write_text(
        json.dumps(
            {
                "group": {"moduli": [5]},
                "A": {"rows": 2, "cols": 4, "data": [[1, 2, 0, 1], [0, 0, 1, 1]]},
                "b": [[0], [1]],
                "X": [full, [[1], [2]], full, [[0], [3], [4]]],
            }
        )
    )
    out = main_json(["pipeline", "--trace", str(path)])
    stage = out["stages"][-1]
    assert stage["stage"] == "standard"
    assert stage["column_order"] == [1, 3, 2, 4]
    assert out["target"] == {"equations": 2, "variables": 4, "modulus": 5}
    assert out["verification"]["ok"] is True
    assert out["solutions"] == 6
    assert out["mapped_coords"] == [1, 2, 3, 4]
    circ = out["matrices"]["circular"]["data"]
    assert [row[:2] for row in circ] == [[1, 0], [0, 1]]


def count_window_work(count_calls):
    """Record window solves (their core sizes), dense is_circular scans and
    matrix products."""
    return {
        "cores": count_calls(pipeline, "_solve_window_mod", lambda a, b, n: len(a)),
        "scans": count_calls(pipeline, "is_circular", lambda a, n: (a.rows, a.cols)),
        "products": count_calls(
            IntMatrix, "__matmul__", lambda a, b: (a.rows, a.cols, b.cols)
        ),
    }


def test_pipeline_validates_target_once(count_calls):
    # CircularSystem is the one validation of a pipeline target, on either
    # route: it builds the kernel once, one core solve per window, and that
    # construction is the circularity check, so no dense scan or target @
    # kernel product; the column-order search solves no window core
    work = count_window_work(count_calls)
    for name, (k, m) in (("sys_z5_full.json", (1, 3)), ("sys_z6_full.json", (93, 96))):
        for seen in work.values():
            seen.clear()
        out = main_json(["pipeline", fixture(name)])
        assert out["target_circular"] is True
        assert (out["target"]["equations"], out["target"]["variables"]) == (k, m)
        assert len(work["cores"]) == m
        assert max(work["cores"]) <= min(k, m - k)
        assert work["scans"] == []
        assert (k, m, m) not in work["products"]


def shape(sys_, budget=None):
    return sys_.equations, sys_.variables, sys_.is_homogeneous()


@pytest.mark.parametrize(
    "name, stages",
    [
        # (listed, counted): on the standard route both links are proven
        # from their construction, so only the input is listed
        ("sys_z5_restricted.json", ([(1, 3, True)], [])),
        ("sys_z3z5_restricted.json", ([(1, 3, False)], [])),
        ("sys_z11_2x4.json", ([(2, 4, False)], [])),
        # no circular column order: identity form, then the padded target,
        # which is listed for the exhaustive check
        ("sys_z6_full.json", ([(2, 5, False), (93, 96, True)], [(5, 8, True)])),
    ],
)
def test_pipeline_enumerates_each_system_once(count_calls, name, stages):
    # the input is listed once: the thinness test and the translation
    # reuse its list, and the translate link is proven from its value
    # maps, so its stage is not counted.  Only the padded route lists its
    # target and counts its identity form.  Every listing or count goes
    # through the walk, so its calls without count are the listings and
    # those with count are count_solutions'
    walks = count_calls(system, "_walk", lambda s, b, count: (*shape(s), count))
    counted = count_calls(system, "count_solutions", shape)
    out = main_json(["pipeline", fixture(name)])
    assert out["verification"]["ok"]
    enumerated = [walk[:3] for walk in walks if not walk[3]]
    assert (enumerated, counted) == stages
    assert len(walks) == len(enumerated) + len(counted)


@pytest.mark.parametrize(
    "name",
    [
        "sys_z5_restricted.json",
        "sys_z3z5_restricted.json",
        "sys_z11_2x4.json",
        "sys_z6_full.json",
    ],
)
def test_pipeline_gates_divisor_with_two_smith_forms(count_calls, name):
    # the coprimality gate reads the input's Smith invariants over Z/|G|,
    # once, and no integer Smith form; the input's matrix gets one only on
    # the padded route, in the identity form's completion, which is also
    # that step's d_k gate (a translate target does not compute its divisor
    # again); the standard stage needs none
    smith = count_calls(intmat, "smith_normal_form", lambda a: (a.rows, a.cols))
    local = count_calls(
        intmat, "smith_invariants_mod", lambda rows, q: (len(rows), len(rows[0]), q)
    )
    sys_ = decode_system(load_file(fixture(name)))
    out = main_json(["pipeline", fixture(name)])
    assert out["outcome"] == "circular"
    padded = out["stages"][-1]["stage"] == "circular"
    assert padded == (name == "sys_z6_full.json")
    assert smith.count((sys_.equations, sys_.variables)) == padded
    assert local == [(sys_.equations, sys_.variables, sys_.group.order)]


def test_pipeline_padded_route_takes_one_determinant_per_completion(count_calls):
    # sys_z6_full pads: the identity form reads its kernel off the 2 x 5
    # matrix's Smith transforms, whose only determinants are det U (2 x 2)
    # and det V (5 x 5), the sign of the completion it stands for; and
    # circularize completes each of the 5 free rows to 3 x 3 (the
    # completion's own determinant, n_good_padding's gate), with V^-1 kept
    # by the Smith form; d_k is never recomputed from a completion whose
    # determinant it is by contract
    dets = count_calls(intmat, "det", lambda a: a.rows)
    out = main_json(["pipeline", fixture("sys_z6_full.json")])
    assert out["target"]["equations"] == 93
    assert sorted(dets) == [2] + [3] * 10 + [5]


def test_circular_command_scans_windows_once(count_calls):
    # the kernel built on the standard form decides circularity: no dense
    # is_circular scan, and a circular input takes one core solve per window
    work = count_window_work(count_calls)
    k, m = 2, 4
    for n, circular in (("5", True), ("4", False)):
        work["cores"].clear()
        out = main_json(["circular", "--n", n, fixture("matrix_wide.json")])
        assert out["circular"] is circular
        assert work["scans"] == []
        assert len(work["cores"]) <= m
        assert max(work["cores"]) <= min(k, m - k)
        if circular:
            assert len(work["cores"]) == m


def test_pipeline_trace():
    # matrices are keyed by stage: identity_form only on the padded route
    out = run_json("pipeline", "--trace", fixture("sys_z5_full.json"))
    mats = out["matrices"]
    assert sorted(mats) == ["circular", "kernel", "translate"]
    assert mats["circular"]["data"] == [[1, 1, 1]]
    assert mats["kernel"]["rows"] == 3
    out = run_json("pipeline", "--trace", fixture("sys_z6_full.json"))
    mats = out["matrices"]
    assert sorted(mats) == ["circular", "identity_form", "kernel", "translate"]
    assert mats["identity_form"]["rows"] == 5
    assert mats["circular"]["rows"] == 93
    assert mats["kernel"]["rows"] == 96


def test_pipeline_thin():
    out = run_json("pipeline", fixture("sys_thin.json"))
    assert out["outcome"] == "thin"
    assert out["thin"]["coordinate"] == 1  # 1-based in reports
    assert out["thin"]["value"] == [0]


def test_pipeline_small_system():
    out = run_json("pipeline", fixture("sys_small.json"))
    assert out["outcome"] == "small-system"
    assert "note" in out


# -------------------------------------------------------- hypergraph commands


def test_copies_direct_route():
    out = run_json("copies", fixture("sys_z5_full.json"))
    assert out["route"] == "direct"
    assert out["count"] == 125
    assert out["positions"] == 3
    assert out["arity"] == 2
    assert "copies" not in out


def test_copies_full_listing():
    out = run_json("copies", "--full", fixture("sys_z5_restricted.json"))
    assert out["count"] == 50
    assert len(out["copies"]) == 50
    first = out["copies"][0]
    assert set(first) == {"assignment", "labels"}


def test_copies_direct_on_thin_standard_input():
    # singleton restrictions still host directly: one class of size n^k
    out = run_json("copies", fixture("sys_thin.json"))
    assert out["route"] == "direct"
    assert out["count"] == 4


def test_copies_on_a_system_with_a_circular_order(tmp_path):
    # x1 + ... + x5 = 1 over Z5 is not homogeneous, so it is not hosted
    # directly; the pipeline's standard target is 1 x 5, whose 5^5
    # assignments fit the budget: 625 solutions, 5 copies each
    path = tmp_path / "sum5.json"
    full = [[v] for v in range(5)]
    path.write_text(
        json.dumps(
            {
                "group": {"moduli": [5]},
                "A": {"rows": 1, "cols": 5, "data": [[1, 1, 1, 1, 1]]},
                "b": [[1]],
                "X": [full] * 5,
            }
        )
    )
    out = main_json(["copies", str(path)])
    assert out["route"] == "pipeline"
    assert out["count"] == 625 * 5
    assert (out["positions"], out["arity"]) == (5, 2)
    for name, classes in (("sys_z3z5_restricted.json", 5), ("sys_z11_2x4.json", 15)):
        out = main_json(["verify", fixture(name)])
        assert (out["route"], out["verdict"]) == ("pipeline", "PASS")
        assert out["classes"] == out["solutions"] == classes


def test_copies_without_host():
    out = run_json("copies", fixture("sys_small.json"))
    assert out["route"] == "pipeline"
    assert out["outcome"] == "small-system"
    assert "note" in out


def test_verify_command():
    out = run_json("verify", fixture("sys_z5_full.json"))
    assert out["verdict"] == "PASS"
    assert out["copies"] == 125
    assert out["classes"] == 25
    assert out["expected_class_size"] == 5
    assert out["class_report"]["ok"] is True
    assert out["label_report"]["ok"] is True


def test_verify_restricted():
    out = run_json("verify", fixture("sys_z5_restricted.json"))
    assert out["verdict"] == "PASS"
    assert out["copies"] == 50
    assert out["classes"] == 10


def test_copies_walk_the_lifted_system(count_calls):
    # listed copies are solutions of [-K | I_m] (x, y) = 0: one listing
    # pivot walk with m pivots (assignment columns first, then labels) and
    # m free coordinates, and no per-assignment combine.  The count and
    # verify read the class facts off Smith invariants mod q and count the
    # circular system's solutions with the same walk (k pivots and m - k
    # free coordinates), listing none and running no integer Smith form
    walks = count_calls(
        system,
        "_pivot_walk",
        lambda group, sets, pivots, rows, rhs, free, count=False: (
            len(pivots),
            len(free),
            count,
        ),
    )
    listed = count_calls(system, "enumerate_solutions", shape)
    smith = count_calls(intmat, "smith_normal_form", lambda a: (a.rows, a.cols))
    combines = count_calls(AbelianGroup, "combine", lambda g, c, x: len(c))
    out = main_json(["copies", "--full", fixture("sys_z5_full.json")])
    assert (out["route"], out["count"]) == ("direct", 125)
    assert walks == [(3, 3, False)]
    assert listed == [(3, 6, True)]
    assert combines == []
    walks.clear()
    listed.clear()
    out = main_json(["copies", fixture("sys_z5_full.json")])
    assert (out["route"], out["count"]) == ("direct", 125)
    assert walks == [(1, 2, True)]
    assert listed == []
    assert combines == []
    walks.clear()
    out = main_json(["verify", fixture("sys_z5_restricted.json")])
    assert (out["route"], out["verdict"]) == ("direct", "PASS")
    assert walks == [(1, 2, True)]
    assert listed == []
    assert smith == []


def test_copies_full_lists_through_enumerate_copies(count_calls):
    # enumerate_copies is the one copy listing, so the library and the
    # command list through the same name; the count lists no copy
    listings = count_calls(
        hypergraph, "enumerate_copies", lambda host, budget: host.positions
    )
    for flags in ([], ["--human"]):
        listings.clear()
        out = main_json(["copies", "--full", *flags, fixture("sys_z5_full.json")])
        assert (out["count"], len(out["copies"])) == (125, 125)
        assert listings == [3]
    listings.clear()
    out = main_json(["copies", fixture("sys_z5_full.json")])
    assert out["count"] == 125
    assert listings == []


def test_direct_route_scans_windows_once(count_calls, tmp_path):
    # CircularSystem decides the direct route: one core solve per window
    # and no dense scan.  The class check of copies and verify re-forms the
    # host's A K on purpose (a host can carry a corrupted kernel), once,
    # since a host's kernel is held on its windows; copies --full forms no
    # product at all
    work = count_window_work(count_calls)
    for args, products in (
        (["copies", "--full", fixture("sys_z5_full.json")], 0),
        (["copies", fixture("sys_z5_full.json")], 1),
        (["verify", fixture("sys_z5_restricted.json")], 1),
    ):
        for seen in work.values():
            seen.clear()
        assert main_json(args)["route"] == "direct"
        assert len(work["cores"]) == 3  # k = 1, m = 3
        assert max(work["cores"]) <= 1
        assert work["scans"] == []
        assert work["products"].count((1, 3, 3)) == products
    # homogeneous and in standard form, but column 2 is 0 mod 5: not circular
    path = tmp_path / "not_circular.json"
    full = [[v] for v in range(5)]
    path.write_text(
        json.dumps(
            {
                "group": {"moduli": [5]},
                "A": {"rows": 1, "cols": 3, "data": [[1, 0, 1]]},
                "b": [[0]],
                "X": [[[0]], full, full],
            }
        )
    )
    out = main_json(["copies", str(path)])
    assert out["route"] == "pipeline"
    assert out["outcome"] == "thin"


# ------------------------------------------------------------ remove command


def source_system(name):
    return decode_system(load_file(fixture(name)))


def test_remove_exact_on_source():
    out = run_json("remove", fixture("sys_z5_full.json"))
    assert "route" not in out
    assert out["total_size"] == brute_min_size(source_system("sys_z5_full.json"))
    assert out["total_size"] == 5
    assert out["post_count"] == 0
    assert out["certificate"] == {"optimal": True, "lower_bound": 5}


def test_remove_greedy_flag():
    out = run_json("remove", "--greedy", fixture("sys_z5_full.json"))
    assert "route" not in out
    assert out["total_size"] == 5
    assert out["post_count"] == 0
    assert out["certificate"] == {"optimal": False, "lower_bound": None}


def test_remove_small_system():
    out = run_json("remove", fixture("sys_small.json"))
    assert "route" not in out
    assert out["total_size"] == brute_min_size(source_system("sys_small.json"))
    assert out["total_size"] == 5
    assert out["post_count"] == 0
    assert out["certificate"]["optimal"] is True


def test_remove_thin_system():
    out = run_json("remove", fixture("sys_thin.json"))
    assert "route" not in out
    assert out["total_size"] == 1
    assert out["certificate"] == {"optimal": True, "lower_bound": 1}
    greedy = run_json("remove", "--greedy", fixture("sys_thin.json"))
    assert greedy["total_size"] == 1
    assert greedy["certificate"] == {"optimal": False, "lower_bound": None}


def test_remove_beats_pulled_back_target_removal():
    # a row divisor of the identity form shares the factor 2 with |G| = 6;
    # pulling a target removal back costs 6, the source minimum is 3
    out = run_json("remove", fixture("sys_z6_full.json"))
    assert out["total_size"] == 3
    assert out["total_size"] == brute_min_size(source_system("sys_z6_full.json"))
    assert out["certificate"]["optimal"] is True
    assert out["post_count"] == 0


def main_json(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    assert code == 0
    return json.loads(buf.getvalue())


@pytest.mark.parametrize("flags", [[], ["--greedy"]])
def test_remove_enumerates_twice(count_calls, flags):
    # two walks of the system: one listing to solve, and one count, which
    # lists nothing, for the reported post-removal count
    enumerated = count_calls(system, "enumerate_solutions", shape)
    counted = count_calls(system, "count_solutions", shape)
    out = main_json(["remove", *flags, fixture("sys_z5_full.json")])
    assert out["post_count"] == 0
    assert enumerated == [(1, 3, True)]
    assert counted == [(1, 3, True)]


@pytest.mark.parametrize(
    "name, command",
    [
        (name, command)
        for name in ["sys_z6_full.json", "sys_z5_restricted.json"]
        for command in ["solve", "pipeline", "remove", "copies", "verify"]
    ]
    # sys_z6_full's padded host has 6^96 assignments, past any budget
    + [("sys_z5_restricted.json", "copies --full")],
)
def test_each_system_is_validated_once(count_calls, name, command):
    # the input is reduced and sorted once, as it is decoded; the stage
    # targets, the removal's copies, the host on the padded target of
    # sys_z6_full or on the input of sys_z5_restricted itself, and the
    # lifted system of its copies are built from parts already valid
    inits = count_calls(system.RestrictedSystem, "__init__", lambda *a: None)
    main_json([*command.split(), fixture(name)])
    assert len(inits) == 1


def test_remove_deep_search_in_process(tmp_path):
    # 2,018 solutions over Z1009; the removal search must not recurse per atom
    path = tmp_path / "z1009.json"
    full = [[v] for v in range(1009)]
    path.write_text(
        json.dumps(
            {
                "group": {"moduli": [1009]},
                "A": {"rows": 1, "cols": 3, "data": [[1, 1, 1]]},
                "b": [[0]],
                "X": [full, [[0], [1]], full],
            }
        )
    )
    out = main_json(["remove", str(path)])
    assert out["total_size"] == 2
    assert out["certificate"]["optimal"] is True
    assert out["removed"] == [[], [[0], [1]], []]


# a child reads its own peak RSS after cli.main; started from a small
# wrapper, because a child's ru_maxrss starts at the peak of the process
# that started it, and the test runner's peak is not the command's
PEAK_RUN = """
import resource, sys
from linremoval import cli
code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
WRAPPER = """
import subprocess, sys
sys.exit(subprocess.run([sys.executable, "-c", *sys.argv[1:]]).returncode)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
def test_remove_greedy_memory_grows_with_the_solutions(tmp_path):
    # x1 + x2 - 2 x3 = 0 over Z211 with full sets: 44,521 solutions; a
    # table with a bit per pair of solutions would take 248 MB
    path = tmp_path / "z211.json"
    full = [[v] for v in range(211)]
    path.write_text(
        json.dumps(
            {
                "group": {"moduli": [211]},
                "A": {"rows": 1, "cols": 3, "data": [[1, 1, -2]]},
                "b": [[0]],
                "X": [full, full, full],
            }
        )
    )
    args = ["remove", "--greedy", str(path)]
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, PEAK_RUN, *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report, status = proc.stdout.splitlines()
    assert json.loads(report)["total_size"] == 211
    code, peak_kib = map(int, status.split())
    assert code == 0
    assert peak_kib < 100 * 1024


@given(st.sampled_from([4, 6, 8, 9, 10]), st.data())
@settings(max_examples=60, deadline=None)
def test_remove_matches_brute_force_random(n, data):
    k = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(k, 5))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-3, n - 1), min_size=m, max_size=m),
            min_size=k,
            max_size=k,
        )
    )
    rhs = [[data.draw(st.integers(0, n - 1))] for _ in range(k)]
    sets = [
        [[v] for v in sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))]
        for _ in range(m)
    ]
    obj = {
        "group": {"moduli": [n]},
        "A": {"rows": k, "cols": m, "data": rows},
        "b": rhs,
        "X": sets,
    }
    system = decode_system(obj)
    assume(system.coprime)
    sols = enumerate_solutions(system)
    atoms = len({(j, x[j]) for x in sols for j in range(m)})
    # keep the subset oracle cheap: the minimum never exceeds the greedy size
    greedy = greedy_removal(system).total_size
    assume(sum(math.comb(atoms, s) for s in range(greedy + 1)) * len(sols) <= 200_000)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        out = main_json(["remove", path])
    assert out["total_size"] == brute_min_size(system)
    assert out["certificate"]["optimal"] is True
    assert out["post_count"] == 0


def test_remove_protect():
    out = run_json("remove", "--protect", "1", fixture("sys_z5_full.json"))
    assert out["removed"][0] == []
    assert out["post_count"] == 0


def test_remove_protect_all_is_infeasible():
    proc = run_cli("remove", "--protect", "1,2", fixture("sys_small.json"))
    assert proc.returncode == 5
    err = json.loads(proc.stderr)
    assert err["error"]["kind"] == "infeasible"


def test_remove_protect_validation():
    proc = run_cli("remove", "--protect", "zero", fixture("sys_small.json"))
    assert proc.returncode == 2
    proc2 = run_cli("remove", "--protect", "7", fixture("sys_small.json"))
    assert proc2.returncode == 3


# ------------------------------------------------------- errors and budgets


def test_malformed_json_exit():
    proc = run_cli("solve", fixture("malformed.json"))
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"]["kind"] == "schema"
    assert "line" in err["error"]["message"]


def test_missing_file_exit():
    proc = run_cli("solve", str(FIXTURES / "no_such_file.json"))
    assert proc.returncode == 2


def test_precondition_exit():
    for command in ("pipeline", "remove"):
        proc = run_cli(command, fixture("sys_badgcd.json"))
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"]["kind"] == "precondition"


def test_no_command_enumerates_minors(count_calls):
    # every golden command, run in-process, reads d_k off a Smith form if it
    # needs it at all, and decides circularity by window solves; the minor
    # enumeration and the dense window scan are oracles for the tests
    minors = count_calls(intmat, "determinantal_divisor", lambda a, k: (a.rows, a.cols, k))
    scans = count_calls(pipeline, "is_circular", lambda a, n: (a.rows, a.cols))
    codes = set()
    for args in cli_runs():
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                codes.add(cli.main(list(args)))
    assert codes == {0, 2, 3, 4}
    assert minors == []
    assert scans == []


def test_even_wide_system_is_refused_quickly(tmp_path):
    # an 8 x 40 matrix with even entries over Z2: d_8 is even, so remove and
    # pipeline refuse it from one Smith form instead of walking C(40, 8),
    # about 7.7e7, minors; solve finds no unit pivot and refuses the 2^40
    # walked candidates against the budget
    rng = random.Random(840)
    data = [[2 * rng.randint(-5, 5) for _ in range(40)] for _ in range(8)]
    path = tmp_path / "even_8x40.json"
    path.write_text(
        json.dumps(
            {
                "group": {"moduli": [2]},
                "A": {"rows": 8, "cols": 40, "data": data},
                "b": [[0]] * 8,
                "X": [[[0], [1]]] * 40,
            }
        )
    )
    for command, code, message in (
        ("remove", 3, "determinantal divisor shares a factor with the group order"),
        ("pipeline", 3, "determinantal divisor shares a factor with the group order"),
        ("solve", 4, f"{2**40} candidates exceed the budget of 10000000"),
    ):
        proc = run_cli(command, str(path), timeout=30)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert json.loads(proc.stderr)["error"]["message"] == message


def test_budget_exit():
    proc = run_cli("solve", "--budget", "10", fixture("sys_z5_full.json"))
    assert proc.returncode == 4
    err = json.loads(proc.stderr)
    assert err["error"]["kind"] == "budget"


def test_remove_cover_search_budget_exit(tmp_path):
    # 900 walked candidates fit the budget, the exact cover search does not
    rng = random.Random(7)
    sets = [rng.sample(range(61), 30) for _ in range(3)]
    path = tmp_path / "z61.json"
    path.write_text(
        json.dumps(
            {
                "group": {"moduli": [61]},
                "A": {"rows": 1, "cols": 3, "data": [[1, 1, -2]]},
                "b": [[0]],
                "X": [[[v] for v in xs] for xs in sets],
            }
        )
    )
    proc = run_cli("remove", "--budget", "10000", str(path))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert json.loads(proc.stderr) == {
        "error": {
            "kind": "budget",
            "message": "10001 cover-search nodes exceed the budget of 10000",
        }
    }
    assert run_json("remove", "--greedy", "--budget", "10000", str(path))["post_count"] == 0


def main_result(args):
    """cli.main run in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("bits", [20, 64])
def test_padded_route_budget_precedes_listing_the_group(tmp_path, bits):
    # 2x1 + x2 + x3 = 0 has no circular column order over Z_{2^bits} (2 is
    # no unit), so it takes the padded route, whose identity form has
    # m - k = 2 whole-group columns: the 2^(2 bits) candidates meet the
    # budget before G is listed, with the walk's own message
    n = 2**bits
    path = tmp_path / f"z2_{bits}.json"
    path.write_text(
        json.dumps(
            {
                "group": {"moduli": [str(n)]},
                "A": {"rows": 1, "cols": 3, "data": [[2, 1, 1]]},
                "b": [[0]],
                "X": [[[0], [1]], [[0], [1], [2]], [[0], [-1], [-2], [-3], [-4]]],
            }
        )
    )
    start = time.process_time()
    code, out, err = main_result(["pipeline", "--budget", "1000", str(path)])
    assert time.process_time() - start < 2
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": {
            "kind": "budget",
            "message": f"{n * n} candidates exceed the budget of 1000",
        }
    }


# run in a python -O child: calls cli.main on the given argv and prints
# the exit code, stdout and stderr as one JSON line
OPTIMIZED_RUN = """
import contextlib, dataclasses, io, json, sys
from linremoval import IntMatrix, cli, pipeline
if sys.flags.optimize != 1:
    raise SystemExit("not optimized")
def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def optimized_runs(script, *paths):
    """The (code, stdout, stderr) of each run the script makes under -O."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN + script, *paths],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def invariant_error(message):
    return (6, "", dump({"error": {"kind": "invariant", "message": message}}))


def test_pipeline_checks_survive_optimized_mode():
    # python -O strips assert statements; the pipeline's stacked-size and
    # stage-count checks are explicit raises, so they still fire, and
    # each ends the command with exit 6
    script = """
path = sys.argv[1]
run("pipeline", path)
pad, walk = pipeline.n_good_padding, pipeline._walk
pipeline.n_good_padding = lambda m, n: IntMatrix(pad(m, n).data + pad(m, n).data[-1:])
run("pipeline", path)
pipeline.n_good_padding = pad
pipeline._walk = lambda s, b, count: walk(s, b, count)[1:] if s.equations == 93 else walk(s, b, count)
run("pipeline", path)
"""
    path = fixture("sys_z6_full.json")
    report, stacked, counts = optimized_runs(script, path)
    assert report == (0, run_cli("pipeline", path).stdout, "")
    assert stacked == invariant_error("stacked block count is off")
    assert counts[:2] == (6, "")
    assert json.loads(counts[2])["error"]["kind"] == "invariant"
    assert json.loads(counts[2])["error"]["message"].startswith(
        "stage solution counts diverged"
    )


def test_cli_checks_survive_optimized_mode():
    # snf's product check, remove's post-count check and the class check
    # behind copies' count are explicit raises too, so python -O keeps them
    script = """
snf_path, remove_path, copies_path = sys.argv[1:]
run("remove", remove_path)
snf, solve = cli.smith_normal_form, cli.min_removal_exact
cli.smith_normal_form = lambda m: dataclasses.replace(
    snf(m), S=IntMatrix([[v + 1 for v in row] for row in snf(m).S.data])
)
run("snf", snf_path)
cli.min_removal_exact = lambda s, p, b: dataclasses.replace(
    solve(s, p, b), removed=((),) * s.variables
)
run("remove", remove_path)
host = cli.HostHypergraph
cli.HostHypergraph = lambda s, k: host(
    s, IntMatrix([[8, 2, 0], [0, 4, 1], [1, 0, 4]])
)
run("copies", copies_path)
"""
    snf_path, remove_path = fixture("matrix_2x2.json"), fixture("sys_small.json")
    copies_path = fixture("sys_z5_full.json")
    report, product, post, structure = optimized_runs(
        script, snf_path, remove_path, copies_path
    )
    assert report == (0, run_cli("remove", remove_path).stdout, "")
    assert product == invariant_error("normal form product check failed")
    assert post == invariant_error("reported removal leaves solutions alive")
    assert structure == invariant_error(
        "copy class structure fails: "
        "kernel matrix does not annihilate the system matrix; "
        "labels from windowed kernel column 0 fail the system"
    )


def test_package_has_no_assert_statement():
    # python -O strips assert statements and keeps an explicit raise, so
    # every invariant of the package must be a raise
    paths = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_raises_no_assertion_error():
    # a failed invariant raises InvariantError, which the command maps to
    # exit 6 with a JSON error; an AssertionError would end in a traceback
    paths = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and "AssertionError"
        in {n.id for n in ast.walk(node.exc or node) if isinstance(n, ast.Name)}
    ]
    assert found == []


def test_forged_copy_classes_exit_with_the_invariant_code(monkeypatch):
    # copies trusts no host: a forged kernel fails the class check that
    # its count rests on, and the command exits 6 with a JSON error, the
    # same with asserts stripped
    host = cli.HostHypergraph

    def forged(system, kernel_matrix):
        return host(system, IntMatrix([[8, 2, 0], [0, 4, 1], [1, 0, 4]]))

    monkeypatch.setattr(cli, "HostHypergraph", forged)
    assert main_result(["copies", fixture("sys_z5_full.json")]) == invariant_error(
        "copy class structure fails: "
        "kernel matrix does not annihilate the system matrix; "
        "labels from windowed kernel column 0 fail the system"
    )


def test_failed_reduction_check_exits_with_the_invariant_code(monkeypatch):
    # copies and verify host the reduction's target only once its
    # extension check passed; pipeline reports the failed check and exits 0
    check = pipeline._check_reduction

    def forged(*args):
        count, report = check(*args)
        return count, dataclasses.replace(report, ok=False, problems=["forged", "twice"])

    monkeypatch.setattr(pipeline, "_check_reduction", forged)
    path = fixture("sys_z11_2x4.json")
    failed = invariant_error("reduction check fails: forged; twice")
    assert main_result(["copies", path]) == failed
    assert main_result(["verify", path]) == failed
    code, out, err = main_result(["pipeline", path])
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"]["ok"] is False


def test_budget_env_variable():
    proc = run_cli(
        "solve", fixture("sys_z5_full.json"), env_extra={"LINREMOVAL_BUDGET": "10"}
    )
    assert proc.returncode == 4
    # the flag wins over the environment
    out = run_json(
        "solve",
        "--budget",
        "1000",
        fixture("sys_z5_full.json"),
        env_extra={"LINREMOVAL_BUDGET": "10"},
    )
    assert out["count"] == 25


def test_budget_env_validation():
    proc = run_cli(
        "solve", fixture("sys_z5_full.json"), env_extra={"LINREMOVAL_BUDGET": "ten"}
    )
    assert proc.returncode == 2
    proc2 = run_cli("solve", "--budget", "0", fixture("sys_z5_full.json"))
    assert proc2.returncode == 2


def test_large_modulus_reports_write_counts_as_strings(tmp_path):
    # x1 + x2 + x3 = 0 over Z_p, p = 2^61 - 1, with three small sets: the
    # pipeline tests its target's unmapped coordinates by set size, so G is
    # never listed, and every count and modulus past 2^53 is a string
    p = 2**61 - 1
    path = sum_system(tmp_path / "z61.json", p, [[0, 1, 2], [0, 1, 2], [0, -1, -2, -3]])
    out = main_json(["pipeline", path])
    assert out["outcome"] == "circular"
    assert out["target"]["modulus"] == out["stages"][-1]["modulus"] == str(p)
    assert out["verification"]["ok"] is True
    assert out["solutions"] == 8
    out = main_json(["verify", path])
    assert out["verdict"] == "PASS"
    assert (out["copies"], out["expected_class_size"]) == (str(8 * p), str(p))
    assert (out["classes"], out["solutions"]) == (8, 8)
    assert main_json(["copies", path])["count"] == str(8 * p)
    # the commands that take --n echo it by the same rule
    for command, name in [
        ("ngood", "matrix_square.json"),
        ("circular", "matrix_row.json"),
        ("cmatrix", "matrix_row.json"),
    ]:
        assert main_json([command, "--n", str(p), fixture(name)])["n"] == str(p)


def test_large_modulus_copy_rows_are_strings(tmp_path, monkeypatch):
    # copies --full over Z_p, p = 2^61 - 1: a budget of p^3 passes the
    # listing's pre-check, but no walk can list G, so a stand-in gives two
    # 2m-tuples; the compact and --human reports carry the same rows, and
    # each residue past 2^53 is a decimal string
    p = 2**61 - 1
    path = sum_system(tmp_path / "z61.json", p, [[0, 1, 2], [0, 1, 2], [0, -1, -2]])
    listing = [
        ((0,), (1,), (p - 1,), (1,), (2,), (p - 3,)),
        ((1,), (p - 2,), (1,), (2,), (0,), (p - 2,)),
    ]
    budgets = []

    def listed(host, budget):
        budgets.append(budget)
        return listing

    monkeypatch.setattr(cli, "enumerate_copies", listed)
    runs = [
        main_result(["copies", "--full", *flags, "--budget", str(p**3), path])
        for flags in ([], ["--human"])
    ]
    assert [(code, err) for code, _, err in runs] == [(0, "")] * 2
    report = json.loads(runs[0][1])
    assert json.loads(runs[1][1]) == report
    assert runs[0][1] == dump(report)
    assert (report["count"], budgets) == (2, [p**3] * 2)
    assert report["copies"][0] == {
        "assignment": [[0], [1], [str(p - 1)]],
        "labels": [[1], [2], [str(p - 3)]],
    }


@pytest.mark.skipif(LIMIT == 0, reason="no int-string digit limit")
def test_padding_precondition_past_the_digit_limit(tmp_path):
    # diag(a, a) with a of about LIMIT / 2 digits reads fine, but its
    # determinant a^2 shares the factor 2 with n and has more than LIMIT
    # digits: the precondition names neither number
    a = str(10 ** (LIMIT // 2 + 50))
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[a, 0], [0, a]]}))
    code, out, err = main_result(["ngood", "--n", "2", str(path)])
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": {
            "kind": "precondition",
            "message": "the determinant shares a factor with the modulus",
        }
    }


def test_non_decimal_digits_exit_with_a_schema_error(tmp_path):
    # int() refuses a superscript digit, which str.isdigit() passes, and a
    # doubled minus: each is a JSON schema error with exit 2, no traceback
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"rows": 1, "cols": 2, "data": [[1, "\u00b2"]]}))
    system = fixture("sys_z5_full.json")
    cases = [
        (["dk", str(matrix)], None, "matrix.data[0][1]: '\u00b2' is not a decimal integer string"),
        (
            ["remove", "--protect", "1,\u00b2", system],
            None,
            "--protect expects 1-based coordinates, got '\u00b2'",
        ),
        (["solve", system], "\u00b2", "LINREMOVAL_BUDGET must be an integer, got '\u00b2'"),
        (["solve", system], "--5", "LINREMOVAL_BUDGET must be an integer, got '--5'"),
    ]
    for args, budget, message in cases:
        env = None if budget is None else {"LINREMOVAL_BUDGET": budget}
        proc = run_cli(*args, env_extra=env)
        assert (proc.returncode, proc.stdout) == (2, ""), args
        assert json.loads(proc.stderr) == {
            "error": {"kind": "schema", "message": message}
        }, args
    # a single minus before decimal digits is still an integer string
    matrix.write_text(json.dumps({"rows": 1, "cols": 2, "data": [[1, "-5"]]}))
    assert run_json("dk", str(matrix)) == {"divisors": [1]}


@pytest.mark.skipif(LIMIT == 0, reason="no int-string digit limit")
def test_digit_limit_failures_end_with_documented_exit_codes(tmp_path, monkeypatch):
    # Python reads and writes decimal integer text only up to LIMIT digits:
    # a longer input integer is a schema error (exit 2) and a longer result
    # integer a precondition error (exit 3), each with a JSON error
    too_long = "9" * (LIMIT + 1)
    read = f"{LIMIT + 1} digits exceed Python's limit of {LIMIT} for a decimal integer string"
    written = f"a result integer is longer than Python's limit of {LIMIT} digits for a decimal string"
    path = tmp_path / "input.json"

    def outcome(text, *args):
        path.write_text(text)
        code, out, err = main_result([*args, str(path)])
        assert out == "", args
        error = json.loads(err)["error"]
        return code, error["kind"], error["message"]

    matrix = json.dumps({"rows": 1, "cols": 2, "data": [[too_long, 1]]})
    assert outcome(matrix, "dk") == (2, "schema", f"matrix.data[0][0]: {read}")
    literal = '{"rows": 1, "cols": 2, "data": [[' + too_long + ", 1]]}"
    assert outcome(literal, "dk") == (
        2,
        "schema",
        f"{path}: a number has more digits than Python's limit of {LIMIT}",
    )
    # two coprime integers of about 2/3 LIMIT digits: their product, the
    # second Smith invariant, has more than LIMIT
    a = 10 ** (2 * LIMIT // 3)
    diag = json.dumps({"rows": 2, "cols": 2, "data": [[str(a + 1), 0], [0, str(a + 3)]]})
    assert outcome(diag, "snf") == (3, "precondition", written)

    system = Path(fixture("sys_z5_full.json")).read_text()
    assert outcome(system, "remove", "--protect", too_long) == (
        2,
        "schema",
        f"--protect: {read}",
    )
    monkeypatch.setenv("LINREMOVAL_BUDGET", too_long)
    assert outcome(system, "solve") == (2, "schema", f"LINREMOVAL_BUDGET: {read}")
    monkeypatch.delenv("LINREMOVAL_BUDGET")

    # a circular system over Z_N, N odd with over LIMIT / 2 digits, and one
    # solution: its copy count N^2 has over LIMIT digits, and its N^4
    # assignments exceed any budget
    n = 10 ** (LIMIT // 2 + 10) + 1
    big = json.dumps(
        {
            "group": {"moduli": [str(n)]},
            "A": {"rows": 2, "cols": 4, "data": [[1, 0, 1, 1], [0, 1, 1, 2]]},
            "b": [[0], [0]],
            "X": [[[0]]] * 4,
        }
    )
    assert outcome(big, "copies") == (3, "precondition", written)
    assert outcome(big, "verify") == (3, "precondition", written)
    code, kind, message = outcome(big, "copies", "--full")
    assert (code, kind) == (4, "budget")
    bits = (n**4).bit_length() - 1
    assert message == f"over 2^{bits} assignments exceed the budget of {cli.DEFAULT_BUDGET}"


def test_usage_error_exit():
    runs = [
        (),
        ("snf",),
        ("nonsense", fixture("matrix_2x2.json")),
        # the exact minimum is the default and has no flag
        ("remove", "--exact", fixture("sys_z5_full.json")),
    ]
    for args in runs:
        proc = run_cli(*args)
        assert (proc.returncode, proc.stdout) == (2, ""), args
        assert json.loads(proc.stderr)["error"]["kind"] == "schema", args


def test_parser_reused_after_usage_error():
    # the command table is read, never written: a usage error must not
    # leave state behind for the next call
    args = ["remove", fixture("sys_z5_full.json")]
    first = io.StringIO()
    with contextlib.redirect_stdout(first):
        assert cli.main(args) == 0
    for bad in (["remove", "--bogus", args[1]], ["remove", "--budget"], ["ngood", args[1]]):
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(bad) == 2
    again = io.StringIO()
    with contextlib.redirect_stdout(again):
        assert cli.main(args) == 0
    assert again.getvalue() == first.getvalue()
    assert first.getvalue() == run_cli(*args).stdout


def usage_error(args):
    """The JSON error of a usage error run in-process, checking its exit
    code and empty stdout."""
    code, out, err = main_result(args)
    assert (code, out) == (2, ""), args
    error = json.loads(err)["error"]
    assert set(error) == {"kind", "message"}, args
    assert error["kind"] == "schema", args
    return error["message"]


# well-formed argvs, one per command and flag form, each with one input
WELL_FORMED_ARGVS = [
    ["snf", fixture("matrix_2x2.json")],
    ["dk", "--human", fixture("matrix_2x2.json")],
    ["complete", fixture("matrix_row.json"), "--budget", "50"],
    ["ngood", "--n", "5", fixture("matrix_square.json")],
    ["circular", fixture("matrix_wide.json"), "--n=5"],
    ["cmatrix", "--n", "5", "--budget=7", fixture("matrix_row.json")],
    ["solve", fixture("sys_z5_full.json")],
    ["pipeline", "--trace", fixture("sys_z5_full.json")],
    ["copies", "--full", fixture("sys_z5_restricted.json")],
    ["verify", fixture("sys_z5_restricted.json"), "--human"],
    ["remove", "--greedy", fixture("sys_thin.json")],
    ["remove", "--protect", "1", fixture("sys_z5_full.json"), "--budget", "100"],
]
BAD_INTEGERS = ["x", "1_000", "1.5", "", "\u00b2", "--5", "0x10", " 5", "+5"]


def break_argv(argv, rng):
    """One seeded change that makes a well-formed argv a usage error."""
    argv = list(argv)
    at = rng.choice([1, len(argv)])
    kind = rng.choice(
        ["command", "no input", "two inputs", "unknown", "no value", "integer", "flag value"]
    )
    if kind == "command":
        argv[0] = rng.choice(["nonsense", "SNF", "remov", "--budget", "-o", ""])
    elif kind == "no input":
        argv = [arg for arg in argv if not arg.endswith(".json")]
    elif kind == "two inputs":
        argv.insert(at, "other.json")
    elif kind == "unknown":
        # argparse took an unambiguous prefix such as --bud; exact names only now
        unknown = ["--bogus", "-x", "--exact", "--bud", "--hum", "--outp", "-O"]
        argv.insert(at, rng.choice(unknown))
    elif kind == "no value":
        argv.append(rng.choice(["--budget", "-o", "--output"]))
    elif kind == "integer":
        name = "--n" if "--n" in argv and rng.random() < 0.5 else "--budget"
        value = rng.choice(BAD_INTEGERS)
        argv[at:at] = rng.choice([[name, value], [f"{name}={value}"]])
    else:
        argv.insert(at, rng.choice(["--human=1", "--human=", "--trace=x", "--full=yes"]))
    return argv


def test_argv_fuzz_usage_errors_end_as_json():
    # every usage error exits 2 with empty stdout and a JSON schema error,
    # whatever the argv; the named cases first, then seeded breakages of
    # well-formed argvs
    matrix, system = fixture("matrix_square.json"), fixture("sys_z5_full.json")
    commands = ", ".join(cli.COMMANDS)
    named = {
        (): f"no command given; expected one of {commands}",
        ("nonsense", system): f"unknown command 'nonsense'; expected one of {commands}",
        ("solve",): "solve: expected one input file, got none",
        ("solve", system, "x.json"): f"solve: expected one input file, got {system!r}, 'x.json'",
        ("solve", "--bogus", system): "solve: unknown option '--bogus'",
        ("solve", "--bud", "5", system): "solve: unknown option '--bud'",
        ("solve", system, "--budget"): "solve: --budget expects a value",
        ("solve", "--budget", "1_000", system): "--budget must be an integer, got '1_000'",
        ("ngood", "--n", "x", matrix): "--n must be an integer, got 'x'",
        ("ngood", matrix): "ngood: --n is required",
        ("ngood", "--n=", matrix): "--n must be an integer, got ''",
        ("solve", "--budget=x", system): "--budget must be an integer, got 'x'",
        ("solve", "--human=1", system): "solve: --human takes no value",
        ("dk", "--n", "5", matrix): "dk: unknown option '--n'",
    }
    for args, message in named.items():
        assert usage_error(list(args)) == message, args
    # unbroken, every argv runs; none names a report file
    for argv in WELL_FORMED_ARGVS:
        code, out, err = main_result(argv)
        assert (code, err) == (0, ""), argv
        json.loads(out)
    rng = random.Random(24)
    for _ in range(300):
        usage_error(break_argv(rng.choice(WELL_FORMED_ARGVS), rng))


def test_help_goes_to_stdout():
    top = run_cli("--help")
    assert (top.returncode, top.stderr) == (0, "")
    for name in cli.COMMANDS:
        assert f"\n  {name} " in top.stdout
    for args in (["-h"], ["remove", "--help"], ["ngood", fixture("matrix_square.json"), "-h"]):
        code, out, err = main_result(args)
        assert (code, err) == (0, ""), args
        assert out.startswith("usage: linremoval"), args
    _, remove_help, _ = main_result(["remove", "--help"])
    for name in ("--greedy", "--protect", "--budget", "--human", "-o, --output"):
        assert name in remove_help
    _, ngood_help, _ = main_result(["ngood", "--help"])
    assert ngood_help.startswith("usage: linremoval ngood --n N [options] INPUT\n")


def test_options_in_any_order_and_last_value_wins(tmp_path):
    dest = tmp_path / "report.json"
    base = main_result(["ngood", "--n", "5", fixture("matrix_square.json")])
    for args in (
        ["ngood", fixture("matrix_square.json"), "--n=5"],
        ["ngood", "--n", "3", "--n", "5", fixture("matrix_square.json")],
        ["ngood", "--n", "5", "--", fixture("matrix_square.json")],
    ):
        assert main_result(args) == base, args
    written = ["ngood", "-o", str(dest), "--n", "5", fixture("matrix_square.json")]
    assert main_result(written) == (0, "", "")
    assert dest.read_text() == base[1]


def test_cli_imports_no_argparse():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONOPTIMIZE", None)  # which would strip the assert
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, linremoval.cli; assert 'argparse' not in sys.modules"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- reporting


def test_output_file(tmp_path):
    dest = tmp_path / "report.json"
    proc = run_cli("dk", fixture("matrix_2x2.json"), "-o", str(dest))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(dest.read_text()) == {"divisors": [2, 12]}


def test_output_file_write_error(tmp_path):
    # a report that cannot be written ends like an input that cannot be read
    dest = tmp_path / "missing" / "report.json"
    proc = run_cli("solve", fixture("sys_z5_full.json"), "-o", str(dest))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr) == {
        "error": {
            "kind": "schema",
            "message": f"cannot write {dest}: No such file or directory",
        }
    }
    assert not dest.parent.exists()


def test_human_formatting():
    compact = run_cli("dk", fixture("matrix_2x2.json")).stdout
    human = run_cli("dk", fixture("matrix_2x2.json"), "--human").stdout
    assert json.loads(compact) == json.loads(human)
    assert "\n  " in human
    assert "\n  " not in compact
    assert compact.endswith("\n")
    assert human.endswith("\n")


DETERMINISM_RUNS = [
    ("snf", fixture("matrix_2x2.json")),
    ("dk", fixture("matrix_2x2.json")),
    ("complete", fixture("matrix_row.json")),
    ("ngood", "--n", "5", fixture("matrix_square.json")),
    ("circular", "--n", "5", fixture("matrix_wide.json")),
    ("cmatrix", "--n", "5", fixture("matrix_row.json")),
    ("solve", fixture("sys_z5_full.json")),
    ("pipeline", "--trace", fixture("sys_z5_full.json")),
    ("copies", "--full", fixture("sys_z5_restricted.json")),
    ("verify", fixture("sys_z5_restricted.json")),
    ("remove", fixture("sys_z5_full.json")),
    ("remove", "--greedy", fixture("sys_thin.json")),
]


@pytest.mark.parametrize("args", DETERMINISM_RUNS, ids=lambda a: " ".join(a[:2]))
def test_repeated_runs_are_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------- fuzz


FUZZ_MODULI = [[n] for n in range(1, 13)] + [[2, 2], [2, 4], [2, 6], [3, 3]]


def fuzz_system(rng):
    """A random system over one of FUZZ_MODULI, k <= 3 and m <= 6, in the
    wire format; k may exceed m."""
    moduli = rng.choice(FUZZ_MODULI)
    elements = AbelianGroup(moduli).elements()
    k, m = rng.randint(1, 3), rng.randint(1, 6)
    return {
        "group": {"moduli": list(moduli)},
        "A": {
            "rows": k,
            "cols": m,
            "data": [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)],
        },
        "b": [list(rng.choice(elements)) for _ in range(k)],
        "X": [
            [list(x) for x in rng.sample(elements, rng.randint(1, len(elements)))]
            for _ in range(m)
        ],
    }


# strings str.isdigit() passes or a "-" strip let through, which int()
# refuses, and one it reads (an Arabic-Indic 3)
FUZZ_DIGIT_STRINGS = ["\u00b2", "-\u00b2", "1\u00b2", "--5", "\u0663"]


def mutate(obj, rng):
    """One of: a dropped key, a boolean for an integer, a bad modulus, a
    short X, a digit string for an integer, a digit string past Python's
    int-string digit limit, a byte that is not UTF-8 (see fuzz_file_bytes);
    or the system unchanged."""
    kind = rng.choice(
        ["drop", "bool", "modulus", "short", "digits", "long", "utf8", "none"]
    )
    if kind == "drop":
        holder = rng.choice([obj, obj["A"], obj["group"]])
        del holder[rng.choice(sorted(holder))]
    elif kind == "bool":
        row = rng.choice(obj["A"]["data"] + obj["X"][0] + [obj["group"]["moduli"]])
        row[rng.randrange(len(row))] = rng.choice([True, False])
    elif kind == "modulus":
        obj["group"]["moduli"] = rng.choice([[0], [-3], [], "6", [2, "x"], [6, 0]])
    elif kind == "short":
        obj["X"] = obj["X"][:-1]
    elif kind == "digits":
        row = rng.choice(obj["A"]["data"] + [obj["group"]["moduli"]])
        row[rng.randrange(len(row))] = rng.choice(FUZZ_DIGIT_STRINGS)
    elif kind == "long":
        row = rng.choice(obj["A"]["data"] + obj["b"] + [obj["group"]["moduli"]])
        row[rng.randrange(len(row))] = rng.choice(["", "-"]) + "9" * (LIMIT + 1)
    elif kind == "utf8":
        row = rng.choice(obj["A"]["data"])
        row[rng.randrange(len(row))] = rng.choice(["\udcff", "1\udcc0"])
    return obj


def fuzz_file_bytes(obj) -> bytes:
    """obj as a JSON file, where a lone surrogate such as "\\udcff" in a
    string becomes the raw byte it escapes, 0xff, which is not UTF-8."""
    return json.dumps(obj, ensure_ascii=False).encode("utf-8", "surrogateescape")


def fuzz_argvs(matrix_path, system_path, n):
    n = str(n)
    return [
        ["snf", matrix_path],
        ["dk", matrix_path],
        ["complete", matrix_path],
        ["ngood", "--n", n, matrix_path],
        ["circular", "--n", n, matrix_path],
        ["cmatrix", "--n", n, matrix_path],
        ["solve", system_path],
        ["pipeline", "--trace", system_path],
        ["copies", system_path],
        ["copies", "--full", system_path],
        ["verify", system_path],
        ["remove", system_path],
        ["remove", "--greedy", system_path],
        ["remove", "--protect", "1,\u00b2", system_path],
        ["remove", "--protect", "9" * (LIMIT + 1), system_path],
    ]


def test_cli_fuzz_ends_with_documented_exit_codes(tmp_path):
    # seeded random and mutated systems through every subcommand: each run
    # ends with a documented exit code, a JSON report on success and a JSON
    # error on stderr otherwise, never an uncaught exception
    rng = random.Random(2011)
    matrix_path, system_path = tmp_path / "matrix.json", tmp_path / "system.json"
    codes = set()
    for _ in range(60):
        obj = mutate(fuzz_system(rng), rng)
        matrix_path.write_bytes(fuzz_file_bytes(obj.get("A", obj)))
        system_path.write_bytes(fuzz_file_bytes(obj))
        n = rng.randint(1, 12)
        for args in fuzz_argvs(str(matrix_path), str(system_path), n):
            code, out, err = main_result([*args, "--budget", "20000"])
            assert code in {0, 2, 3, 4, 5}, (args, obj)
            if code:
                assert out == ""
                assert set(json.loads(err)["error"]) == {"kind", "message"}
            else:
                json.loads(out)
            codes.add(code)
    assert {0, 2, 3} <= codes

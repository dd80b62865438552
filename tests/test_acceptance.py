"""Acceptance suite: seven end-to-end criteria, one pass/fail line each.

Run with -s to see the lines on success; each criterion is also a single
test so the -v listing carries the verdicts.  Every derived number here is
recomputed through an independent route (Fraction elimination, brute-force
subset search, subprocess byte comparison) before the library answer is
accepted.

The CLI reports are also pinned byte for byte in fixtures/cli_golden.json.
Regenerate that file only on a deliberate contract change, with
`PYTHONPATH=src python tests/test_acceptance.py`.
"""

import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from linremoval import (
    AbelianGroup,
    IntMatrix,
    HostHypergraph,
    RestrictedSystem,
    CircularSystem,
    complete_to_square,
    count_solutions,
    determinantal_divisor,
    enumerate_copies,
    enumerate_solutions,
    full_extension,
    greedy_removal,
    is_circular,
    is_n_good,
    min_removal_exact,
    n_good_padding,
    remove_elements,
    smith_normal_form,
    verify_copy_classes,
    verify_copy_labels,
    verify_extension,
)
from test_removal import brute_min_size

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
GOLDEN_PLACEHOLDER = "<fixtures>"


def report(num, label, ok, detail):
    line = f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def frac_det(rows):
    # independent determinant: Gaussian elimination over exact rationals
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for cc in range(c, n):
                    m[r][cc] -= f * m[c][cc]
    num, den = out.as_integer_ratio()
    assert den == 1
    return num


def plain_matmul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


# ------------------------------------------------------------- criterion 1


def test_criterion_1_smith_form_suite():
    rng = random.Random(20240514)
    start = time.perf_counter()
    failures = []
    for trial in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        a = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(IntMatrix(a))
        u = [list(r) for r in res.U.data]
        v = [list(r) for r in res.V.data]
        s = [list(r) for r in res.S.data]
        if plain_matmul(plain_matmul(u, a), v) != s:
            failures.append((trial, "product"))
            continue
        if abs(frac_det(u)) != 1 or abs(frac_det(v)) != 1:
            failures.append((trial, "unimodular"))
            continue
        diag = [s[i][i] for i in range(min(rows, cols))]
        if any(s[i][j] for i in range(rows) for j in range(cols) if i != j):
            failures.append((trial, "off-diagonal"))
            continue
        if any(d < 0 for d in diag):
            failures.append((trial, "negative"))
            continue
        chain_ok = all(
            (x == 0 and y == 0) or (x != 0 and y % x == 0)
            for x, y in zip(diag, diag[1:])
        )
        if not chain_ok:
            failures.append((trial, "chain"))
            continue
        rank = sum(1 for d in diag if d)
        prod = 1
        for k in range(1, rank + 1):
            prod *= diag[k - 1]
            if determinantal_divisor(IntMatrix(a), k) != prod:
                failures.append((trial, f"divisor k={k}"))
                break
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(1, "smith form suite", ok, f"500 matrices, {len(failures)} failures, {elapsed:.2f}s")


# ------------------------------------------------------------- criterion 2


def test_criterion_2_completion_suite():
    rng = random.Random(73)
    failures = []
    done = 0
    while done < 200:
        m = rng.randint(2, 6)
        k = rng.randint(1, m - 1)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(k)]
        mat = IntMatrix(a)
        dk = determinantal_divisor(mat, k)
        if dk == 0:
            continue
        done += 1
        c, _ = complete_to_square(mat)
        if c.data[:k] != mat.data:
            failures.append((done, "prefix"))
            continue
        if frac_det([list(r) for r in c.data]) != dk:
            failures.append((done, "determinant"))
    ok = not failures
    report(2, "square completion", ok, f"200 completions, {len(failures)} failures")


# ------------------------------------------------------------- criterion 3


def test_criterion_3_padding_suite():
    rng = random.Random(3511)
    start = time.perf_counter()
    failures = []
    checked = 0
    for r in (1, 2, 3):
        for n in range(2, 13):
            done = 0
            while done < 20:
                m = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(r)]
                if math.gcd(frac_det(m), n) != 1:
                    continue
                done += 1
                checked += 1
                mat = IntMatrix(m)
                p = n_good_padding(mat, n)
                if p.rows != r * (2 * r + 1) or p.cols != r:
                    failures.append((r, n, "shape"))
                    continue
                ident = IntMatrix.identity(r).data
                if p.data[:r] != ident or p.data[-r:] != ident:
                    failures.append((r, n, "identity blocks"))
                    continue
                if p.data[r * r : r * r + r] != mat.data:
                    failures.append((r, n, "position"))
                    continue
                if not is_n_good(p, n):
                    failures.append((r, n, "library check"))
                    continue
                window_ok = all(
                    math.gcd(
                        frac_det([list(p.data[s + i]) for i in range(r)]), n
                    )
                    == 1
                    for s in range(p.rows - r + 1)
                )
                if not window_ok:
                    failures.append((r, n, "window oracle"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(3, "window padding", ok, f"{checked} paddings, {len(failures)} failures, {elapsed:.2f}s")


# ------------------------------------------------------------- criterion 4


def z5():
    return AbelianGroup([5])


def z7():
    return AbelianGroup([7])


def z15():
    return AbelianGroup([3, 5])


def full(group, m):
    return tuple(group.elements() for _ in range(m))


def suite_systems():
    g5, g7, g15 = z5(), z7(), z15()
    e5 = g5.elements()
    out = [
        RestrictedSystem(g5, IntMatrix([[1, 1, 1]]), ((0,),), full(g5, 3)),
        RestrictedSystem(g5, IntMatrix([[1, 1, 1]]), ((2,),), full(g5, 3)),
        RestrictedSystem(g5, IntMatrix([[1, 2, 3]]), ((0,),), full(g5, 3)),
        RestrictedSystem(g5, IntMatrix([[2, 1, 1]]), ((0,),), full(g5, 3)),
        RestrictedSystem(
            g5,
            IntMatrix([[1, 1, 1]]),
            ((0,),),
            (e5[:2], e5, e5),
        ),
        RestrictedSystem(
            g5,
            IntMatrix([[1, 1, 1]]),
            ((0,),),
            (e5[:2], e5[:3], e5),
        ),
        RestrictedSystem(
            g5, IntMatrix([[1, 0, 2, 1], [0, 1, 1, 1]]), ((0,), (0,)), full(g5, 4)
        ),
        RestrictedSystem(
            g5, IntMatrix([[1, 3, 0, 2], [0, 1, 1, 3]]), ((1,), (4,)), full(g5, 4)
        ),
        RestrictedSystem(g7, IntMatrix([[1, 1, 1]]), ((0,),), full(g7, 3)),
        RestrictedSystem(g7, IntMatrix([[1, 3, 2]]), ((0,),), full(g7, 3)),
        RestrictedSystem(g7, IntMatrix([[1, 1, 1, 1]]), ((0,),), full(g7, 4)),
        RestrictedSystem(g15, IntMatrix([[1, 1, 1]]), ((0, 0),), full(g15, 3)),
        RestrictedSystem(
            g15,
            IntMatrix([[1, 2, 1]]),
            ((0, 0),),
            (((0, 0), (1, 1)), ((0, 0), (1, 2)), g15.elements()),
        ),
    ]
    for sys_ in out:
        assert sys_.coprime
        assert sys_.group.order ** sys_.variables <= 10**6
    return out


def test_criterion_4_pipeline_conservation():
    failures = []
    circular_count = 0
    for idx, sys_ in enumerate(suite_systems()):
        res = full_extension(sys_)
        counts = [st["solutions"] for st in res.stages]
        if len(set(counts)) != 1:
            failures.append((idx, f"counts diverge {counts}"))
            continue
        if res.outcome != "circular":
            failures.append((idx, f"unexpected outcome {res.outcome}"))
            continue
        circular_count += 1
        rep = verify_extension(res.composed)
        if not rep.ok:
            failures.append((idx, f"verify: {rep.problems[:2]}"))
            continue
        if res.verification != rep:
            failures.append((idx, "built-in verification differs"))
            continue
        if not is_circular(res.circular.matrix, res.circular.modulus):
            failures.append((idx, "target not circular"))
    ok = not failures and circular_count >= 10
    report(
        4,
        "pipeline conservation",
        ok,
        f"{circular_count} systems through the full route, {len(failures)} failures",
    )


# ------------------------------------------------------------- criterion 5


def host_for(group, matrix, sets):
    # the system as given, with the kernel of its reduction mod n
    n = group.order
    circ = CircularSystem(matrix.mod(n), n)
    system = RestrictedSystem(group, matrix, (group.zero,) * matrix.rows, sets)
    return HostHypergraph(system, circ.kernel_matrix)


def copy_stats(group, matrix, sets):
    host = host_for(group, matrix, sets)
    copies = enumerate_copies(host)
    sols = enumerate_solutions(host.system)
    class_rep = verify_copy_classes(host, copies, sols)
    label_rep = verify_copy_labels(host, copies)
    classes = len({c[host.positions :] for c in copies})
    return len(copies), classes, class_rep, label_rep


def test_criterion_5_copy_counts():
    start = time.perf_counter()
    failures = []
    g5, g7 = z5(), z7()
    a = IntMatrix([[1, 1, 1]])

    cases = [
        ("full Z5", g5, a, full(g5, 3), 125, 25, 5),
        ("restricted Z5", g5, a, (g5.elements()[:2], g5.elements(), g5.elements()), 50, 10, 5),
        ("full Z7", g7, a, full(g7, 3), 343, 49, 7),
    ]
    for name, group, mat, sets, want_copies, want_classes, want_size in cases:
        got_copies, got_classes, class_rep, label_rep = copy_stats(group, mat, sets)
        if got_copies != want_copies or got_classes != want_classes:
            failures.append((name, f"{got_copies}/{got_classes}"))
            continue
        if class_rep.expected_class_size != want_size:
            failures.append((name, "class size"))
            continue
        if not class_rep.ok:
            failures.append((name, f"classes: {class_rep.problems[:2]}"))
            continue
        if not label_rep.ok:
            failures.append((name, f"labels: {label_rep.problems[:2]}"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report(5, "copy counts", ok, f"3 hosts, {len(failures)} failures, {elapsed:.2f}s")


# ------------------------------------------------------------- criterion 6


def test_criterion_6_removal_exactness():
    g5, g15 = z5(), z15()
    g4 = AbelianGroup([4])
    instances = [
        (
            RestrictedSystem(
                g5,
                IntMatrix([[1, 1, 1]]),
                ((0,),),
                (g5.elements()[:2], g5.elements()[:3], g5.elements()),
            ),
            (0,),
        ),
        (
            RestrictedSystem(
                g15,
                IntMatrix([[1, 2, 1]]),
                ((0, 0),),
                (((0, 0), (1, 1)), ((0, 0), (1, 2)), g15.elements()),
            ),
            (2,),
        ),
        (
            RestrictedSystem(
                g4, IntMatrix([[1, 1, 1]]), ((0,),), (((0,),), ((1,),), ((3,),))
            ),
            (),
        ),
        (
            RestrictedSystem(g5, IntMatrix([[1, 2]]), ((1,),), full(g5, 2)),
            (),
        ),
        (
            RestrictedSystem(g4, IntMatrix([[1, 1]]), ((0,),), full(g4, 2)),
            (1,),
        ),
    ]
    failures = []
    for idx, (sys_, protect) in enumerate(instances):
        sols = enumerate_solutions(sys_)
        if len(sols) > 20:
            failures.append((idx, f"instance too large: {len(sols)}"))
            continue
        exact = min_removal_exact(sys_)
        want = brute_min_size(sys_)
        if exact.total_size != want or not exact.optimal:
            failures.append((idx, f"exact {exact.total_size} vs brute {want}"))
            continue
        if count_solutions(remove_elements(sys_, exact.removed)) != 0:
            failures.append((idx, "leftover solutions"))
            continue
        greedy = greedy_removal(sys_)
        if greedy.total_size < exact.total_size:
            failures.append((idx, "greedy beat exact"))
            continue
        if count_solutions(remove_elements(sys_, greedy.removed)) != 0:
            failures.append((idx, "greedy leftover"))
            continue
        if protect:
            shielded = min_removal_exact(sys_, protected=protect)
            if any(shielded.removed[j] for j in protect):
                failures.append((idx, "protection violated"))
                continue
            if shielded.total_size != brute_min_size(sys_, protected=protect):
                failures.append((idx, "protected minimum off"))
                continue
            if count_solutions(remove_elements(sys_, shielded.removed)) != 0:
                failures.append((idx, "protected leftover"))
    ok = not failures
    report(
        6,
        "removal exactness",
        ok,
        f"{len(instances)} instances vs brute force, {len(failures)} failures",
    )


# ------------------------------------------------------------- criterion 7


def cli_runs():
    fx = lambda name: str(FIXTURES / name)
    return [
        ("snf", fx("matrix_2x2.json")),
        ("snf", "--human", fx("matrix_2x2.json")),
        ("snf", fx("matrix_wide.json")),
        ("dk", fx("matrix_2x2.json")),
        ("dk", fx("matrix_row.json")),
        ("complete", fx("matrix_row.json")),
        ("complete", fx("matrix_wide.json")),
        ("dk", fx("matrix_wide.json")),
        ("complete", fx("matrix_2x2.json")),
        ("dk", fx("matrix_rankdef_3x2.json")),
        ("complete", fx("matrix_rankdef_3x2.json")),
        ("dk", fx("matrix_rankdef_2x3.json")),
        ("complete", fx("matrix_rankdef_2x3.json")),
        ("ngood", "--n", "5", fx("matrix_square.json")),
        ("ngood", "--n", "7", fx("matrix_2x2.json")),
        ("circular", "--n", "5", fx("matrix_wide.json")),
        ("circular", "--n", "4", fx("matrix_wide.json")),
        ("circular", "--n", "1", fx("matrix_wide.json")),
        ("cmatrix", "--n", "5", fx("matrix_row.json")),
        ("cmatrix", "--n", "5", fx("matrix_wide.json")),
        ("solve", fx("sys_z5_full.json")),
        ("solve", fx("sys_thin.json")),
        ("pipeline", fx("sys_z5_full.json")),
        ("pipeline", "--trace", fx("sys_z5_full.json")),
        ("pipeline", fx("sys_z5_restricted.json")),
        ("pipeline", fx("sys_small.json")),
        ("pipeline", fx("sys_thin.json")),
        ("solve", fx("sys_z3z5_restricted.json")),
        ("pipeline", "--trace", fx("sys_z3z5_restricted.json")),
        ("solve", fx("sys_z11_2x4.json")),
        ("pipeline", "--trace", fx("sys_z11_2x4.json")),
        ("pipeline", fx("sys_z6_full.json")),
        ("copies", fx("sys_z5_full.json")),
        ("copies", "--full", fx("sys_z5_restricted.json")),
        ("verify", fx("sys_z5_full.json")),
        ("verify", fx("sys_z5_restricted.json")),
        ("copies", "--full", fx("sys_z7_2x4.json")),
        ("verify", fx("sys_z7_2x4.json")),
        ("copies", "--full", fx("sys_z3z5_1x4.json")),
        ("verify", fx("sys_z3z5_1x4.json")),
        ("copies", fx("sys_z3z5_restricted.json")),
        ("verify", fx("sys_z3z5_restricted.json")),
        ("copies", fx("sys_z11_2x4.json")),
        ("verify", fx("sys_z11_2x4.json")),
        ("copies", "--budget", "100", fx("sys_z5_full.json")),
        ("remove", fx("sys_z5_full.json")),
        ("remove", "--greedy", fx("sys_z5_full.json")),
        ("remove", "--protect", "1", fx("sys_z5_full.json")),
        ("remove", fx("sys_small.json")),
        ("remove", fx("sys_thin.json")),
        ("solve", fx("malformed.json")),
        ("pipeline", fx("sys_badgcd.json")),
        ("remove", fx("sys_badgcd.json")),
        ("snf", fx("matrix_square.json")),
        ("snf", fx("matrix_row.json")),
        ("snf", fx("matrix_rankdef_2x3.json")),
        ("snf", fx("matrix_rankdef_3x2.json")),
        ("remove", "--greedy", fx("sys_z3z5_restricted.json")),
        ("remove", "--greedy", fx("sys_z11_2x4.json")),
        ("remove", "--greedy", fx("sys_z6_full.json")),
        ("remove", "--greedy", "--protect", "2", fx("sys_z5_restricted.json")),
        ("solve", fx("sys_z6_full.json")),
        ("solve", fx("sys_z7_2x4.json")),
        ("copies", "--full", "--budget", "100", fx("sys_z5_full.json")),
        ("copies", fx("sys_z6_full.json")),
        ("verify", fx("sys_z6_full.json")),
        ("copies", "--full", "--human", fx("sys_z3z5_1x4.json")),
        ("copies", "--full", "--human", fx("sys_z7_2x4.json")),
        ("pipeline", "--trace", fx("sys_z6_full.json")),
        # non-homogeneous inputs: the translation witness shifts the host sets
        ("copies", "--full", fx("sys_z3z5_restricted.json")),
        ("copies", "--full", fx("sys_z11_2x4.json")),
        # usage errors: exit 2 with a JSON error, like any other input error
        (),
        ("nonsense", fx("matrix_2x2.json")),
        ("remove", "--bogus", fx("sys_z5_full.json")),
        ("solve", "--budget", "x", fx("sys_z5_full.json")),
    ]


def run_once(args):
    proc = subprocess.run(
        [sys.executable, "-m", "linremoval", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ),
    )
    return proc.returncode, proc.stdout, proc.stderr


@functools.cache
def first_run(args):
    return run_once(args)


def golden_key(args):
    return " ".join(args).replace(str(FIXTURES), GOLDEN_PLACEHOLDER)


def golden_record(args):
    code, out, err = first_run(args)
    here = str(FIXTURES)
    return {
        "exit": code,
        "stdout": out.replace(here, GOLDEN_PLACEHOLDER),
        "stderr": err.replace(here, GOLDEN_PLACEHOLDER),
    }


def write_golden():
    records = {golden_key(args): golden_record(args) for args in cli_runs()}
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def test_criterion_7_cli_determinism():
    failures = []
    runs = cli_runs()
    for args in runs:
        first = first_run(args)
        second = run_once(args)
        if first != second:
            failures.append(args[0])
            continue
        code, out, err = first
        if code == 0:
            json.loads(out)  # every success report must parse
        else:
            json.loads(err)
    ok = not failures
    report(7, "cli determinism", ok, f"{len(runs)} command pairs, {len(failures)} failures")


def test_cli_matches_golden_bytes():
    # exit code, stdout and stderr of every command, byte for byte, against
    # the recorded reports; a deliberate contract change regenerates them
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = cli_runs()
    assert sorted(golden) == sorted(golden_key(args) for args in runs)
    mismatched = [
        golden_key(args)
        for args in runs
        if golden_record(args) != golden[golden_key(args)]
    ]
    assert not mismatched, mismatched


if __name__ == "__main__":
    write_golden()

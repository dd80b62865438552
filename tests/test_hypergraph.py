"""Colored hypergraph encoding: hosts, edge labels, copy counting."""

import contextlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linremoval import (
    AbelianGroup,
    BudgetExceededError,
    HostHypergraph,
    IntMatrix,
    PreconditionError,
    RestrictedSystem,
    CircularSystem,
    copy_class_structure,
    enumerate_copies,
    enumerate_solutions,
    verify_copy_classes,
    verify_copy_labels,
)
from linremoval import cli
from linremoval.hypergraph import _lifted_system
from linremoval.jsonio import (
    decode_system,
    dump,
    encode_copies,
    encode_element,
    encode_rows,
    encode_system,
    load_file,
)
from linremoval.system import _unit_pivots


def z(n):
    return AbelianGroup([n])


def full_sets(group, m):
    return tuple(group.elements() for _ in range(m))


def host_on(group, circ, sets):
    """The host of a CircularSystem's homogeneous system in the given sets,
    with its kernel."""
    rhs = (group.zero,) * circ.equations
    return HostHypergraph(
        RestrictedSystem(group, circ.matrix, rhs, sets), circ.kernel_matrix
    )


def circulant_host(n, m, restrictions=None):
    g = z(n)
    a = IntMatrix([[1] * m])
    cs = CircularSystem(a.mod(n), n)
    sets = restrictions if restrictions is not None else full_sets(g, m)
    return g, a, host_on(g, cs, sets)


def solutions_of(group, matrix, sets):
    sys_ = RestrictedSystem(
        group, matrix, tuple(group.zero for _ in range(matrix.rows)), sets
    )
    return enumerate_solutions(sys_)


# ------------------------------------------------------------- copy counts


def test_copies_full_circulant_frozen_counts():
    g, a, host = circulant_host(5, 3)
    copies = enumerate_copies(host)
    assert len(copies) == 125
    classes = {c[3:] for c in copies}
    assert len(classes) == 25
    sols = solutions_of(g, a, full_sets(g, 3))
    report = verify_copy_classes(host, copies, sols)
    assert report.ok, report.problems
    assert report.class_count == 25
    assert report.expected_class_size == 5


def test_copies_restricted_frozen_counts():
    g = z(5)
    sets = (((0,), (1,)), g.elements(), g.elements())
    _, a, host = circulant_host(5, 3, sets)
    copies = enumerate_copies(host)
    assert len(copies) == 50
    assert len({c[3:] for c in copies}) == 10
    report = verify_copy_classes(host, copies, solutions_of(g, a, sets))
    assert report.ok, report.problems


def test_copies_seven_frozen_counts():
    g, a, host = circulant_host(7, 3)
    copies = enumerate_copies(host)
    assert len(copies) == 343
    assert len({c[3:] for c in copies}) == 49
    report = verify_copy_classes(host, copies, solutions_of(g, a, full_sets(g, 3)))
    assert report.ok, report.problems


def test_copies_empty_restriction():
    g = z(5)
    _, _, host = circulant_host(5, 3, ((), g.elements(), g.elements()))
    assert enumerate_copies(host) == []


def test_copies_budget():
    _, _, host = circulant_host(5, 3)
    with pytest.raises(BudgetExceededError):
        enumerate_copies(host, budget=100)
    # the pre-check counts all |G|^m assignments, whatever the walk cuts
    total = 5**3
    with pytest.raises(BudgetExceededError) as err:
        enumerate_copies(host, budget=total - 1)
    assert str(err.value) == f"{total} assignments exceed the budget of {total - 1}"
    assert len(enumerate_copies(host, budget=total)) == total


# ------------------------------------------------- product-scan oracle


def product_scan_copies(host):
    """Every assignment in G^m, each label read on its window: the scan
    ``enumerate_copies`` replaced, kept as its oracle."""
    k, m = host.arity_base, host.positions
    group = host.group
    members = [frozenset(xs) for xs in host.system.restrictions]
    if any(not s for s in members):
        return []
    rows = [
        [c if (j - i) % m <= k else 0 for j, c in enumerate(row)]
        for i, row in enumerate(host.kernel_matrix.data)
    ]
    copies = []
    for assignment in itertools.product(group.elements(), repeat=m):
        labels = tuple(group.combine(row, assignment) for row in rows)
        if all(a in s for a, s in zip(labels, members)):
            copies.append(assignment + labels)
    return copies


def random_circular(rng, n, k, m):
    """A standard circular (I_k | B) mod n with its validated kernel; Z1
    borrows a kernel mod 2, since a raw host takes any integer kernel."""
    modulus = max(n, 2)
    while True:
        rows = [
            [int(i == j) for j in range(k)]
            + [rng.randrange(modulus) for _ in range(m - k)]
            for i in range(k)
        ]
        try:
            return CircularSystem(IntMatrix(rows), modulus)
        except PreconditionError:
            continue


def raw_host(host, rows):
    return HostHypergraph(host.system, IntMatrix(rows))


# every (k, m) with m = k+2..k+4 whose |G|^m the scan walks in about a
# tenth of a second: all of Z1 and Z2, Z5 up to m = 5, Z9 up to m = 4,
# Z3xZ5 at k = 1, m = 3, Z4 up to m = 6 and Z6 up to m = 5; the frozen
# counts above cover larger hosts.  Z4 and Z6 have non-unit entries, so
# the lifted system's elimination mod e meets them.
SWEEP_ASSIGNMENTS = 8_000
SWEEP_GROUPS = ([1], [2], [5], [9], [3, 5], [4], [6])


def sweep_hosts():
    """(group moduli, k, variant, host) over the sweep, seeded."""
    rng = random.Random(20111)
    for moduli in SWEEP_GROUPS:
        g = AbelianGroup(moduli)
        els = g.elements()
        for k in (1, 2, 3):
            for m in range(k + 2, k + 5):
                if g.order**m > SWEEP_ASSIGNMENTS:
                    continue
                circ = random_circular(rng, g.order, k, m)
                mixed = [
                    rng.sample(els, rng.randrange(1, g.order))
                    if g.order > 1 and rng.random() < 0.6
                    else els
                    for _ in range(m)
                ]
                host = host_on(g, circ, mixed)
                yield moduli, k, "proper", host
                empty = list(mixed)
                empty[rng.randrange(m)] = ()
                yield moduli, k, "empty", host_on(g, circ, empty)
                yield moduli, k, "whole", host_on(g, circ, full_sets(g, m))
                # one kernel entry inside a window moved off its value
                rows = [list(r) for r in host.kernel_matrix.data]
                i, t = rng.randrange(m), rng.randrange(k + 1)
                rows[i][(i + t) % m] += rng.randrange(1, 4 * g.order + 2)
                yield moduli, k, "corrupted", raw_host(host, rows)
                # a zero at the end of a window that does not wrap closes
                # that window one coordinate early
                rows = [list(r) for r in host.kernel_matrix.data]
                i = rng.randrange(m - k)
                rows[i][i + k] = 0
                yield moduli, k, "early close", raw_host(host, rows)


def walked_candidates(host):
    """The product of the set sizes the lifted system's pivot walk walks."""
    lifted = _lifted_system(host)
    pivots, _, _ = _unit_pivots(lifted)
    return math.prod(
        len(xs) for j, xs in enumerate(lifted.restrictions) if j not in pivots
    )


def test_copies_match_product_scan_oracle():
    found = {}
    for moduli, k, variant, host in sweep_hosts():
        expected = product_scan_copies(host)
        assert enumerate_copies(host) == expected, (moduli, k, variant)
        n, m = host.group.order, host.positions
        # so the |G|^m pre-check bounds the walk too
        assert walked_candidates(host) <= n**m, (moduli, k, variant)
        if variant == "whole":
            assert len(expected) == n**m
        if variant == "empty":
            assert expected == []
        key = (tuple(moduli), k, variant)
        found[key] = found.get(key, 0) + len(expected)
    assert {key[:2] for key in found} >= {
        ((1,), 3), ((2,), 3), ((5,), 3), ((9,), 1), ((3, 5), 1), ((4,), 3), ((6,), 3)
    }
    # proper sets and raw kernels still leave copies somewhere to compare
    for variant in ("proper", "corrupted", "early close"):
        assert sum(c for key, c in found.items() if key[2] == variant)


# ------------------------------------- class facts from Smith forms


def listed_structure(host):
    """The exhaustive checkers on the listed copies, and the algebraic
    report from the solution list, side by side."""
    sols = enumerate_solutions(host.system)
    copies = enumerate_copies(host)
    listed = verify_copy_classes(host, copies, sols), verify_copy_labels(host, copies)
    return listed, copy_class_structure(host)


def flags(classes, labels):
    return (
        classes.ok,
        classes.kernel_ok,
        classes.labels_match,
        classes.class_sizes_ok,
        classes.disjoint_ok,
        labels.ok,
    )


def test_class_structure_matches_listing_on_sweep():
    # on every host with its kernel the facts hold, whatever the sets; a
    # raw kernel the algebra rejects can still pass a listing whose sets
    # leave out its stray labels, but never the other way round
    honest = 0
    for moduli, k, variant, host in sweep_hosts():
        (classes, labels), (found, found_labels) = listed_structure(host)
        where = (moduli, k, variant)
        assert found.expected_class_size == classes.expected_class_size, where
        if found.ok:
            assert classes.ok, where
        if variant in ("proper", "empty", "whole"):
            honest += 1
            assert flags(found, found_labels) == flags(classes, labels), where
            assert found.ok, where
            assert found.copy_count == classes.copy_count, where
            assert found.class_count == classes.class_count, where
    assert honest == 126


FORGED_GROUPS = ([3], [4], [5], [6], [7], [2, 2], [2, 4])


def run_main(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def test_cli_listing_matches_library_listing(tmp_path):
    # copies --full lists through enumerate_copies; its rows are the two
    # halves of each (x, y) tuple encoded element by element, in order
    rng = random.Random(1811)
    listed = 0
    for moduli in FORGED_GROUPS:
        g = AbelianGroup(moduli)
        els = g.elements()
        for k, m in [(k, m) for k in (1, 2) for m in range(k + 2, k + 4)]:
            if g.order**m > 2000:
                continue
            circ = random_circular(rng, g.order, k, m)
            sets = [
                tuple(rng.sample(els, rng.randrange(1, g.order + 1)))
                for _ in range(m)
            ]
            sys_ = RestrictedSystem(g, circ.matrix, (g.zero,) * k, sets)
            path = tmp_path / f"{'x'.join(map(str, moduli))}_{k}_{m}.json"
            path.write_text(json.dumps(encode_system(sys_)))
            code, out, err = run_main(["copies", "--full", str(path)])
            assert (code, err) == (0, ""), path
            report = json.loads(out)
            decoded = decode_system(load_file(str(path)))
            host = HostHypergraph(decoded, circ.kernel_matrix)
            copies = enumerate_copies(host)
            assert report["route"] == "direct", path
            assert report["count"] == len(copies), path
            assert report["copies"] == [
                {
                    "assignment": [encode_element(v) for v in c[:m]],
                    "labels": [encode_element(v) for v in c[m:]],
                }
                for c in copies
            ], path
            listed += len(copies)
    assert listed
    # the |G|^m budget pre-check still guards the CLI's listing
    fixture = Path(__file__).parent / "fixtures" / "sys_z5_full.json"
    code, out, err = run_main(["copies", "--full", "--budget", "100", str(fixture)])
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": {
            "kind": "budget",
            "message": "125 assignments exceed the budget of 100",
        }
    }


@given(
    st.integers(0, 2**32),
    st.sampled_from([(3,), (4,), (5,), (6,), (7,), (9,), (2, 3), (3, 5), (2, 4)]),
    st.sampled_from([(1, 3), (1, 4), (2, 4), (2, 5)]),
)
@settings(max_examples=60, deadline=None)
def test_copy_text_matches_dumped_rows(seed, moduli, shape):
    # the compact report's copy rows come from encode_copies; on seeded
    # circular hosts over Z_n and Z_a x Z_b, restricted and not, the report
    # has the bytes dump writes for the dict rows
    rng = random.Random(seed)
    g = AbelianGroup(moduli)
    k, m = shape if g.order ** shape[1] <= 4000 else (1, 3)
    els = g.elements()
    sets = [
        rng.sample(els, rng.randrange(1, g.order + 1)) if rng.random() < 0.7 else els
        for _ in range(m)
    ]
    host = host_on(g, random_circular(rng, g.order, k, m), sets)
    copies = enumerate_copies(host)
    text = encode_copies(copies, m)
    rows = [{"assignment": c[:m], "labels": c[m:]} for c in encode_rows(copies, g)]
    assert text == json.dumps(rows, sort_keys=True, separators=(",", ":"))
    report = {"count": len(copies), "positions": m, "route": "direct"}
    assert dump({**report, "copies": text}) == dump({**report, "copies": rows})


def forged_hosts(count):
    """Seeded raw hosts with full sets, their kernels supported on the
    windows: another circular matrix's kernel, one window entry shifted,
    multiples of the group exponent added, or random window entries."""
    rng = random.Random(1106)
    for _ in range(count):
        moduli = rng.choice(FORGED_GROUPS)
        g = AbelianGroup(moduli)
        n = g.order
        k, m = rng.choice(
            [(k, m) for k in (1, 2, 3) for m in range(k + 2, k + 5) if n**m <= 2000]
        )
        host = host_on(g, random_circular(rng, n, k, m), full_sets(g, m))
        rows = [list(r) for r in host.kernel_matrix.data]
        kind = rng.randrange(4)
        if kind == 0:
            rows = [list(r) for r in random_circular(rng, n, k, m).kernel_matrix.data]
        elif kind == 1:
            i, t = rng.randrange(m), rng.randrange(k + 1)
            rows[i][(i + t) % m] += rng.randrange(1, 2 * n)
        elif kind == 2:
            for i in range(m):
                for t in range(k + 1):
                    rows[i][(i + t) % m] += g.exponent * rng.randrange(-1, 2)
        else:
            rows = [
                [rng.randrange(n) if (j - i) % m <= k else 0 for j in range(m)]
                for i in range(m)
            ]
        yield moduli, kind, raw_host(host, rows)


def test_class_structure_matches_listing_on_forged_kernels():
    # with full sets every assignment is a copy, so the listing sees every
    # label vector and the two reports agree exactly; counts are None when
    # the labels are not the solutions, where the listing counts copies of
    # a broken encoding
    seen, exponent_only = set(), set()
    for moduli, kind, host in forged_hosts(300):
        (classes, labels), (found, found_labels) = listed_structure(host)
        where = (moduli, kind, host.kernel_matrix)
        assert flags(found, found_labels) == flags(classes, labels), where
        if found.labels_match:
            assert (found.copy_count, found.class_count) == (
                classes.copy_count,
                classes.class_count,
            ), where
        else:
            assert found.copy_count is found.class_count is None, where
        seen.add(flags(classes, labels))
        if not classes.kernel_ok and labels.ok:
            # A K is nonzero mod |G| but zero mod the exponent
            exponent_only.add(tuple(moduli))
    for i in range(6):
        assert any(not f[i] for f in seen), i
    assert (True,) * 6 in seen
    assert (2, 2) in exponent_only


def forged_sum_host(rows, moduli):
    """x1 + x2 + x3 = 0 with full sets and the given kernel rows."""
    g = AbelianGroup(moduli)
    n = g.order
    circ = CircularSystem(IntMatrix([[1, 1, 1]]), n)
    return raw_host(host_on(g, circ, full_sets(g, 3)), rows)


def test_class_structure_problem_texts():
    # the honest kernel of x1 + x2 + x3 = 0 over Z5 is
    # [[4, 1, 0], [0, 4, 1], [1, 0, 4]]
    zero = ((0,), (0,), (0,))
    cases = [
        # off by 2 mod 4, zero on Z2 x Z2: only the product mod |G| fails
        (
            [[5, 1, 0], [0, 3, 1], [1, 0, 3]],
            (2, 2),
            (False, False, True, True, True, True),
            ["kernel matrix does not annihilate the system matrix"],
        ),
        # row 0 doubled: same kernel size, labels outside ker A
        (
            [[8, 2, 0], [0, 4, 1], [1, 0, 4]],
            (5,),
            (False, False, False, True, True, False),
            [
                "kernel matrix does not annihilate the system matrix",
                "labels from windowed kernel column 0 fail the system",
            ],
        ),
        # columns 1 and 2 zeroed: labels still solve, but reach 5 of the 25
        # solutions, and every class has 25 members
        (
            [[4, 0, 0], [0, 0, 0], [1, 0, 0]],
            (5,),
            (False, True, False, False, False, True),
            [
                "the windowed kernel has 5 label vectors, "
                "the unrestricted system 25 solutions",
                f"class {zero} has 25 copies, expected 5",
                f"class {zero} repeats a color-0 edge",
            ],
        ),
        # im K_w = ker A and |ker K_w| = 5, but the color-0 block, column 2,
        # is zero: members (0, 0, t) share their color-0 edge
        (
            [[1, 1, 0], [0, 4, 0], [4, 0, 0]],
            (5,),
            (False, True, True, True, False, True),
            [f"class {zero} repeats a color-0 edge"],
        ),
    ]
    for rows, moduli, want, problems in cases:
        host = forged_sum_host(rows, moduli)
        (classes, labels), (found, found_labels) = listed_structure(host)
        assert flags(found, found_labels) == want, rows
        assert flags(classes, labels) == want, rows
        assert found.problems == problems, rows
        assert found_labels.problems == ([] if want[5] else problems[1:2]), rows
    # on the last host the listing names the same first class
    assert classes.problems == [f"class {zero} repeats a color-0 edge"]


# ------------------------------------------------------------- edge labels


def edge_label(host, color, window):
    # the label of the values at positions color, ..., color + k: kernel
    # row `color` read on those positions, and whether it forms an edge
    k, m = host.arity_base, host.positions
    row = host.kernel_matrix.data[color]
    label = host.group.combine([row[(color + t) % m] for t in range(k + 1)], window)
    return label, label in host.system.restrictions[color]


def test_host_edge_label_frozen():
    g, _, host = circulant_host(5, 3)
    # kernel row 0 is (4, 1, 0): label of ((1,), (2,)) is 4*1 + 1*2 = 6 = 1
    assert host.kernel_matrix.data[0] == (4, 1, 0)
    assert edge_label(host, 0, ((1,), (2,))) == ((1,), True)
    # and every copy through that color-0 window carries that label
    through = [c for c in enumerate_copies(host) if c[:2] == ((1,), (2,))]
    assert len(through) == 5
    assert {c[3] for c in through} == {(1,)}


def test_labels_read_only_the_window():
    # label i reads kernel row i on its window {i, ..., i+k} only, so a
    # host holds no entry outside it: a raw kernel with one is refused,
    # even a multiple of n
    g = z(5)
    sets = (g.elements(), ((0,), (1,)), g.elements(), g.elements())
    _, _, host = circulant_host(5, 4, sets)
    rows = [list(r) for r in host.kernel_matrix.data]
    assert rows[1][3] == 0  # color 1 has window {1, 2}
    for v in (2, 5):
        rows[1][3] = v
        with pytest.raises(PreconditionError) as err:
            raw_host(host, rows)
        assert str(err.value) == "kernel row 1 has a nonzero entry outside its window"
    # inside the window a raw entry is taken, and read mod n
    rows[1][3] = 0
    rows[1][2] += 5
    raw = raw_host(host, rows)
    for color in range(4):
        for w in itertools.product(g.elements(), repeat=2):
            assert edge_label(raw, color, w) == edge_label(host, color, w)
    assert enumerate_copies(raw) == enumerate_copies(host)


def test_host_preconditions():
    # a host is a homogeneous system with an m x m kernel and m >= k + 2
    g, a, host = circulant_host(5, 3)
    shifted = RestrictedSystem(g, a, ((1,),), full_sets(g, 3))
    short = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    cases = [
        (shifted, host.kernel_matrix, "host system must be homogeneous"),
        (
            host.system,
            IntMatrix([[4, 1]] * 3),
            "kernel matrix must be square of size m",
        ),
        (short, IntMatrix([[4, 1], [1, 4]]), "need m >= k + 2 positions"),
    ]
    for system, matrix, message in cases:
        with pytest.raises(PreconditionError) as err:
            HostHypergraph(system, matrix)
        assert str(err.value) == message


def test_built_kernels_pass_the_window_rule():
    # every kernel CircularSystem builds on the sweep is zero outside row
    # i's window {i, ..., i+k}, so the honest path meets the host's rule;
    # one entry moved outside a window is refused
    rng = random.Random(4243)
    built = 0
    for _, k, variant, host in sweep_hosts():
        if variant != "proper":
            continue
        m = host.positions
        rows = [list(r) for r in host.kernel_matrix.data]
        outside = [(i, j) for i in range(m) for j in range(m) if (j - i) % m > k]
        assert all(rows[i][j] == 0 for i, j in outside)
        assert raw_host(host, rows) == host
        i, j = rng.choice(outside)
        rows[i][j] = rng.randrange(1, 4 * host.group.order)
        with pytest.raises(PreconditionError):
            raw_host(host, rows)
        built += 1
    assert built == 42


def test_per_color_edge_counts():
    # edges of color i number |X_i| * n^k
    n, m = 3, 3
    g = z(n)
    sets = (((0,),), g.elements(), ((1,), (2,)))
    _, _, host = circulant_host(n, m, sets)
    for color in range(m):
        edges = {
            w
            for w in itertools.product(g.elements(), repeat=2)
            if edge_label(host, color, w)[1]
        }
        assert len(edges) == len(sets[color]) * n


def test_verify_copy_labels():
    _, _, host = circulant_host(5, 3)
    copies = enumerate_copies(host)
    report = verify_copy_labels(host, copies)
    assert report.ok, report.problems
    assert len(copies) == 125
    # a forged label must be flagged
    bad = copies[0]
    forged = bad[:3] + ((1,),) + bad[4:]
    report2 = verify_copy_labels(host, copies[1:] + [forged])
    assert not report2.ok
    assert report2.problems == [
        f"labels {forged[3:]} fail the system at assignment {forged[:3]}"
    ]


# ---------------------------------------------------- independent recount


def test_naive_materialized_recount():
    # build the host edges explicitly and recount copies by brute force
    n, m = 3, 3
    g = z(n)
    sets = (g.elements(), ((0,), (1,)), g.elements())
    _, a, host = circulant_host(n, m, sets)
    kern = host.kernel_matrix.data

    edge_sets = []
    for color in range(m):
        members = set()
        for w in itertools.product(range(n), repeat=2):
            lab = (kern[color][color] * w[0] + kern[color][(color + 1) % m] * w[1]) % n
            if (lab,) in set(sets[color]):
                members.add(w)
        edge_sets.append(members)

    naive = 0
    for assign in itertools.product(range(n), repeat=m):
        if all(
            (assign[color], assign[(color + 1) % m]) in edge_sets[color]
            for color in range(m)
        ):
            naive += 1

    copies = enumerate_copies(host)
    assert len(copies) == naive
    assert naive == len(solutions_of(g, a, sets)) * n


def test_class_members_distinguished_by_tail():
    # within a class the last k coordinates pin the whole assignment
    _, _, host = circulant_host(5, 3)
    copies = enumerate_copies(host)
    by_class = {}
    for c in copies:
        by_class.setdefault(c[3:], []).append(c[:3])
    k = host.arity_base
    for members in by_class.values():
        tails = {a[-k:] for a in members}
        assert len(tails) == len(members) == 5


# ------------------------------------------------------------ verification


def test_verify_catches_corrupted_kernel():
    g, a, host = circulant_host(5, 3)
    copies = enumerate_copies(host)
    sols = solutions_of(g, a, full_sets(g, 3))

    rows = [list(r) for r in host.kernel_matrix.data]
    rows[0][1] = 3  # breaks annihilation but keeps the support shape
    corrupted = HostHypergraph(host.system, IntMatrix(rows))
    report = verify_copy_classes(corrupted, copies, sols)
    assert not report.ok
    assert not report.kernel_ok
    assert report.problems


def test_verify_catches_shared_edge():
    # forge a class member that keeps its labels but repeats another
    # member's color-i window on the wrapping color i = m - 1, while its
    # other windows stay unique in the class
    g = z(5)
    sets = (g.elements(), ((0,), (1,)), g.elements(), g.elements())
    _, a, host = circulant_host(5, 4, sets)
    copies = enumerate_copies(host)
    sols = solutions_of(g, a, sets)
    assert verify_copy_classes(host, copies, sols).ok
    k, m = host.arity_base, host.positions
    i = m - 1
    label = copies[0][m:]
    members = [c for c in copies if c[m:] == label]
    kept, dropped = members[0], members[1]
    rest = [c[:m] for c in members if c is not dropped]

    def window(x, color):
        return tuple(x[(color + t) % m] for t in range(k + 1))

    forged = next(
        x + label
        for x in itertools.product(g.elements(), repeat=m)
        if window(x, i) == window(kept[:m], i)
        and all(window(x, c) != window(y, c) for c in range(m) if c != i for y in rest)
    )
    report = verify_copy_classes(
        host, [forged if c is dropped else c for c in copies], sols
    )
    assert report.disjoint_ok is False
    assert report.ok is False
    assert report.kernel_ok and report.labels_match and report.class_sizes_ok
    assert report.problems == [f"class {label} repeats a color-{i} edge"]


def test_verify_catches_wrong_solution_list():
    g, a, host = circulant_host(5, 3)
    copies = enumerate_copies(host)
    sols = solutions_of(g, a, full_sets(g, 3))
    report = verify_copy_classes(host, copies, sols[:-1])
    assert not report.ok
    assert not report.labels_match


def test_verify_catches_missing_copies():
    g, a, host = circulant_host(5, 3)
    copies = enumerate_copies(host)
    sols = solutions_of(g, a, full_sets(g, 3))
    report = verify_copy_classes(host, copies[:-3], sols)
    assert not report.ok
    assert not report.class_sizes_ok


def test_pipeline_host_round_trip():
    # a host built on a pipeline target keeps the source solution count
    from linremoval import circularize, full_extension
    from linremoval.pipeline import _identity_form
    from linremoval.system import _homogenize

    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    res = full_extension(sys_)
    host = HostHypergraph(res.composed.target, res.circular.kernel_matrix)
    assert len(enumerate_solutions(res.composed.target)) == 25
    # the standard target is 1 x 3, so its copies can be listed
    assert len(enumerate_copies(host)) == 25 * 5
    # the padded target of the same system is 26 x 28: 5^28 assignments is
    # far beyond any budget; check the guard trips
    mid, _ = _identity_form(_homogenize(sys_, enumerate_solutions(sys_)).target)
    padded = circularize(mid.target, 5).target
    host = HostHypergraph(padded, CircularSystem(padded.matrix, 5).kernel_matrix)
    assert len(enumerate_solutions(padded)) == 25
    with pytest.raises(BudgetExceededError):
        enumerate_copies(host)
    # the class facts need no listing: 25 classes of 5^26 copies each
    classes, labels = copy_class_structure(host)
    assert classes.ok and labels.ok, classes.problems
    assert (classes.class_count, classes.copy_count) == (25, 25 * 5**26)

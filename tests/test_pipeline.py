"""Reduction pipeline: circular checks, standard forms, kernels, extensions."""

import dataclasses
import functools
import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from linremoval import (
    AbelianGroup,
    BudgetExceededError,
    CircularSystem,
    IntMatrix,
    InvariantError,
    PreconditionError,
    Extension,
    RestrictedSystem,
    ThinWitness,
    build_kernel_matrix,
    circularize,
    complete_to_square,
    determinantal_divisor,
    enumerate_solutions,
    full_extension,
    is_circular,
    remove_elements,
    verify_extension,
)
from linremoval import pipeline
from linremoval.intmat import det
from linremoval.pipeline import (
    _check_reduction,
    _circular_order,
    _identity_form,
    _is_row_reduction,
    _is_translation,
    _solve_window_mod,
    _standard_extension,
    _standard_form,
)
from linremoval.system import _homogenize, compose_extensions, identity_extension
from test_intmat import adjugate
from test_metamorphic import systems


def full_sets(group, m):
    return tuple(group.elements() for _ in range(m))


def z(n):
    return AbelianGroup([n])


def translate(system):
    # the translate stage, on the solution list full_extension hands it
    return _homogenize(system, enumerate_solutions(system))


def padded_target(source):
    # the paper's general route, step by step: full_extension skips the
    # padding for a system that has a circular column order
    mid, _ = _identity_form(translate(source).target)
    return circularize(mid.target, source.group.order).target


def z6_system(rhs=((2,), (4,)), sets=None):
    # the sys_z6_full matrix: no cyclic column order makes every window a
    # unit mod 6, so full_extension pads it
    g = z(6)
    a = IntMatrix([[0, -2, 0, 2, -1], [-1, 0, 1, -3, -2]])
    return RestrictedSystem(g, a, rhs, sets or full_sets(g, 5))


def mod_kernel_check(matrix, kernel, n):
    # independent annihilation check, plain integer arithmetic
    for i in range(matrix.rows):
        for j in range(kernel.cols):
            acc = sum(matrix.data[i][t] * kernel.data[t][j] for t in range(matrix.cols))
            assert acc % n == 0


# ---------------------------------------------------------------- circular


def test_is_circular_frozen_example():
    w = IntMatrix([[1, 0, 2, 1], [0, 1, 1, 1]])
    # cyclic window determinants are 1, -2, 1, -1
    assert is_circular(w, 5)
    assert not is_circular(w, 4)


def test_is_circular_single_row():
    assert is_circular(IntMatrix([[1, 1, 1]]), 5)
    assert not is_circular(IntMatrix([[2, 1]]), 4)


def test_is_circular_preconditions():
    with pytest.raises(PreconditionError):
        is_circular(IntMatrix([[1], [1]]), 5)
    with pytest.raises(PreconditionError):
        is_circular(IntMatrix([[1, 1]]), 0)


# ------------------------------------------------------------ window solver


def test_solve_window_known_case():
    assert _solve_window_mod([[2]], [3], 5) == [4]
    assert _solve_window_mod([[1, 0], [0, 1]], [3, 4], 5) == [3, 4]
    # 2x2 with unit determinant mod 6
    sol = _solve_window_mod([[1, 2], [2, 5]], [1, 1], 6)
    assert (sol[0] + 2 * sol[1]) % 6 == 1
    assert (2 * sol[0] + 5 * sol[1]) % 6 == 1


def test_solve_window_singular():
    with pytest.raises(PreconditionError):
        _solve_window_mod([[2]], [1], 4)


def test_solve_window_inconsistent():
    # second column is dead weight, so the two rows fight over x0
    with pytest.raises(PreconditionError):
        _solve_window_mod([[1, 0], [2, 0]], [1, 1], 5)


# ------------------------------------------------------------ standard form


def test_standardize_frozen_row():
    assert _standard_form(IntMatrix([[2, 1, 1]]), 5).data == ((1, 3, 3),)


def test_standardize_permutation_block():
    out = _standard_form(IntMatrix([[0, 1, 2], [1, 0, 1]]), 5)
    assert out.data == ((1, 0, 1), (0, 1, 2))


def test_standardize_fixes_standard_input():
    m = IntMatrix([[1, 3, 3]])
    assert _standard_form(m, 5) == m


def test_standardize_preserves_solution_set():
    cases = [
        (IntMatrix([[2, 1, 1]]), 5),
        (IntMatrix([[0, 1, 2], [1, 0, 1]]), 5),
        (IntMatrix([[2, 3, 1], [1, 1, 4]]), 5),
    ]
    for a, n in cases:
        s = _standard_form(a, n)
        assert is_circular(s, n)
        for i in range(s.rows):
            for j in range(s.rows):
                assert s.data[i][j] == (1 if i == j else 0)
        m = a.cols
        for x in itertools.product(range(n), repeat=m):
            lhs_a = all(
                sum(a.data[i][j] * x[j] for j in range(m)) % n == 0
                for i in range(a.rows)
            )
            lhs_s = all(
                sum(s.data[i][j] * x[j] for j in range(m)) % n == 0
                for i in range(s.rows)
            )
            assert lhs_a == lhs_s


def test_standardize_rejects_non_circular():
    assert _standard_form(IntMatrix([[2, 1]]), 4) is None
    # _standard_form has no dense scan: its elimination and the kernel built
    # on its output must reject precisely the matrices is_circular rejects,
    # and the circular command reads that decision as its None
    rng = random.Random(20112)
    seen = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.choice([2, 3, 4, 5, 6, 7, 9, 10, 12])
        k = rng.randint(1, 3)
        m = rng.randint(k, k + 4)
        a = IntMatrix([[rng.randrange(-n, 2 * n) for _ in range(m)] for _ in range(k)])
        circular = is_circular(a, n)
        seen[circular] += 1
        s = _standard_form(a, n)
        assert (s is not None) == circular
        if not circular:
            continue
        assert is_circular(s, n)
        assert all(0 <= v < n for row in s.data for v in row)
        assert all(s.data[i][j] == int(i == j) for i in range(k) for j in range(k))
    assert min(seen.values()) > 200


# ------------------------------------------------------------------ kernels


def test_kernel_matrix_frozen_small():
    c = build_kernel_matrix(IntMatrix([[1, 1, 1]]), 5)
    assert c.data == ((4, 1, 0), (0, 4, 1), (1, 0, 4))


def test_kernel_matrix_frozen_two_rows():
    w = IntMatrix([[1, 0, 2, 1], [0, 1, 1, 1]])
    c = build_kernel_matrix(w, 5)
    assert c.data == ((4, 4, 2, 0), (0, 4, 1, 3), (1, 0, 4, 3), (4, 1, 0, 4))


def test_kernel_matrix_structure():
    cases = [
        (IntMatrix([[1, 1, 1]]), 5),
        (IntMatrix([[1, 0, 2, 1], [0, 1, 1, 1]]), 5),
        (IntMatrix([[1, 2, 3, 4]]), 7),
        (IntMatrix([[1, 0, 1, 1, 2], [0, 1, 3, 1, 1]]), 9),
    ]
    for a, n in cases:
        k, m = a.rows, a.cols
        c = build_kernel_matrix(a, n)
        assert c.rows == c.cols == m
        mod_kernel_check(a, c, n)
        for j in range(m):
            assert c.data[j][j] == n - 1
            window = {(j - t) % m for t in range(k + 1)}
            for i in range(m):
                if i not in window:
                    assert c.data[i][j] == 0
            assert any(c.data[i][j] for i in range(m))


def test_kernel_matrix_preconditions():
    with pytest.raises(PreconditionError):
        build_kernel_matrix(IntMatrix([[1, 1]]), 5)  # needs m >= k + 2
    with pytest.raises(PreconditionError):
        build_kernel_matrix(IntMatrix([[2, 1, 1]]), 5)  # not standard form
    with pytest.raises(PreconditionError):
        build_kernel_matrix(IntMatrix([[1, 1, 1]]), 1)


def whole_window_solve(rows, rhs, n):
    # the kernel route before core solves: the whole k x k window, with unit
    # singleton rows peeled off and substituted first (each peel divides the
    # determinant by a unit), the residual eliminated densely
    s = len(rows)
    work = [{j: v % n for j, v in enumerate(row) if v % n} for row in rows]
    vals = [v % n for v in rhs]
    solution = [None] * s
    active = set(range(s))
    changed = True
    while changed:
        changed = False
        for i in sorted(active):
            if len(work[i]) != 1:
                continue
            ((col, coeff),) = work[i].items()
            if math.gcd(coeff, n) != 1:
                continue
            solution[col] = vals[i] * pow(coeff, -1, n) % n
            active.discard(i)
            for q in active:
                c = work[q].pop(col, None)
                if c is not None:
                    vals[q] = (vals[q] - c * solution[col]) % n
            changed = True
    open_cols = [j for j in range(s) if solution[j] is None]
    order = sorted(active)
    rest = _solve_window_mod(
        [[work[i].get(j, 0) for j in open_cols] for i in order],
        [vals[i] for i in order],
        n,
    )
    for j, v in zip(open_cols, rest):
        solution[j] = v
    return solution


def whole_window_kernel(a, n):
    k, m = a.rows, a.cols
    data = [[0] * m for _ in range(m)]
    for j in range(m):
        wcols = [(j - k + t) % m for t in range(k)]
        coeffs = whole_window_solve(
            [[a.data[i][c] for c in wcols] for i in range(k)],
            [a.data[i][j] for i in range(k)],
            n,
        )
        for t, c in enumerate(wcols):
            data[c][j] = coeffs[t]
        data[j][j] = n - 1
    return IntMatrix(data)


def test_kernel_window_solves_reject_exactly_non_circular():
    # build_kernel_matrix has no circularity scan of its own: its m core
    # solves must raise on precisely the matrices is_circular rejects, and
    # on the rest agree with whole-window solves
    rng = random.Random(20111)
    moduli = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 27]
    seen = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.choice(moduli)
        k = rng.randint(1, 4)
        m = rng.randint(k + 2, k + 6)
        a = IntMatrix(
            [
                [int(i == j) for j in range(k)]
                + [rng.randrange(n) for _ in range(m - k)]
                for i in range(k)
            ]
        )
        circular = is_circular(a, n)
        seen[circular] += 1
        if not circular:
            with pytest.raises(PreconditionError):
                build_kernel_matrix(a, n)
            with pytest.raises(PreconditionError):
                whole_window_kernel(a, n)
            with pytest.raises(PreconditionError):
                CircularSystem(a, n)
            continue
        kernel = build_kernel_matrix(a, n)
        assert kernel == whole_window_kernel(a, n)
        mod_kernel_check(a, kernel, n)
        assert CircularSystem(a, n).kernel_matrix == kernel
        # unreduced entries are reduced once, up front
        shifted = IntMatrix(
            [[v + n * rng.randint(-2, 2) for v in row] for row in a.data]
        )
        assert build_kernel_matrix(shifted, n) == kernel
    assert min(seen.values()) > 200  # both outcomes well represented
    # one large input: the 164 x 168 target of x1 + ... + x5 = 1 over Z5
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1] * 5]), ((1,),), full_sets(g, 5))
    circ = CircularSystem(padded_target(sys_).matrix, 5)
    a, kernel = circ.matrix, circ.kernel_matrix
    assert (a.rows, a.cols) == (164, 168)
    assert kernel == build_kernel_matrix(a, 5) == whole_window_kernel(a, 5)
    mod_kernel_check(a, kernel, 5)


# ---------------------------------------------------------- circular system


def valid_circular():
    a = IntMatrix([[1, 1, 1]])
    return CircularSystem(a, 5)


def test_circular_system_accepts_valid():
    cs = valid_circular()
    assert cs.equations == 1
    assert cs.variables == 3
    assert cs.modulus == 5


def composite_kernel_predicate(a, kernel, n):
    # reduced entries, support, diagonal, annihilation: one kernel of a
    # circular matrix has them all
    k, m = a.rows, a.cols
    for j in range(m):
        support = {(j - k + t) % m for t in range(k + 1)}
        for i in range(m):
            v = kernel.data[i][j]
            if not 0 <= v < n or (i not in support and v != 0):
                return False
        if kernel.data[j][j] != n - 1:
            return False
    return all(v % n == 0 for row in (a @ kernel).data for v in row)


def test_circular_system_rejects_corruption():
    with pytest.raises(PreconditionError):
        CircularSystem(IntMatrix([[2, 1, 1]]), 5)
    # 2 is a window unit mod 5, not mod 4
    assert CircularSystem(IntMatrix([[1, 1, 2]]), 5).variables == 3
    with pytest.raises(PreconditionError):
        CircularSystem(IntMatrix([[1, 1, 2]]), 4)

    def mutate(good, i, j, v):
        rows = [list(r) for r in good.data]
        rows[i][j] = v
        return IntMatrix(rows)

    # the built kernel is the one matrix the composite predicate accepts:
    # every one-entry mutation of it fails the predicate
    rng = random.Random(20113)
    cases = 0
    while cases < 25:
        n = rng.choice([2, 3, 4, 5, 6, 7, 9])
        k = rng.randint(1, 3)
        m = rng.randint(k + 2, k + 3)
        a = IntMatrix(
            [
                [int(i == j) for j in range(k)]
                + [rng.randrange(n) for _ in range(m - k)]
                for i in range(k)
            ]
        )
        if not is_circular(a, n):
            continue
        cases += 1
        good = CircularSystem(a, n).kernel_matrix
        assert composite_kernel_predicate(a, good, n)
        for i, j in itertools.product(range(m), repeat=2):
            old = good.data[i][j]
            for v in [*range(n), old + n, old - n]:
                if v != old:
                    assert not composite_kernel_predicate(a, mutate(good, i, j, v), n)


# ------------------------------------------------------------ identity form


def test_identity_form_frozen_target():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    ext, divisors = _identity_form(sys_)
    assert divisors == (1, 1, 1)
    assert ext.target.matrix.data == (
        (1, 0, 0, -1, -1),
        (0, 1, 0, 1, 0),
        (0, 0, 1, 0, 1),
    )
    assert ext.target.equations == 3
    assert ext.target.variables == 5
    report = verify_extension(ext)
    assert report.ok, report.problems
    assert report.source_count == report.target_count == 25


def test_identity_form_zero_row_short_circuit():
    # a pivot decoupled from every free column pins that coordinate, so its
    # identity-form row vanishes; full_extension never gets there, since
    # its thinness test reports the pinned coordinate first
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 0, 0]]), ((0,),), full_sets(g, 3))
    with pytest.raises(InvariantError, match="^identity form row 0 vanished$"):
        _identity_form(sys_)
    res = full_extension(sys_)
    assert res.outcome == "thin"
    assert res.thin == ThinWitness(coordinate=0, value=(0,))


def test_identity_form_restricted_sets():
    g = z(5)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 1, 1]]),
        ((0,),),
        (((0,), (1,)), ((0,), (2,), (3,)), g.elements()),
    )
    ext, _ = _identity_form(sys_)
    report = verify_extension(ext)
    assert report.ok, report.problems
    assert report.source_count == len(enumerate_solutions(sys_))


def adjugate_identity_form(sys_):
    # oracle: the earlier construction.  Columns k.. of adj(C), for the
    # completion C of A, are the slopes; each set is scanned over all of G
    group, a = sys_.group, sys_.matrix
    k, m = a.rows, a.cols
    completed, _ = complete_to_square(a)
    d = det(completed)
    slopes = [row[k:] for row in adjugate(completed).data]
    divisors = tuple(math.gcd(*row) for row in slopes)
    if 0 in divisors:
        return divisors.index(0), divisors
    matrix = [
        [int(c == i) for c in range(m)] + [v // g for v in row]
        for i, (row, g) in enumerate(zip(slopes, divisors))
    ]
    sets = [
        tuple(
            y
            for y in group.elements()
            if group.scale(s, y) in {group.scale(d, x) for x in xs}
        )
        for s, xs in zip(divisors, sys_.restrictions)
    ]
    return (IntMatrix(matrix), tuple(sets) + (group.elements(),) * (m - k)), divisors


def test_identity_form_matches_adjugate_oracle():
    # the kernel read off the Smith transforms gives the same target matrix,
    # row divisors and sets as the adjugate of the completion, or refuses a
    # vanished row where the adjugate pins a coordinate, on a seeded sweep
    # over six groups
    rng = random.Random(19)
    groups = [[4], [5], [6], [12], [2, 4], [3, 5]]
    kinds = {"target": 0, "thin": 0, "refused": 0}
    for _ in range(400):
        group = AbelianGroup(rng.choice(groups))
        k = rng.randint(1, 3)
        m = rng.randint(k + 1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(k)]
        elements = group.elements()
        sets = tuple(
            tuple(sorted(rng.sample(elements, rng.randint(1, len(elements)))))
            for _ in range(m)
        )
        sys_ = RestrictedSystem(group, IntMatrix(rows), (group.zero,) * k, sets)
        dk = determinantal_divisor(sys_.matrix, k)
        if math.gcd(dk, group.order) != 1:
            with pytest.raises(PreconditionError):
                _identity_form(sys_)
            kinds["refused"] += 1
            continue
        want, want_divisors = adjugate_identity_form(sys_)
        if isinstance(want, int):
            with pytest.raises(InvariantError, match=f"^identity form row {want} vanished$"):
                _identity_form(sys_)
            kinds["thin"] += 1
            continue
        got, divisors = _identity_form(sys_)
        assert divisors == want_divisors
        assert (got.target.matrix, got.target.restrictions) == want
        kinds["target"] += 1
    assert all(kinds.values()), kinds


def test_identity_form_preconditions():
    g = z(5)
    inhom = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((1,),), full_sets(g, 3))
    with pytest.raises(PreconditionError):
        _identity_form(inhom)
    g4 = z(4)
    shared = RestrictedSystem(g4, IntMatrix([[2, 2, 2]]), ((0,),), full_sets(g4, 3))
    with pytest.raises(PreconditionError):
        _identity_form(shared)
    # the d_k gate holds before the vanished-row check, also on a square
    # matrix, and on a rank-deficient one
    for group, rows in (
        (g4, [[2]]),
        (g4, [[1, 2], [3, 2]]),
        (g4, [[2, 0, 0]]),
        (g, [[1, 1], [2, 2]]),
        (g, [[1, 1, 1], [2, 2, 2]]),
    ):
        k, m = len(rows), len(rows[0])
        bad = RestrictedSystem(
            group, IntMatrix(rows), (group.zero,) * k, full_sets(group, m)
        )
        with pytest.raises(PreconditionError):
            _identity_form(bad)


# -------------------------------------------------------------- circularize


def test_circularize_r1_dimensions():
    g = z(5)
    src = RestrictedSystem(
        g, IntMatrix([[1, 0, 1], [0, 1, 1]]), ((0,), (0,)), full_sets(g, 3)
    )
    ext = circularize(src, 5)
    assert ext.target.equations == 5  # 2 * 2 * 1 + 1
    assert ext.target.variables == 6
    assert is_circular(ext.target.matrix, 5)
    report = verify_extension(ext)
    assert report.ok, report.problems
    # pivots land on the centers of their padded blocks, values unchanged
    assert ext.coord_map == {1: 0, 3: 1, 5: 2}
    for j in ext.coord_map:
        for v in ext.target.restrictions[j]:
            assert ext.value_maps[j][v] == v


def test_circularize_r2_dimensions():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    mid, _ = _identity_form(sys_)
    ext = circularize(mid.target, 5)
    assert ext.target.equations == 26  # 2 * 3 * 4 + 2
    assert ext.target.variables == 28
    assert is_circular(ext.target.matrix, 5)
    report = verify_extension(ext)
    assert report.ok, report.problems


def test_circularize_preconditions():
    g = z(5)
    square = RestrictedSystem(g, IntMatrix([[1, 0], [0, 1]]), ((0,), (0,)), full_sets(g, 2))
    with pytest.raises(PreconditionError):
        circularize(square, 5)
    inhom = RestrictedSystem(g, IntMatrix([[1, 0, 1], [0, 1, 1]]), ((1,), (0,)), full_sets(g, 3))
    with pytest.raises(PreconditionError):
        circularize(inhom, 5)
    shifted = RestrictedSystem(g, IntMatrix([[2, 0, 1], [0, 1, 1]]), ((0,), (0,)), full_sets(g, 3))
    with pytest.raises(PreconditionError):
        circularize(shifted, 5)
    bad_row = RestrictedSystem(
        g, IntMatrix([[1, 0, 2, 2], [0, 1, 1, 1]]), ((0,), (0,)), full_sets(g, 4)
    )
    with pytest.raises(PreconditionError):
        circularize(bad_row, 5)


# ------------------------------------------------------------ full pipeline


def test_full_extension_circular_route():
    # x1 + x2 + x3 = 0 over Z5 is circular as given: the standard stage
    # keeps the column order and the k x m matrix, with no padding
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    res = full_extension(sys_)
    assert res.outcome == "circular"
    names = [s["stage"] for s in res.stages]
    assert names == ["input", "translate", "standard"]
    assert [s["solutions"] for s in res.stages] == [25, 25, 25]
    assert res.stages[2]["column_order"] == [0, 1, 2]
    assert res.stages[2]["modulus"] == 5
    assert len(res.chain) == 2
    report = verify_extension(res.composed)
    assert report.ok, report.problems
    # the verification full_extension runs on its own solution lists
    assert res.verification == report
    assert res.circular is not None
    assert res.circular.matrix.data == ((1, 1, 1),)
    assert res.circular.kernel_matrix.rows == 3
    mod_kernel_check(res.circular.matrix, res.circular.kernel_matrix, 5)


def test_full_extension_padded_route():
    # no circular column order: identity form, then circularize
    res = full_extension(z6_system())
    assert res.outcome == "circular"
    names = [s["stage"] for s in res.stages]
    assert names == ["input", "translate", "identity-form", "circular"]
    assert [s["solutions"] for s in res.stages] == [216] * 4
    assert res.stages[2]["row_divisors"] == [1, 1, 1, 1, 2]
    assert res.stages[3]["modulus"] == 6
    assert "column_order" not in res.stages[3]
    assert len(res.chain) == 3
    report = verify_extension(res.composed)
    assert report.ok, report.problems
    assert res.verification == report
    assert (res.circular.matrix.rows, res.circular.matrix.cols) == (93, 96)
    assert res.circular.kernel_matrix.rows == 96
    mod_kernel_check(res.circular.matrix, res.circular.kernel_matrix, 6)


def test_full_extension_dimensions_depend_only_on_shape():
    g = AbelianGroup([3, 5])
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0, 0),), full_sets(g, 3))
    res = full_extension(sys_)
    assert res.outcome == "circular"
    assert [s["stage"] for s in res.stages][-1] == "standard"
    assert [s["solutions"] for s in res.stages] == [225, 225, 225]
    assert res.circular.matrix.rows == 1
    assert res.circular.matrix.cols == 3
    assert res.circular.modulus == 15


def test_full_extension_padded_dimensions_depend_only_on_shape():
    # the Z6 matrix with other right-hand sides and restriction sets keeps
    # the padded 93 x 96 target
    g = z(6)
    evens = tuple((v,) for v in (0, 2, 4))
    for rhs, sets in (
        (((0,), (0,)), None),
        (((2,), (4,)), (g.elements(), evens, g.elements(), evens, g.elements())),
    ):
        res = full_extension(z6_system(rhs, sets))
        assert res.outcome == "circular"
        assert [s["stage"] for s in res.stages][-1] == "circular"
        assert len({s["solutions"] for s in res.stages}) == 1
        assert (res.circular.matrix.rows, res.circular.matrix.cols) == (93, 96)
        assert res.circular.modulus == 6
        assert res.verification.ok


def brute_circular_order(a, n):
    # oracle: every cyclic order that starts at column 0, in lexicographic
    # order, each tested by the dense is_circular scan
    for rest in itertools.permutations(range(1, a.cols)):
        order = [0, *rest]
        if is_circular(IntMatrix([[row[c] for c in order] for row in a.data]), n):
            return order
    return None


@st.composite
def small_systems(draw):
    moduli = draw(st.sampled_from([[5], [7], [11], [6], [3, 5]]))
    g = AbelianGroup(moduli)
    k = draw(st.integers(1, 2))
    # the padded route walks |G|^(m-k) candidates: keep that to a few
    # thousand
    free = max(r for r in range(2, 5) if g.order**r <= 3000)
    m = draw(st.integers(k + 2, min(6, k + free)))
    entries = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    elements = g.elements()
    sets = [
        draw(st.lists(st.sampled_from(elements), min_size=2, max_size=6, unique=True))
        for _ in range(m)
    ]
    # the right-hand side of a point inside the sets, so a solution exists
    point = [draw(st.sampled_from(xs)) for xs in sets]
    rhs = tuple(g.combine(row, point) for row in rows)
    return RestrictedSystem(g, IntMatrix(rows), rhs, tuple(map(tuple, sets)))


@settings(max_examples=80, deadline=None)
@given(small_systems())
def test_circular_order_search_matches_brute_force(sys_):
    n = sys_.group.order
    order = _circular_order(sys_.matrix, n, 10**6)
    # the first order the search finds is the lexicographically first one
    assert order == brute_circular_order(sys_.matrix, n)
    if order is not None:
        permuted = [[row[c] for c in order] for row in sys_.matrix.data]
        assert is_circular(IntMatrix(permuted), n)
    if not sys_.coprime:
        return
    res = full_extension(sys_)
    if res.outcome != "circular":
        return
    assert [s["stage"] for s in res.stages][2:] == (
        ["identity-form", "circular"] if order is None else ["standard"]
    )
    if order is not None:
        assert res.stages[-1]["column_order"] == order
        # the padded route on the same system: the same count everywhere
        with mock.patch.object(pipeline, "_circular_order", return_value=None):
            padded = full_extension(sys_)
        assert padded.outcome == "circular"
        assert [s["stage"] for s in padded.stages][-1] == "circular"
        counts = {s["solutions"] for s in res.stages + padded.stages}
        assert len(counts) == 1
        assert padded.verification.ok, padded.verification.problems
    assert res.verification.ok, res.verification.problems


def test_circular_order_search_cut_by_budget_falls_back_to_padding():
    # over Z2 the columns are points of the projective line: three columns
    # equal to (0, 1) must alternate with the other three, and the search
    # tries 58 columns before it finds the order 1, 4, 2, 5, 3, 6; every
    # enumeration of the padded route walks 2^4 = 16 candidates
    g = z(2)
    a = IntMatrix([[1, 1, 1, 0, 0, 0], [0, 1, 1, 1, 1, 1]])
    sys_ = RestrictedSystem(g, a, ((0,), (0,)), full_sets(g, 6))
    assert _circular_order(a, 2, 57) is None
    assert _circular_order(a, 2, 58) == [0, 3, 1, 4, 2, 5]
    res = full_extension(sys_, budget=58)
    assert res.stages[-1]["column_order"] == [0, 3, 1, 4, 2, 5]
    assert (res.circular.equations, res.circular.variables) == (2, 6)
    for budget in (16, 57):
        res = full_extension(sys_, budget=budget)
        assert res.outcome == "circular"
        assert [s["stage"] for s in res.stages][2:] == ["identity-form", "circular"]
        assert (res.circular.equations, res.circular.variables) == (196, 200)
        assert [s["solutions"] for s in res.stages] == [16] * 4
        assert res.verification.ok, res.verification.problems
    with pytest.raises(BudgetExceededError):
        full_extension(sys_, budget=15)


def test_circular_order_k1_needs_unit_entries():
    # one row: each column is its own window, so no order can help
    assert _circular_order(IntMatrix([[1, 2, 3, 4]]), 5, 1) == [0, 1, 2, 3]
    assert _circular_order(IntMatrix([[1, 2, 3, 5]]), 5, 10**6) is None
    assert _circular_order(IntMatrix([[1, 2, 3, 4]]), 6, 10**6) is None


def test_circular_order_refuses_a_column_no_window_can_hold():
    # a column whose entries share a factor with n vanishes mod a prime of
    # n, so no window holding it is a unit: no order exists, and the
    # search says so before it walks (a 2 x 12 search over Z5 took seconds)
    rng = random.Random(1106)
    a = IntMatrix([[rng.randrange(1, 5) for _ in range(11)] + [0] for _ in range(2)])
    start = time.process_time()
    assert _circular_order(a, 5, 10**8) is None
    assert _circular_order(IntMatrix([[1, 0, 2, 1], [0, 1, 4, 1]]), 6, 10**8) is None
    assert time.process_time() - start < 0.2
    # the system still takes the padded route, as the brute force agrees
    g = z(5)
    a = IntMatrix([[1, 0, 1, 2, 0], [0, 1, 3, 1, 0]])
    assert brute_circular_order(a, 5) is None
    res = full_extension(RestrictedSystem(g, a, ((0,), (0,)), full_sets(g, 5)))
    assert [s["stage"] for s in res.stages][2:] == ["identity-form", "circular"]
    assert res.verification.ok, res.verification.problems


def test_full_extension_inhomogeneous_translates_first():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((2,),), full_sets(g, 3))
    res = full_extension(sys_)
    assert res.outcome == "circular"
    assert res.composed.source == sys_
    assert verify_extension(res.composed).ok
    assert res.verification == verify_extension(res.composed)


def test_full_extension_small_system_route():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 2]]), ((1,),), full_sets(g, 2))
    res = full_extension(sys_)
    assert res.outcome == "small-system"
    assert res.circular is None
    assert res.composed.target.is_homogeneous()
    assert verify_extension(res.composed).ok
    assert res.verification is None


def test_full_extension_thin_route():
    g = z(4)
    sys_ = RestrictedSystem(
        g, IntMatrix([[1, 1, 1]]), ((0,),), (((0,),), ((1,),), ((3,),))
    )
    res = full_extension(sys_)
    assert res.outcome == "thin"
    assert res.thin is not None
    assert res.thin.coordinate == 0
    assert res.thin.value is not None


def test_full_extension_thin_before_identity_form_pins():
    # x1 = 2, x2 + x3 + x4 = 1 over Z5: the identity form of the homogeneous
    # system pins coordinate 0 at zero, and the input's thinness test
    # already reports the same coordinate at its translated value
    g = z(5)
    a = IntMatrix([[1, 0, 0, 0], [0, 1, 1, 1]])
    res = full_extension(RestrictedSystem(g, a, ((2,), (1,)), full_sets(g, 4)))
    assert res.outcome == "thin"
    assert res.thin == ThinWitness(coordinate=0, value=(2,))
    assert [st["stage"] for st in res.stages] == ["input"]


def test_full_extension_vacuous_route():
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((1,),), (((0,),), ((0,),)))
    res = full_extension(sys_)
    assert res.outcome == "thin"
    assert res.thin.value is None


def test_full_extension_coprimality_gate():
    g = z(4)
    sys_ = RestrictedSystem(g, IntMatrix([[2, 2, 2]]), ((0,),), full_sets(g, 3))
    with pytest.raises(PreconditionError):
        full_extension(sys_)


def test_full_extension_budget():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    with pytest.raises(BudgetExceededError):
        full_extension(sys_, budget=10)


def from_doc(doc):
    # a metamorphic draw as a RestrictedSystem
    group = AbelianGroup(doc["moduli"])
    return RestrictedSystem(group, IntMatrix(doc["A"]), doc["b"], doc["X"])


@st.composite
def maybe_padded(draw):
    # a system of the metamorphic draws; with a zero column, no column
    # order is circular, so a draw that gets one takes the padded route
    doc = draw(systems())
    if draw(st.booleans()):
        j = draw(st.integers(0, len(doc["X"]) - 1))
        doc["A"] = [row[:j] + [0] + row[j + 1 :] for row in doc["A"]]
    return from_doc(doc)


@seed(12)
@given(maybe_padded(), st.data())
@settings(max_examples=400, deadline=None)
def test_built_systems_equal_their_checked_twins(sys_, data):
    # the stage targets and the removal copies skip __init__'s reduce and
    # sort; checked again by __init__, each must come out equal, fields
    # and their types alike
    try:
        built = [ext.target for ext in full_extension(sys_).chain]
    except (PreconditionError, BudgetExceededError):
        built = []
    for t in [sys_, *built]:
        removed = [
            data.draw(st.sets(st.sampled_from(xs)) if xs else st.just(set()))
            for xs in t.restrictions
        ]
        built.append(remove_elements(t, removed))
    for t in built:
        assert t == RestrictedSystem(t.group, t.matrix, t.rhs, t.restrictions)


# ------------------------------------------------------------ certificates


@seed(12)
@given(systems())
@settings(max_examples=400, deadline=None)
def test_standard_route_certificate_agrees_with_the_exhaustive_check(doc):
    # on the standard route both links are proven from their construction
    # and nothing but the input is listed; the exhaustive oracle, which
    # lists both sides, must give the same report (34 of the 400 seeded
    # draws take that route)
    try:
        res = full_extension(from_doc(doc))
    except (PreconditionError, BudgetExceededError):
        return
    if res.outcome != "circular" or res.stages[-1]["stage"] != "standard":
        return
    translated, standard = res.chain
    assert _is_translation(translated) and _is_row_reduction(standard)
    assert verify_extension(res.composed) == res.verification


def two_by_four():
    # 2 x + y + 3 z + w = 1, x + 4 y + z + 2 w = 3 over Z7, each set the
    # group less two elements: 12 solutions, column order 0, 2, 1, 3, and a
    # left block that is not the identity
    g = z(7)
    sets = tuple(
        tuple((v,) for v in range(7) if v not in (d, d + 1)) for d in (0, 2, 4, 5)
    )
    a = IntMatrix([[2, 1, 3, 1], [1, 4, 1, 2]])
    return RestrictedSystem(g, a, ((1,), (3,)), sets)


def checked(chain, sols):
    # the check full_extension runs on a chain whose proof failed: the
    # final target listed and projected onto the input's solutions
    composed = functools.reduce(compose_extensions, chain)
    _, report = _check_reduction(composed, False, sols, 10**6)
    assert report == verify_extension(composed)
    return report


def shifted_by(system, t):
    # a translate extension by any t: Y_j = X_j - t_j, value maps y -> y + t_j
    g = system.group
    neg = [g.scale(-1, v) for v in t]
    sets, value_maps = [], {}
    for j, (xs, v) in enumerate(zip(system.restrictions, neg)):
        value_maps[j] = {g.combine((1, 1), (x, v)): x for x in xs}
        sets.append(tuple(sorted(value_maps[j])))
    zero = tuple(g.zero for _ in system.rhs)
    target = RestrictedSystem(g, system.matrix, zero, tuple(sets))
    return Extension(system, target, {j: j for j in range(len(t))}, value_maps)


def with_target(ext, matrix=None, sets=None, **fields):
    # ext with its target's matrix or sets, or its own fields, replaced
    tgt = ext.target
    target = RestrictedSystem(
        tgt.group, matrix or tgt.matrix, tgt.rhs, sets or tgt.restrictions
    )
    return dataclasses.replace(ext, target=target, **fields)


def test_certificate_proves_the_real_chain():
    sys_ = two_by_four()
    sols = enumerate_solutions(sys_)
    res = full_extension(sys_)
    translated, standard = res.chain
    assert standard.coord_map == {0: 0, 1: 2, 2: 1, 3: 3}
    assert _is_translation(translated) and _is_row_reduction(standard)
    count, report = _check_reduction(res.composed, True, sols, 10**6)
    assert (count, report) == (12, res.verification)
    assert report == checked(res.chain, sols)
    assert report.ok


def test_certificate_refuses_a_shift_that_is_no_solution():
    sys_ = two_by_four()
    sols = enumerate_solutions(sys_)
    t = (sys_.group.combine((1, 1), (sols[0][0], (1,))), *sols[0][1:])
    assert sys_.group.combine(sys_.matrix.data[0], t) != sys_.rhs[0]
    forged = shifted_by(sys_, t)
    assert not _is_translation(forged)
    order = [0, 2, 1, 3]
    report = checked([forged, _standard_extension(forged.target, order, 7)], sols)
    assert not report.ok and report.structure_ok
    assert "non-solution" in report.problems[-1]


def test_certificate_refuses_a_value_map_that_is_no_shift():
    sys_ = two_by_four()
    sols = enumerate_solutions(sys_)
    translated, standard = full_extension(sys_).chain
    # swap the images of two values of coordinate 0, one of them taken by
    # a solution; neither is the map's first key, so the shift read off
    # that key is still a solution
    vmap = dict(translated.value_maps[0])
    keys = list(vmap)[1:]
    taken = {y[0] for y in enumerate_solutions(translated.target)}
    y1 = next(y for y in keys if y in taken)
    y2 = next(y for y in keys if y != y1)
    vmap[y1], vmap[y2] = vmap[y2], vmap[y1]
    value_maps = {**translated.value_maps, 0: vmap}
    forged = dataclasses.replace(translated, value_maps=value_maps)
    assert not _is_translation(forged)
    report = checked([forged, standard], sols)
    assert not report.ok and report.structure_ok
    assert "non-solution" in report.problems[-1]


def test_certificate_refuses_a_shift_off_the_target_set():
    sys_ = two_by_four()
    sols = enumerate_solutions(sys_)
    translated = full_extension(sys_).chain[0]
    # Y_0 moves by one while its value map, a true shift, stays
    g = sys_.group
    sets = list(translated.target.restrictions)
    sets[0] = tuple(sorted(g.combine((1, 1), (y, (1,))) for y in sets[0]))
    forged = with_target(translated, sets=tuple(sets))
    assert not _is_translation(forged)
    # no standard link composes with a map that misses its set
    report = checked([forged], sols)
    assert not report.ok and not report.structure_ok


def test_certificate_refuses_a_left_block_that_is_no_unit():
    # 3 (x + y + z) = 0 over Z9 onto x + y + z = 0: L T = A with L = 3,
    # which is not a unit mod 9, and the target has a third of the
    # solutions.  No coprime source has such a block, so this one is not
    # coprime
    g = z(9)
    source = RestrictedSystem(g, IntMatrix([[3, 3, 3]]), ((0,),), full_sets(g, 3))
    forged = with_target(identity_extension(source), matrix=IntMatrix([[1, 1, 1]]))
    assert not _is_row_reduction(forged)
    report = checked([identity_extension(source), forged], enumerate_solutions(source))
    assert (report.source_count, report.target_count) == (243, 81)
    assert not report.ok and "no preimage" in report.problems[-1]


def test_certificate_refuses_a_target_matrix_off_its_row_reduction():
    sys_ = two_by_four()
    sols = enumerate_solutions(sys_)
    translated, standard = full_extension(sys_).chain
    rows = [list(row) for row in standard.target.matrix.data]
    rows[0][3] = (rows[0][3] + 1) % 7
    forged = with_target(standard, matrix=IntMatrix(rows))
    assert not _is_row_reduction(forged)
    report = checked([translated, forged], sols)
    assert not report.ok and report.structure_ok


def test_certificate_refuses_target_sets_that_are_not_the_permuted_source_sets():
    sys_ = two_by_four()
    sols = enumerate_solutions(sys_)
    translated, standard = full_extension(sys_).chain
    # target columns 1 and 2 trade sets; the value maps stay
    sets = list(standard.target.restrictions)
    sets[1], sets[2] = sets[2], sets[1]
    forged = with_target(standard, sets=tuple(sets))
    assert not _is_row_reduction(forged)
    report = checked([translated, forged], sols)
    assert not report.ok and not report.structure_ok
    # a set that loses a value some solution takes, its identity map with it
    sets = list(standard.target.restrictions)
    lost = enumerate_solutions(standard.target)[0][1]
    sets[1] = tuple(y for y in sets[1] if y != lost)
    value_maps = {**standard.value_maps, 1: dict(zip(sets[1], sets[1]))}
    forged = with_target(standard, sets=tuple(sets), value_maps=value_maps)
    assert not _is_row_reduction(forged)
    report = checked([translated, forged], sols)
    assert not report.ok and report.structure_ok
    assert "no preimage" in report.problems[-1]

"""Exact integer matrix layer: determinants, Smith form, completions, padding.

Reference values here were computed by hand or with the slow cofactor
expansion below, never by the code under test.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from linremoval import (
    IntMatrix,
    PreconditionError,
    complete_to_square,
    determinantal_divisor,
    determinantal_divisors,
    is_n_good,
    kernel_order,
    n_good_padding,
    smith_invariants_mod,
    smith_normal_form,
)
from linremoval.intmat import _xgcd, det


def cofactor_det(rows):
    # independent oracle: textbook expansion along the first row
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = 0
    for j in range(size):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def adjugate(matrix):
    # oracle: the classical adjugate, one cofactor determinant per entry,
    # so that matrix @ adjugate(matrix) == det(matrix) * I
    n = matrix.rows
    if n == 1:
        return IntMatrix([[1]])
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix.data[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            out[i][j] = (-1) ** (i + j) * det(IntMatrix(minor))
    return IntMatrix(out)


def minor_gcd(matrix, k):
    # gcd of all k x k minors via the oracle determinant
    g = 0
    for rsel in itertools.combinations(range(matrix.rows), k):
        for csel in itertools.combinations(range(matrix.cols), k):
            sub = [[matrix.data[i][j] for j in csel] for i in rsel]
            g = math.gcd(g, abs(cofactor_det(sub)))
    return g


small_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_rows=4, max_cols=4, entries=small_entries):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(IntMatrix)
        )
    )


# ---------------------------------------------------------------- IntMatrix


def test_matrix_is_immutable_and_hashable():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.data == ((1, 2), (3, 4))
    assert hash(m) == hash(IntMatrix([[1, 2], [3, 4]]))
    with pytest.raises(AttributeError):
        m.data = ((0, 0), (0, 0))


def test_matrix_shape_validation():
    with pytest.raises(PreconditionError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(PreconditionError):
        IntMatrix([])
    with pytest.raises(PreconditionError):
        IntMatrix([[]])


def test_matrix_basic_ops():
    m = IntMatrix([[1, 2], [3, 4]])
    assert (m @ IntMatrix.identity(2)) == m
    assert (IntMatrix.identity(2) @ m) == m
    assert m.to_lists() == [[1, 2], [3, 4]]
    assert m.mod(3).data == ((1, 2), (0, 1))


def test_matmul_against_hand_product():
    a = IntMatrix([[1, 2, 0], [0, 1, -1]])
    b = IntMatrix([[2, 1], [1, 0], [3, 3]])
    assert (a @ b).data == ((4, 1), (-2, -3))


def test_xgcd_identity():
    # g may carry a sign; callers normalize where needed
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        g, x, y = _xgcd(a, b)
        assert abs(g) == math.gcd(a, b)
        assert x * a + y * b == g


# -------------------------------------------------------------- determinant


def test_det_frozen_values():
    assert det(IntMatrix([[1, 1], [2, 0]])) == -2
    assert det(IntMatrix([[5]])) == 5
    assert det(IntMatrix.identity(4)) == 1
    with pytest.raises(PreconditionError):
        det(IntMatrix([[1, 2, 3]]))


@given(matrices(max_rows=4, max_cols=4).filter(lambda m: m.rows == m.cols))
@settings(max_examples=80, deadline=None)
def test_det_matches_cofactor_expansion(m):
    assert det(m) == cofactor_det([list(r) for r in m.data])


# -------------------------------------------------------------- Smith form


def test_smith_form_frozen_example():
    res = smith_normal_form(IntMatrix([[2, 4], [0, 6]]))
    assert res.S.data == ((2, 0), (0, 6))
    assert res.U.data == ((1, 0), (0, 1))
    assert res.V.data == ((1, -2), (0, 1))


def check_smith(matrix):
    res = smith_normal_form(matrix)
    u, s, v = res.U, res.S, res.V
    assert abs(cofactor_det([list(r) for r in u.data])) == 1
    assert abs(cofactor_det([list(r) for r in v.data])) == 1
    assert (u @ matrix) @ v == s
    assert v @ res.V_inv == IntMatrix.identity(v.rows)
    diag = [s.data[i][i] for i in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.data[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_smith_form_known_shapes():
    assert check_smith(IntMatrix([[6]])) == [6]
    assert check_smith(IntMatrix([[2, 0], [0, 3]])) == [1, 6]
    assert check_smith(IntMatrix([[4, 6], [6, 9]])) == [1, 0]
    assert check_smith(IntMatrix([[1, 2, 3]])) == [1]
    assert check_smith(IntMatrix([[0, 0], [0, 0]])) == [0, 0]


@given(matrices(max_rows=4, max_cols=4))
@settings(max_examples=80, deadline=None)
def test_smith_form_invariants(m):
    diag = check_smith(m)
    # diagonal entries multiply to the determinantal divisors
    prod = 1
    for k, entry in enumerate(diag, start=1):
        prod *= entry
        assert prod == minor_gcd(m, k) or (prod == 0 and minor_gcd(m, k) == 0)


# ------------------------------------------------- Smith invariants mod q


def test_smith_invariants_mod_frozen_values():
    # diag(2, 3) has integer Smith form diag(1, 6): the elimination finds 2
    # and 3 over Z6, and the gcd / lcm step puts them in Smith order
    assert smith_invariants_mod([[2, 0], [0, 3]], 6) == [1, 6]
    # a pivot gcd that misses an entry of its column, or of its row, takes
    # one xgcd merge: gcd(2, 6) = 2 does not divide 3
    assert smith_invariants_mod([[2], [3]], 6) == [1]
    assert smith_invariants_mod([[2, 3]], 6) == [1]
    # a pivot gcd that divides its row and column takes no merge
    assert smith_invariants_mod([[2, 4], [6, 8]], 12) == [2, 4]
    assert smith_invariants_mod([[0, 0, 0]], 9) == [9]
    assert smith_invariants_mod([[5, 7], [1, 3]], 1) == [1, 1]
    prime = 2**61 - 1
    assert smith_invariants_mod([[prime, 2 * prime], [1, 2]], prime) == [1, prime]
    assert smith_invariants_mod([], 6) == []


SMITH_MODULI = [
    (4,), (6,), (8,), (9,), (12,), (27,), (36,), (60,), (210,), (2, 6), (3, 5),
    (2**61 - 1,),
]
# entries in +-20, with some above 2^64 of either sign
wide_entries = st.one_of(
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(2**64, 2**66),
    st.integers(-(2**66), -(2**64)),
)


def with_dependent_row(m):
    # a last row that is a combination of two others keeps low ranks drawn
    if m.rows < 3:
        return m
    rows = [list(r) for r in m.data]
    rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
    return IntMatrix(rows)


@given(
    st.one_of(
        matrices(max_rows=6, max_cols=7, entries=wide_entries),
        matrices(max_rows=6, max_cols=7, entries=wide_entries).map(with_dependent_row),
    ),
    st.sampled_from(SMITH_MODULI),
)
@settings(max_examples=300, deadline=None)
def test_smith_invariants_mod_match_integer_smith_form(m, moduli):
    # gcd(s_j, q) of the integer Smith diagonal, one per j < min(rows,
    # cols), and |ker M| on G^cols as their product with q per column past
    diag = smith_normal_form(m).S.data
    invariants = [diag[j][j] for j in range(min(m.rows, m.cols))]
    padded = invariants + [0] * (m.cols - len(invariants))
    for q in moduli:
        assert smith_invariants_mod(m.data, q) == [math.gcd(s, q) for s in invariants]
    assert kernel_order(m.data, moduli) == math.prod(
        math.gcd(s, q) for q in moduli for s in padded
    )


# --------------------------------------------------- determinantal divisors


def test_determinantal_divisor_frozen_values():
    a = IntMatrix([[2, 4], [0, 6]])
    assert determinantal_divisor(a, 1) == 2
    assert determinantal_divisor(a, 2) == 12
    b = IntMatrix([[1, 1, 1]])
    assert determinantal_divisor(b, 1) == 1
    with pytest.raises(PreconditionError):
        determinantal_divisor(a, 3)
    with pytest.raises(PreconditionError):
        determinantal_divisor(a, 0)


@given(matrices(max_rows=4, max_cols=5))
@settings(max_examples=60, deadline=None)
def test_determinantal_divisor_matches_minor_gcd(m):
    for k in range(1, min(m.rows, m.cols) + 1):
        assert determinantal_divisor(m, k) == minor_gcd(m, k)


def rank_deficient(max_cols=5):
    # rank at most 2 over at least 3 rows: multiples of a row u, then u + w,
    # u - w and 2u
    def build(u, w, coeffs):
        rows = [[c * v for v in u] for c in coeffs]
        rows += [[a + b for a, b in zip(u, w)], [a - b for a, b in zip(u, w)]]
        rows.append([2 * v for v in u])
        return IntMatrix(rows)

    def vector(c):
        return st.lists(small_entries, min_size=c, max_size=c)

    return st.integers(1, max_cols).flatmap(
        lambda c: st.builds(build, vector(c), vector(c), st.lists(small_entries, max_size=2))
    )


divisor_inputs = st.one_of(
    matrices(max_rows=4, max_cols=5),
    matrices(max_rows=6, max_cols=3),  # mostly tall
    matrices(max_rows=4, max_cols=4, entries=st.integers(-30, -1)),
    st.tuples(st.integers(1, 4), st.integers(1, 5)).map(
        lambda rc: IntMatrix([[0] * rc[1]] * rc[0])
    ),
    rank_deficient(),
)


def test_determinantal_divisors_frozen_values():
    assert determinantal_divisors(IntMatrix([[2, 4], [0, 6]])) == [2, 12]
    assert determinantal_divisors(IntMatrix([[2, 4], [1, 2], [-3, -6]])) == [1, 0]
    assert determinantal_divisors(IntMatrix([[2, 4, 6], [1, 2, 3]])) == [1, 0]
    assert determinantal_divisors(IntMatrix([[0, 0, 0], [0, 0, 0]])) == [0, 0]
    assert determinantal_divisors(IntMatrix([[-4], [6]])) == [2]


@given(divisor_inputs)
@settings(max_examples=120, deadline=None)
def test_determinantal_divisors_match_minor_oracle(m):
    # prefix products of the Smith diagonal against the minor enumeration,
    # for every order j, on tall, zero, rank-deficient and negative inputs
    upto = min(m.rows, m.cols)
    assert determinantal_divisors(m) == [
        determinantal_divisor(m, j) for j in range(1, upto + 1)
    ]


@given(divisor_inputs)
@settings(max_examples=40, deadline=None)
def test_determinantal_divisors_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    factors = invariant_factors(sympy.Matrix(m.to_lists()), domain=sympy.ZZ)
    assert determinantal_divisors(m) == list(
        itertools.accumulate((abs(int(f)) for f in factors), lambda a, b: a * b)
    )


# -------------------------------------------------------------- completion


def test_complete_to_square_frozen_example():
    c, d = complete_to_square(IntMatrix([[1, 1, 1]]))
    assert c.data == ((1, 1, 1), (0, 1, 0), (0, 0, 1))
    assert det(c) == d == 1


def test_complete_to_square_postconditions():
    cases = [
        IntMatrix([[2, 4]]),
        IntMatrix([[3, 1, 0], [1, 2, 5]]),
        IntMatrix([[0, 2, 0, 4]]),
        IntMatrix([[1, 0, 0], [0, 2, 0]]),
    ]
    for a in cases:
        dk = determinantal_divisor(a, a.rows)
        c, d = complete_to_square(a)
        assert c.rows == c.cols == a.cols
        assert c.data[: a.rows] == a.data
        assert det(c) == d == dk


def test_complete_to_square_square_input_returns_copy():
    sq = IntMatrix([[0, 1], [1, 0]])
    c, d = complete_to_square(sq)
    assert c == sq
    # determinant keeps its sign here, so it can differ from the divisor
    assert det(c) == d == -1
    assert determinantal_divisor(sq, 2) == 1


def test_complete_to_square_rejects_rank_deficient():
    with pytest.raises(PreconditionError):
        complete_to_square(IntMatrix([[2, 4], [1, 2]]))
    with pytest.raises(PreconditionError):
        complete_to_square(IntMatrix([[0, 0, 0]]))


def bordered_completion(matrix):
    # oracle: the earlier construction.  With A = U^-1 S V^-1 and S = (D | 0),
    # border D and the leading k x k block of U^-1 by identity blocks and
    # multiply them back through V^-1, then fix the sign of the first added row
    k, m = matrix.rows, matrix.cols
    if k > m:
        raise PreconditionError("completion needs at least as many columns as rows")
    snf = smith_normal_form(matrix)
    factors = [snf.S.data[i][i] for i in range(k)]
    if 0 in factors:
        raise PreconditionError("matrix has a zero invariant factor (rank deficient)")
    dk = math.prod(factors)
    if k == m:
        return IntMatrix(matrix.data)

    def inverse(u):
        d = det(u)  # +-1
        return IntMatrix([[d * v for v in row] for row in adjugate(u).data])

    u_inv, v_inv = inverse(snf.U), inverse(snf.V)
    bordered_u = [[0] * m for _ in range(m)]
    bordered_s = [[0] * m for _ in range(m)]
    for i in range(m):
        bordered_u[i][i] = bordered_s[i][i] = 1
    for i in range(k):
        bordered_u[i][:k] = u_inv.data[i]
        bordered_s[i][i] = factors[i]
    rows = (IntMatrix(bordered_u) @ IntMatrix(bordered_s) @ v_inv).to_lists()
    if cofactor_det(rows) != dk:
        rows[k] = [-v for v in rows[k]]
    return IntMatrix(rows)


def outcome(fn, matrix):
    try:
        return fn(matrix)
    except PreconditionError as exc:
        return str(exc)


def test_complete_to_square_matches_bordered_oracle():
    # the same matrix, or the same error, on a seeded sweep that includes
    # tall, square, rank-deficient and zero inputs
    rng = random.Random(1106)
    kinds = {"completed": 0, "square": 0, "tall": 0, "rank deficient": 0}
    for _ in range(600):
        k = rng.randint(1, 4)
        m = rng.randint(max(1, k - 1), 7)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(k)]
        if k > 1 and rng.random() < 0.2:
            rows[-1] = [2 * v for v in rows[0]]
        a = IntMatrix(rows)
        got = outcome(complete_to_square, a)
        if isinstance(got, tuple):
            got, d = got
            assert det(got) == d, a
        assert got == outcome(bordered_completion, a), a
        if isinstance(got, IntMatrix):
            kinds["square" if k == m else "completed"] += 1
        else:
            kinds["tall" if k > m else "rank deficient"] += 1
    assert all(kinds.values()), kinds


@given(matrices(max_rows=3, max_cols=4).filter(lambda m: m.rows <= m.cols))
@settings(max_examples=60, deadline=None)
def test_complete_to_square_property(m):
    try:
        dk = determinantal_divisor(m, m.rows)
    except PreconditionError:
        return
    if dk == 0:
        with pytest.raises(PreconditionError):
            complete_to_square(m)
        return
    c, d = complete_to_square(m)
    assert c.data[: m.rows] == m.data
    assert det(c) == d
    if m.rows < m.cols:
        assert d == dk


# ------------------------------------------------------------------ padding


def test_is_n_good_windows():
    m = IntMatrix([[2], [1]])
    assert is_n_good(m, 3)
    assert not is_n_good(m, 4)  # the 1x1 window [2] shares a factor with 4
    assert is_n_good(IntMatrix.identity(2), 12)
    with pytest.raises(PreconditionError):
        is_n_good(IntMatrix([[1, 0]]), 5)


def test_padding_frozen_r1():
    p = n_good_padding(IntMatrix([[3]]), 10)
    assert p.data == ((1,), (3,), (1,))


def test_padding_frozen_r2():
    p = n_good_padding(IntMatrix([[2, 3], [1, 2]]), 5)
    assert p.data == (
        (1, 0),
        (0, 1),
        (2, 0),
        (0, 1),
        (2, 3),
        (1, 2),
        (1, 1),
        (0, 1),
        (1, 0),
        (0, 1),
    )


def check_padding(matrix, n):
    r = matrix.rows
    p = n_good_padding(matrix, n)
    assert p.rows == r * (2 * r + 1)
    assert p.cols == r
    ident = IntMatrix.identity(r).data
    assert p.data[:r] == ident
    assert p.data[-r:] == ident
    assert p.data[r * r : r * r + r] == matrix.data
    # every window of r consecutive rows stays invertible mod n
    for start in range(p.rows - r + 1):
        window = [list(p.data[start + i]) for i in range(r)]
        assert math.gcd(cofactor_det(window), n) == 1


def test_padding_rejects_bad_input():
    with pytest.raises(PreconditionError):
        n_good_padding(IntMatrix([[1, 0]]), 5)
    with pytest.raises(PreconditionError):
        n_good_padding(IntMatrix([[2]]), 4)
    with pytest.raises(PreconditionError):
        n_good_padding(IntMatrix([[1]]), 0)


def test_padding_various_sizes():
    check_padding(IntMatrix([[1]]), 2)
    check_padding(IntMatrix([[7]]), 12)
    check_padding(IntMatrix([[1, 4], [0, 1]]), 9)
    check_padding(IntMatrix([[2, 3], [1, 2]]), 6)
    check_padding(IntMatrix([[1, 0, 0], [4, 1, 0], [2, 5, 1]]), 10)
    check_padding(IntMatrix([[3, 1, 1], [1, 1, 0], [2, 1, 1]]), 7)


def test_padding_modulus_one_keeps_shape():
    p = n_good_padding(IntMatrix([[4, 1], [1, 0]]), 1)
    assert p.rows == 10
    assert is_n_good(p, 1)


@given(
    st.integers(2, 12),
    st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_padding_property_r2(n, rows):
    m = IntMatrix(rows)
    if math.gcd(cofactor_det(rows), n) != 1:
        with pytest.raises(PreconditionError):
            n_good_padding(m, n)
        return
    check_padding(m, n)

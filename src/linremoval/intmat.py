"""Exact integer matrices and the normal forms used by the reduction pipeline.

Everything here is plain Python integer arithmetic: determinants are computed
fraction-free, Smith forms track U, V and V^-1 (the Smith invariants modulo
q, ``smith_invariants_mod``, need none), from which completions and the
identity form's kernel are read with no adjugate, and the two completion
constructions (square completion, window-coprime padding) verify their own
postconditions before returning.  The determinantal divisors are read off
the Smith form (``determinantal_divisors``); the minor enumeration
``determinantal_divisor`` is kept only as an independent oracle, as is
``pipeline.is_circular``, whose per-window ``_det_rows`` determinants are on
no command path.  ``IntMatrix`` keeps only what the library uses: the
identity, reduction mod n, the product, ``to_lists``, equality and
hashing; slices and stacks are built inline from ``data``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import mul

from .errors import InvariantError, PreconditionError


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers.

    Rows are stored as a tuple of tuples.  At least one row and one column
    are required; algorithms that want scratch space copy into lists.
    """

    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows):
        data = tuple(tuple(int(v) for v in row) for row in rows)
        if not data or not data[0]:
            raise PreconditionError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise PreconditionError("matrix rows have inconsistent lengths")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    def mod(self, n: int) -> "IntMatrix":
        if n < 1:
            raise PreconditionError("modulus must be positive")
        return IntMatrix([[v % n for v in row] for row in self.data])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise PreconditionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        columns = list(zip(*other.data))
        return IntMatrix(
            [[sum(map(mul, arow, col)) for col in columns] for arow in self.data]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(row) for row in self.data]})"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with a*x + b*y == g; g carries the sign of the
    # terminating remainder, callers normalize where it matters
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _det_rows(work: list[list[int]]) -> int:
    """Fraction-free elimination on a scratch list-of-lists; consumes it."""
    n = len(work)
    sign = 1
    prev = 1
    for t in range(n - 1):
        if work[t][t] == 0:
            for i in range(t + 1, n):
                if work[i][t] != 0:
                    work[t], work[i] = work[i], work[t]
                    sign = -sign
                    break
            else:
                return 0
        lead = work[t][t]
        row_t = work[t]
        for i in range(t + 1, n):
            row_i = work[i]
            head = row_i[t]
            for j in range(t + 1, n):
                row_i[j] = (row_i[j] * lead - head * row_t[j]) // prev
            row_i[t] = 0
        prev = lead
    return sign * work[n - 1][n - 1]


def det(matrix: IntMatrix) -> int:
    """Exact determinant via fraction-free elimination (no rationals)."""
    if matrix.rows != matrix.cols:
        raise PreconditionError("determinant needs a square matrix")
    return _det_rows(matrix.to_lists())


@dataclass(frozen=True)
class SnfResult:
    """Smith form S, unimodular U, V with U @ A @ V == S, and V_inv = V^-1."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    V_inv: IntMatrix


def _swap_cols(m: list[list[int]], a: int, b: int) -> None:
    for row in m:
        row[a], row[b] = row[b], row[a]


def smith_normal_form(matrix: IntMatrix) -> SnfResult:
    """Diagonalize over the integers with explicit unimodular transforms.

    The returned S has nonnegative diagonal entries forming a divisibility
    chain, and U @ matrix @ V == S with |det U| == |det V| == 1.  The pivot at
    each stage is the smallest-magnitude nonzero entry of the remaining block,
    ties resolved toward the lowest row and then the lowest column.

    All three are read off one working matrix, the rows of (A | I_rows)
    followed by the rows of I_cols: a row operation on one of the first
    ``rows`` rows updates S and U together, and a column operation on one
    of the first ``cols`` columns updates S and V together.  The pivot
    search and the divisibility check read only the A block.  V^-1 is kept
    in the same pass: each column operation's inverse is applied to its
    rows as a row operation.
    """
    rows, cols = matrix.rows, matrix.cols
    w = [
        list(row) + [1 if c == i else 0 for c in range(rows)]
        for i, row in enumerate(matrix.data)
    ]
    w += [[1 if c == i else 0 for c in range(cols)] for i in range(cols)]
    vi = [[1 if c == i else 0 for c in range(cols)] for i in range(cols)]

    for t in range(min(rows, cols)):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = w[i][j]
                if val != 0 and (best is None or abs(val) < best[0]):
                    best = (abs(val), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            w[t], w[bi] = w[bi], w[t]
        if bj != t:
            _swap_cols(w, t, bj)
            vi[t], vi[bj] = vi[bj], vi[t]

        while True:
            # reduce the cross at (t, t) until both arms vanish
            while True:
                if w[t][t] < 0:
                    w[t] = [-v for v in w[t]]
                restart = False
                for i in range(t + 1, rows):
                    if w[i][t]:
                        q = w[i][t] // w[t][t]
                        if q:
                            w[i] = [v - q * s for v, s in zip(w[i], w[t])]
                        if w[i][t]:
                            w[t], w[i] = w[i], w[t]
                            restart = True
                            break
                if restart:
                    continue
                for j in range(t + 1, cols):
                    if w[t][j]:
                        q = w[t][j] // w[t][t]
                        if q:
                            for row in w:
                                row[j] -= q * row[t]
                            vi[t] = [a + q * b for a, b in zip(vi[t], vi[j])]
                        if w[t][j]:
                            _swap_cols(w, t, j)
                            vi[t], vi[j] = vi[j], vi[t]
                            restart = True
                            break
                if restart:
                    continue
                break
            # pivot must divide everything that remains, or the chain breaks
            violation = None
            pivot = w[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if w[i][j] % pivot:
                        violation = i
                        break
                if violation is not None:
                    break
            if violation is None:
                break
            w[t] = [v + s for v, s in zip(w[t], w[violation])]

    return SnfResult(
        IntMatrix([row[cols:] for row in w[:rows]]),
        IntMatrix([row[:cols] for row in w[:rows]]),
        IntMatrix(w[rows:]),
        IntMatrix(vi),
    )


def smith_invariants_mod(rows, q: int) -> list[int]:
    """gcd(s_j, q) for the Smith invariants s_1 | s_2 | ... of the integer
    matrix with the given rows, one per j < min(rows, cols), with s_j = 0
    past the rank: the Smith form of the matrix over Z/q.

    Elimination modulo q, with no transforms and no factoring of q.  Each
    stage pivots on an entry of least gcd g with q (the first unit, when
    one is left).  While g fails to divide an entry of the pivot's row or
    column, one unimodular 2 x 2 xgcd step merges that entry into the
    pivot, which strictly shrinks g; only such an entry is merged, so the
    loop ends.  Then the pivot's column is cleared and its row and column
    dropped: every entry of the row is a multiple of the pivot modulo q,
    so clearing the row would change nothing else.  On a composite q the
    diagonal found need not be a divisibility chain; gcd / lcm steps, which
    keep the cokernel, put it in Smith order.
    """
    work = [[v % q for v in row] for row in rows]
    size = min(len(work), len(work[0])) if work else 0
    diag: list[int] = []
    while len(diag) < size:
        g, pi, pj = q, 0, 0
        for i, row in enumerate(work):
            for j, v in enumerate(row):
                if v and math.gcd(v, q) < g:
                    g, pi, pj = math.gcd(v, q), i, j
                    if g == 1:
                        break
            if g == 1:
                break
        if g == q:
            # every entry left is zero modulo q
            diag += [q] * (size - len(diag))
            break
        pivot_row = work[pi]
        while g > 1:
            p = pivot_row[pj]
            i = next((i for i, row in enumerate(work) if row[pj] % g), None)
            if i is not None:
                e = work[i][pj]
                h, x, y = _xgcd(p, e)
                a, b = -e // h, p // h
                work[pi], work[i] = (
                    [(x * s + y * t) % q for s, t in zip(pivot_row, work[i])],
                    [(a * s + b * t) % q for s, t in zip(pivot_row, work[i])],
                )
                pivot_row = work[pi]
            else:
                j = next((j for j, v in enumerate(pivot_row) if v % g), None)
                if j is None:
                    break
                e = pivot_row[j]
                h, x, y = _xgcd(p, e)
                a, b = -e // h, p // h
                for row in work:
                    s, t = row[pj], row[j]
                    row[pj], row[j] = (x * s + y * t) % q, (a * s + b * t) % q
            g = math.gcd(pivot_row[pj], q)
        inv = pow(pivot_row[pj] // g, -1, q // g)
        del work[pi]
        for row in work:
            e = row[pj]
            if e:
                c = e // g * inv
                row[:] = [(s - c * t) % q for s, t in zip(row, pivot_row)]
            del row[pj]
        diag.append(g)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            diag[i] = math.gcd(a, b)
            diag[j] = a * b // diag[i]
    return diag


def determinantal_divisors(matrix: IntMatrix) -> list[int]:
    """d_1, ..., d_min(rows, cols), where d_j is the gcd of the j x j minors.

    They are the prefix products of the Smith diagonal, so d_j is 0 from the
    first zero invariant factor on.
    """
    diag = smith_normal_form(matrix).S.data
    upto = min(matrix.rows, matrix.cols)
    return list(accumulate((diag[i][i] for i in range(upto)), mul))


def determinantal_divisor(matrix: IntMatrix, k: int) -> int:
    """Nonnegative gcd of all k x k minors (rows and columns in any position).

    Deliberately enumerates minors instead of reading the Smith form: it is
    the independent oracle for ``determinantal_divisors``, on no command path.
    """
    if not 1 <= k <= min(matrix.rows, matrix.cols):
        raise PreconditionError(f"minor order {k} out of range")
    data = matrix.data
    g = 0
    for row_ids in combinations(range(matrix.rows), k):
        for col_ids in combinations(range(matrix.cols), k):
            minor = [[data[i][j] for j in col_ids] for i in row_ids]
            g = math.gcd(g, _det_rows(minor))
            if g == 1:
                return 1
    return g


def _full_rank_smith(matrix: IntMatrix) -> tuple[SnfResult, int]:
    """The Smith form of a k x m matrix with k <= m, and d_k, the product of
    its k invariant factors; PreconditionError when d_k is 0."""
    k, m = matrix.rows, matrix.cols
    if k > m:
        raise PreconditionError("completion needs at least as many columns as rows")
    snf = smith_normal_form(matrix)
    dk = math.prod(snf.S.data[i][i] for i in range(k))
    if dk == 0:
        raise PreconditionError("matrix has a zero invariant factor (rank deficient)")
    return snf, dk


def complete_to_square(matrix: IntMatrix) -> tuple[IntMatrix, int]:
    """Extend a full-row-rank k x m matrix to an m x m one of minimal
    determinant, and return it with that determinant.

    The output contains the input as its first k rows and has determinant
    equal to d_k, the gcd of the k x k minors.  The rows added below come
    from the Smith transforms: U A V = (D | 0) gives A = U^-1 D (first k rows
    of V^-1), so A stacked on the last m - k rows of V^-1 is
    diag(U^-1 D, I) V^-1, of determinant +-d_k.  A square input is already
    its own completion (there the determinant keeps its sign, since no added
    row is available to flip it, and is returned as det(matrix)).
    """
    snf, dk = _full_rank_smith(matrix)
    k = matrix.rows
    if k == matrix.cols:
        return IntMatrix(matrix.data), det(matrix)

    result = IntMatrix(matrix.data + snf.V_inv.data[k:])
    d = det(result)
    if d != dk:
        # determinant can only be off by sign; flip the first added row
        fixed = result.to_lists()
        fixed[k] = [-v for v in fixed[k]]
        result = IntMatrix(fixed)
        d = -d

    if result.data[:k] != matrix.data:
        raise InvariantError("completion displaced the original rows")
    if d != dk:
        raise InvariantError("completion missed the target determinant")
    return result, d


def is_n_good(matrix: IntMatrix, n: int) -> bool:
    """Do all windows of r consecutive rows (r = column count) have
    determinant coprime to n?"""
    if n < 1:
        raise PreconditionError("modulus must be positive")
    t, r = matrix.rows, matrix.cols
    if t < r:
        raise PreconditionError("window check needs at least as many rows as columns")
    for start in range(t - r + 1):
        window = [list(matrix.data[start + i]) for i in range(r)]
        if math.gcd(_det_rows(window), n) != 1:
            return False
    return True


def _bezout_chain(values: list[int]) -> tuple[list[int], int]:
    """Coefficients with sum(c * v) == gcd(values) >= 0."""
    g = values[0]
    coeffs = [1]
    for val in values[1:]:
        g2, x, y = _xgcd(g, val)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g2
    if g < 0:
        g = -g
        coeffs = [-c for c in coeffs]
    return coeffs, g


def _combination_with_unit_lead(values: list[int], n: int) -> tuple[list[int], int]:
    """Integer lambdas with sum(lam * values) == gcd(values) and the leading
    lambda coprime to n.

    Valid leading coefficients form an arithmetic progression a + b*t with
    gcd(a, b) == 1, so a member coprime to n exists; it is found by direct
    search over t.
    """
    r = len(values)
    dprime = math.gcd(*values)
    rest = math.gcd(*values[1:])
    if rest == 0:
        # only the first entry is nonzero: the combination is forced
        lam0 = 1 if values[0] > 0 else -1
        return [lam0] + [0] * (r - 1), dprime
    u = values[0] // dprime
    v = rest // dprime
    if v == 1:
        base, step = 0, 1
    else:
        base, step = pow(u % v, -1, v), v
    lam0 = None
    for t in range(2 * n + 2):
        cand = base + step * t
        if math.gcd(cand, n) == 1:
            lam0 = cand
            break
    if lam0 is None:
        raise InvariantError("no unit leading coefficient in the progression")
    target = dprime - lam0 * values[0]
    if target % rest:
        raise InvariantError("progression member broke the solvability congruence")
    mu, _ = _bezout_chain(values[1:])
    scalefac = target // rest
    lams = [lam0] + [mval * scalefac for mval in mu]
    if sum(l * val for l, val in zip(lams, values)) != dprime:
        raise InvariantError("combination does not reach the column gcd")
    return lams, dprime


def _pad_rows_below(rows: list[list[int]], n: int) -> list[list[int]]:
    """Stack r*(r+1) rows: the input, then rows keeping every window
    determinant coprime to n, ending in an identity block."""
    r = len(rows)
    if r == 1:
        return [rows[0][:], [1]]
    lead = [row[0] for row in rows]
    lams, dprime = _combination_with_unit_lead(lead, n)
    t1 = [sum(l * row[j] for l, row in zip(lams, rows)) for j in range(r)]
    inner = []
    for i in range(1, r):
        q = rows[i][0] // dprime
        reduced = [rows[i][j] - q * t1[j] for j in range(r)]
        if reduced[0] != 0:
            raise InvariantError("leading column failed to clear")
        inner.append(reduced[1:])
    sub = _pad_rows_below(inner, n)
    assembled = [t1]
    block = r - 1
    for idx, srow in enumerate(sub, start=1):
        assembled.append([0] + list(srow))
        if idx % block == 0 and idx // block <= r - 1:
            assembled.append([1] + [0] * (r - 1))
    return [row[:] for row in rows] + assembled


def _flip(rows: list[list[int]]) -> list[list[int]]:
    # reverse row order and column order; windows map to windows with
    # determinants preserved up to sign
    return [list(reversed(row)) for row in reversed(rows)]


def n_good_padding(matrix: IntMatrix, n: int) -> IntMatrix:
    """Embed a square matrix M with gcd(det M, n) == 1 into a tall stack
    (identity; S; M; T; identity) all of whose r-row windows have determinant
    coprime to n.

    The output has exactly r*(2r+1) rows for an r x r input, with M occupying
    the central block.  The lower half is built row by row from Bezout
    combinations; the upper half is the same construction conjugated by the
    row-and-column reversal, which fixes identity blocks and preserves window
    determinants up to sign.
    """
    if matrix.rows != matrix.cols:
        raise PreconditionError("padding needs a square matrix")
    if n < 1:
        raise PreconditionError("modulus must be positive")
    r = matrix.rows
    d = det(matrix)
    if math.gcd(d, n) != 1:
        # neither number is printed: either may be past Python's digit
        # limit for a decimal string
        raise PreconditionError("the determinant shares a factor with the modulus")

    if n == 1:
        # every determinant is coprime to 1; zero filler keeps the shape
        filler = [[0] * r for _ in range(r * r - r)]
        ident = IntMatrix.identity(r).to_lists()
        stacked = ident + filler + matrix.to_lists() + filler + ident
    else:
        base = matrix.to_lists()
        bottom = _pad_rows_below(base, n)
        top = _flip(_pad_rows_below(_flip(base), n))
        stacked = top + bottom[r:]

    out = IntMatrix(stacked)
    expected = r * (2 * r + 1)
    if out.rows != expected:
        raise InvariantError(f"padding has {out.rows} rows, wanted {expected}")
    ident = IntMatrix.identity(r).data
    if out.data[:r] != ident or out.data[-r:] != ident:
        raise InvariantError("padding lost its identity blocks")
    mid = r * r
    if out.data[mid:mid + r] != matrix.data:
        raise InvariantError("padding displaced the original matrix")
    if not is_n_good(out, n):
        raise InvariantError("padding failed the window coprimality check")
    return out

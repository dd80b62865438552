"""Reduction of restricted systems to standard circular homogeneous form.

The chain runs translate -> identity form -> circular form.  Every stage is
an Extension, so solutions biject end to end and counting any stage counts
them all.  The circular target additionally gets a kernel matrix, one column
per coordinate, supported on a short circular interval; the hypergraph
encoding is built from exactly that matrix.

Circularity here always means: every window of k consecutive columns, taken
cyclically, has determinant coprime to the modulus.  CircularSystem is the
one place that checks circularity and annihilation of a target; the steps
that build it check their own inputs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abelian import AbelianGroup, scalar_inverse
from .errors import PreconditionError
from .intmat import (
    IntMatrix,
    _unit_reduced_det,
    _xgcd,
    adjugate,
    complete_to_square,
    det,
    n_good_padding,
)
from .system import (
    DEFAULT_BUDGET,
    Extension,
    RestrictedSystem,
    ThinWitness,
    _identity_prefix,
    compose_extensions,
    enumerate_solutions,
    homogenize,
    is_thin,
)


def is_circular(matrix: IntMatrix, modulus: int) -> bool:
    """True when every cyclic window of k consecutive columns has
    determinant coprime to the modulus."""
    k, m = matrix.rows, matrix.cols
    if k > m:
        raise PreconditionError("more equations than variables")
    if modulus < 1:
        raise PreconditionError("modulus must be positive")
    for j in range(m):
        window = [
            [matrix.data[i][(j + t) % m] for t in range(k)] for i in range(k)
        ]
        if math.gcd(_unit_reduced_det(window), modulus) != 1:
            return False
    return True


def _solve_window_mod(rows, rhs, n: int) -> list[int]:
    """Solve M c = rhs mod n for a square M whose determinant is a unit.

    Rows holding a single unknown with a unit coefficient are peeled off
    and substituted first; the windows this sees in practice are
    near-identity, so peeling resolves almost everything.  The residual
    core is eliminated densely, combining rows by extended gcd so pivots
    come out as units whenever the determinant is one.
    """
    s = len(rows)
    work = [
        {j: rows[i][j] % n for j in range(s) if rows[i][j] % n} for i in range(s)
    ]
    vals = [v % n for v in rhs]
    solution: list[int | None] = [None] * s
    active = set(range(s))

    changed = True
    while changed:
        changed = False
        for i in sorted(active):
            ent = work[i]
            if not ent:
                if vals[i] % n:
                    raise PreconditionError("window system is inconsistent")
                active.discard(i)
                changed = True
                continue
            if len(ent) == 1:
                ((col, coeff),) = ent.items()
                if math.gcd(coeff, n) != 1:
                    continue
                value = vals[i] * pow(coeff, -1, n) % n
                solution[col] = value
                active.discard(i)
                for q in active:
                    c = work[q].pop(col, None)
                    if c is not None:
                        vals[q] = (vals[q] - c * value) % n
                changed = True

    open_cols = [j for j in range(s) if solution[j] is None]
    if open_cols:
        order = sorted(active)
        if len(order) != len(open_cols):
            raise PreconditionError("window is singular modulo the modulus")
        dense = [
            [work[i].get(j, 0) for j in open_cols] + [vals[i]] for i in order
        ]
        t = len(open_cols)
        for c in range(t):
            p = None
            for q in range(c, t):
                if dense[q][c] % n == 0:
                    continue
                if p is None:
                    p = q
                    continue
                # unimodular 2x2 combination leaves gcd in row p, zero in q
                a, b = dense[p][c] % n, dense[q][c] % n
                g, u, w = _xgcd(a, b)
                rp = [(u * x + w * y) % n for x, y in zip(dense[p], dense[q])]
                rq = [
                    ((b // g) * x - (a // g) * y) % n
                    for x, y in zip(dense[p], dense[q])
                ]
                dense[p], dense[q] = rp, rq
            if p is None:
                raise PreconditionError("window is singular modulo the modulus")
            dense[c], dense[p] = dense[p], dense[c]
            pivot = dense[c][c] % n
            if math.gcd(pivot, n) != 1:
                raise PreconditionError("window pivot is not a unit")
            inv = pow(pivot, -1, n)
            dense[c] = [x * inv % n for x in dense[c]]
            for q in range(t):
                if q != c and dense[q][c]:
                    f = dense[q][c]
                    dense[q] = [
                        (x - f * y) % n for x, y in zip(dense[q], dense[c])
                    ]
        for idx, j in enumerate(open_cols):
            solution[j] = dense[idx][t]
    return [v % n for v in solution]  # type: ignore[union-attr]


def standardize(matrix: IntMatrix, modulus: int) -> IntMatrix:
    """Row-reduce a circular matrix mod n until the left block is exactly
    the identity.  Window determinants only pick up unit factors, so the
    result is circular again; entries land in [0, n)."""
    if modulus < 2:
        raise PreconditionError("modulus must be at least 2")
    if not is_circular(matrix, modulus):
        raise PreconditionError("matrix is not circular for this modulus")
    k, m = matrix.rows, matrix.cols
    left = [[matrix.data[i][j] for j in range(k)] for i in range(k)]
    cols = []
    for j in range(m):
        rhs = [matrix.data[i][j] for i in range(k)]
        cols.append(_solve_window_mod(left, rhs, modulus))
    return IntMatrix([[cols[j][i] for j in range(m)] for i in range(k)])


def build_kernel_matrix(matrix: IntMatrix, modulus: int) -> IntMatrix:
    """Kernel matrix of a standard circular system.

    Column j expresses column j of the system matrix through its k
    predecessor columns (the window right before j, cyclically); entry
    (j, j) is set to -1 mod n, so the matrix annihilates the system matrix
    column by column.  Entries outside the interval [j-k, j] stay zero.
    Those m window solves cover every cyclic window, and each raises
    PreconditionError when its determinant is not a unit, so a
    non-circular matrix is rejected without a separate circularity scan.
    """
    k, m = matrix.rows, matrix.cols
    if modulus < 2:
        raise PreconditionError("modulus must be at least 2")
    if m < k + 2:
        raise PreconditionError("need at least two more columns than rows")
    n = modulus
    reduced = matrix.mod(n)
    if not _identity_prefix(reduced):
        raise PreconditionError("matrix is not in standard form")
    data = [[0] * m for _ in range(m)]
    for j in range(m):
        wcols = [(j - k + t) % m for t in range(k)]
        wrows = [[reduced.data[i][c] for c in wcols] for i in range(k)]
        rhs = [reduced.data[i][j] for i in range(k)]
        coeffs = _solve_window_mod(wrows, rhs, n)
        for t, c in enumerate(wcols):
            data[c][j] = coeffs[t]
        data[j][j] = n - 1
    return IntMatrix(data)


@dataclass(frozen=True)
class CircularSystem:
    """Standard circular matrix together with its kernel matrix, mod n.

    Construction is the single validation point for a circular target:
    identity prefix, window coprimality, kernel support and diagonal, and
    the annihilation product.  Kernels from outside the program pass the
    same checks as those from build_kernel_matrix.
    """

    matrix: IntMatrix
    kernel_matrix: IntMatrix
    modulus: int

    def __post_init__(self):
        n = self.modulus
        k, m = self.matrix.rows, self.matrix.cols
        if n < 2:
            raise PreconditionError("modulus must be at least 2")
        if m < k + 2:
            raise PreconditionError("need at least two more columns than rows")
        if any(not 0 <= v < n for row in self.matrix.data for v in row):
            raise PreconditionError("matrix entries must be reduced mod n")
        if not _identity_prefix(self.matrix):
            raise PreconditionError("left block is not the identity")
        if not is_circular(self.matrix, n):
            raise PreconditionError("matrix is not circular for this modulus")
        if self.kernel_matrix.rows != m or self.kernel_matrix.cols != m:
            raise PreconditionError("kernel matrix must be square of size m")
        for j in range(m):
            support = {(j - k + t) % m for t in range(k + 1)}
            for i in range(m):
                v = self.kernel_matrix.data[i][j]
                if not 0 <= v < n:
                    raise PreconditionError("kernel entries must be reduced mod n")
                if i not in support and v != 0:
                    raise PreconditionError(
                        f"kernel entry ({i},{j}) lies outside its support interval"
                    )
            if self.kernel_matrix.data[j][j] != n - 1:
                raise PreconditionError("kernel diagonal must be -1 mod n")
        prod = self.matrix @ self.kernel_matrix
        if any(v % n for row in prod.data for v in row):
            raise PreconditionError("kernel matrix does not annihilate the matrix")

    @property
    def equations(self) -> int:
        return self.matrix.rows

    @property
    def variables(self) -> int:
        return self.matrix.cols


def extend_to_identity_form(system: RestrictedSystem):
    """Extension onto a homogeneous system (I_m|B) whose rows all have gcd 1.

    Returns a ThinWitness instead when the construction pins a coordinate
    (a vanished kernel row forces that coordinate to zero), or when there
    are no free columns at all.
    """
    return _identity_form_details(system)[0]


def _identity_form_details(system: RestrictedSystem):
    if not system.is_homogeneous():
        raise PreconditionError("identity-form step needs a homogeneous system")
    if system.determinantal == 0:
        raise PreconditionError("determinantal divisor is zero")
    if not system.coprime:
        raise PreconditionError(
            "determinantal divisor shares a factor with the group order"
        )
    group = system.group
    k, m = system.equations, system.variables
    if k == m:
        return ThinWitness(coordinate=0, value=group.zero), ()

    completed = complete_to_square(system.matrix)
    d = det(completed)
    adj = adjugate(completed)
    # border columns: zeros on top, identity below
    free = m - k
    border = IntMatrix(
        [[0] * free for _ in range(k)]
        + [[1 if i == j else 0 for j in range(free)] for i in range(free)]
    )
    slopes = adj @ border

    divisors = []
    for i in range(m):
        g = 0
        for v in slopes.data[i]:
            g = math.gcd(g, v)
        divisors.append(g)
    for i, g in enumerate(divisors):
        if g == 0:
            # coordinate i is zero in every solution
            return ThinWitness(coordinate=i, value=group.zero), tuple(divisors)

    d_inv = scalar_inverse(d, group)
    reduced_rows = [
        [v // divisors[i] for v in slopes.data[i]] for i in range(m)
    ]
    target_matrix = IntMatrix(
        [
            [1 if c == i else 0 for c in range(m)] + reduced_rows[i]
            for i in range(m)
        ]
    )

    full = group.elements()
    new_sets: list[tuple] = []
    value_maps: dict[int, dict] = {}
    for i in range(m):
        s = divisors[i]
        scaled_source = {group.scale(d, x) for x in system.restrictions[i]}
        ys = tuple(
            y for y in full if group.scale(s, y) in scaled_source
        )
        new_sets.append(ys)
        value_maps[i] = {
            y: group.scale(d_inv, group.scale(s, y)) for y in ys
        }
    new_sets.extend([full] * free)

    zero_rhs = tuple(group.zero for _ in range(m))
    target = RestrictedSystem(group, target_matrix, zero_rhs, tuple(new_sets))
    coords = tuple(range(m))
    ext = Extension(
        source=system,
        target=target,
        mapped_coords=coords,
        coord_map={i: i for i in coords},
        value_maps=value_maps,
    )
    return ext, tuple(divisors)


def circularize(system: RestrictedSystem, modulus: int) -> Extension:
    """Extension onto a standard circular homogeneous system.

    Every free-part row is completed to a unit-determinant square and
    padded until all its row windows are coprime to the modulus; the
    padded blocks are stacked with one shared identity bridge between
    neighbours.  Original pivot rows reappear as the first row of their
    completed block, and the free columns are shared by all blocks, which
    is what keeps the solution sets in bijection under identity maps.
    """
    group = system.group
    k, m = system.equations, system.variables
    r = m - k
    if modulus < 2:
        raise PreconditionError("modulus must be at least 2")
    if r < 1:
        raise PreconditionError("no free columns to circularize over")
    if not system.is_homogeneous():
        raise PreconditionError("circular step needs a homogeneous system")
    if not _identity_prefix(system.matrix):
        raise PreconditionError("matrix must start with an identity block")

    blocks = []
    for p in range(k):
        row = [system.matrix.data[p][k + t] for t in range(r)]
        g = 0
        for v in row:
            g = math.gcd(g, v)
        if g != 1:
            raise PreconditionError(f"row {p} of the free block has gcd {g}, not 1")
        completed = complete_to_square(IntMatrix([row]))
        blocks.append(n_good_padding(completed, modulus))

    stack = [list(rw) for rw in blocks[0].data]
    for blk in blocks[1:]:
        # leading identity of this block is the previous block's tail
        stack.extend(list(rw) for rw in blk.data[r:])
    tall = len(stack)
    assert tall == 2 * k * r * r + r, "stacked block count is off"

    tmat = IntMatrix(
        [
            [1 if c == i else 0 for c in range(tall)]
            + [v % modulus for v in stack[i]]
            for i in range(tall)
        ]
    )

    full = group.elements()
    new_sets = [full] * (tall + r)
    coord_map: dict[int, int] = {}
    block_rows = 2 * r * r
    for p in range(k):
        pivot = p * block_rows + r * r
        new_sets[pivot] = system.restrictions[p]
        coord_map[pivot] = p
    for j in range(r):
        new_sets[tall + j] = system.restrictions[k + j]
        coord_map[tall + j] = k + j
    mapped = tuple(sorted(coord_map))

    zero_rhs = tuple(group.zero for _ in range(tall))
    target = RestrictedSystem(group, tmat, zero_rhs, tuple(new_sets))
    value_maps = {
        j: {v: v for v in target.restrictions[j]} for j in mapped
    }
    return Extension(
        source=system,
        target=target,
        mapped_coords=mapped,
        coord_map=coord_map,
        value_maps=value_maps,
    )


@dataclass
class PipelineResult:
    """Outcome of the full reduction.

    outcome is "circular" (chain completed), "thin" (a pinned coordinate
    short-circuits everything), or "small-system" (at most one free column;
    the removal module handles these directly).
    """

    outcome: str
    stages: list[dict]
    thin: ThinWitness | None
    chain: list[Extension]
    composed: Extension | None
    circular: CircularSystem | None


def full_extension(
    system: RestrictedSystem, budget: int = DEFAULT_BUDGET
) -> PipelineResult:
    """Run translate -> identity form -> circular form on a system.

    Solution counts are recorded at every stage and must agree; the final
    system is built into a CircularSystem, which checks that the target is
    circular and that its kernel matrix annihilates it.
    """
    if not system.coprime:
        raise PreconditionError(
            "determinantal divisor shares a factor with the group order"
        )
    group = system.group
    n = group.order
    stages = [
        {
            "stage": "input",
            "equations": system.equations,
            "variables": system.variables,
            "solutions": len(enumerate_solutions(system, budget)),
        }
    ]

    witness = is_thin(system, budget)
    if witness is not None:
        return PipelineResult("thin", stages, witness, [], None, None)

    translated = homogenize(system, budget)
    stages.append(
        {
            "stage": "translate",
            "equations": translated.target.equations,
            "variables": translated.target.variables,
            "solutions": len(enumerate_solutions(translated.target, budget)),
        }
    )

    if system.variables - system.equations <= 1:
        return PipelineResult(
            "small-system", stages, None, [translated], translated, None
        )

    step, divisors = _identity_form_details(translated.target)
    if isinstance(step, ThinWitness):
        # pinned at zero in translated coordinates; undo the translation
        vmap = translated.value_maps[step.coordinate]
        zero = group.zero
        if zero in vmap:
            back = ThinWitness(step.coordinate, vmap[zero])
        else:
            back = ThinWitness(step.coordinate, None, vacuous=True)
        return PipelineResult("thin", stages, back, [translated], None, None)
    stages.append(
        {
            "stage": "identity-form",
            "equations": step.target.equations,
            "variables": step.target.variables,
            "solutions": len(enumerate_solutions(step.target, budget)),
            "row_divisors": list(divisors),
        }
    )

    circ = circularize(step.target, n)
    stages.append(
        {
            "stage": "circular",
            "equations": circ.target.equations,
            "variables": circ.target.variables,
            "solutions": len(enumerate_solutions(circ.target, budget)),
            "modulus": n,
        }
    )

    counts = {st["solutions"] for st in stages}
    assert len(counts) == 1, f"stage solution counts diverged: {counts}"

    composed = compose_extensions(
        compose_extensions(translated, step), circ
    )
    kernel = build_kernel_matrix(circ.target.matrix, n)
    circular = CircularSystem(circ.target.matrix, kernel, n)
    return PipelineResult(
        "circular",
        stages,
        None,
        [translated, step, circ],
        composed,
        circular,
    )

"""Reduction of restricted systems to standard circular homogeneous form.

The chain runs translate, then one of two routes to a circular target.
When some cyclic order of the columns makes every k-window a unit mod n,
the standard stage permutes the columns and row-reduces to (I_k | B): the
target keeps the input's k x m shape.  Otherwise identity form ->
circular form pads the system into the paper's general target.  Every
stage is an Extension, so solutions biject end to end and counting any
stage counts them all.  CircularSystem, the one place a kernel is built,
gives the target a kernel matrix with row i on the window {i, ..., i+k};
the hypergraph encoding is built from exactly that matrix.

Circularity here always means: every window of k consecutive columns, taken
cyclically, has determinant coprime to the modulus.  For a standard matrix
(I_k | B) the kernel construction is the circularity check: each window's
determinant is that of an at most (m-k) x (m-k) core of B, and the core
solve raises exactly when it is not a unit.  That is the only route by which
a command decides circularity: CircularSystem checks a target by building
its kernel, _standard_form (the circular command) its result the same way,
and the steps that build a target check their own inputs only.  The
column-order search picks its order with the same mod-n elimination, and
its target is still checked by CircularSystem.  is_circular, a dense
determinant per window, is the independent oracle and is on no command
path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .abelian import scalar_inverse, scaling_preimage
from .errors import InvariantError, PreconditionError
from .intmat import (
    IntMatrix,
    _det_rows,
    _full_rank_smith,
    _xgcd,
    complete_to_square,
    det,
    n_good_padding,
)
from .system import (
    DEFAULT_BUDGET,
    Extension,
    ExtensionReport,
    RestrictedSystem,
    ThinWitness,
    _check_budget,
    _homogenize,
    _projection,
    _require_coprime,
    _thin_witness,
    _verify_extension,
    _walk,
    compose_extensions,
    count_solutions,
)


def is_circular(matrix: IntMatrix, modulus: int) -> bool:
    """True when every cyclic window of k consecutive columns has
    determinant coprime to the modulus.

    A dense k x k determinant per window, for any matrix: the oracle for
    the window solves of _standard_kernel, which decide circularity on every
    command path.
    """
    k, m = matrix.rows, matrix.cols
    if k > m:
        raise PreconditionError("more equations than variables")
    if modulus < 1:
        raise PreconditionError("modulus must be positive")
    for j in range(m):
        window = [
            [matrix.data[i][(j + t) % m] for t in range(k)] for i in range(k)
        ]
        if math.gcd(_det_rows(window), modulus) != 1:
            return False
    return True


def _identity_prefix(matrix: IntMatrix) -> bool:
    """Whether the left k x k block is exactly the identity, one row at a
    time: a 1 on the diagonal and zeros on either side of it."""
    k = matrix.rows
    return all(
        row[i] == 1 and not any(row[:i]) and not any(row[i + 1 : k])
        for i, row in enumerate(matrix.data)
    )


def _eliminate_mod(rows, n: int) -> list[list[int]]:
    """Row-reduce s rows mod n until their first s columns are the identity.

    Rows are combined by extended gcd, so each pivot is the gcd of its
    column and is a unit exactly when the leading s x s block has unit
    determinant; PreconditionError otherwise.  Entries land in [0, n).
    """
    dense = [[v % n for v in row] for row in rows]
    s = len(dense)
    for c in range(s):
        p = None
        for q in range(c, s):
            if dense[q][c] == 0:
                continue
            if p is None:
                p = q
                continue
            # unimodular 2x2 combination leaves gcd in row p, zero in q
            a, b = dense[p][c], dense[q][c]
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
        pivot = dense[c][c]
        if math.gcd(pivot, n) != 1:
            raise PreconditionError("window pivot is not a unit")
        inv = pow(pivot, -1, n)
        dense[c] = [x * inv % n for x in dense[c]]
        for q in range(s):
            if q != c and dense[q][c]:
                f = dense[q][c]
                dense[q] = [(x - f * y) % n for x, y in zip(dense[q], dense[c])]
    return dense


def _solve_window_mod(rows, rhs, n: int) -> list[int]:
    """Solve M c = rhs mod n for a square M whose determinant is a unit."""
    aug = [list(row) + [v] for row, v in zip(rows, rhs)]
    return [row[-1] for row in _eliminate_mod(aug, n)]


def _standard_form(matrix: IntMatrix, modulus: int) -> IntMatrix | None:
    """Row-reduce a matrix mod n until the left block is exactly the
    identity, entries in [0, n); None exactly when it is not circular.

    The result L^-1 A has the windows of A times the unit det L^-1, so it is
    circular exactly when A is: a non-unit left block L fails its own
    elimination, and the result is checked by building its kernel.  Bad
    shapes and moduli still raise.
    """
    k, m = matrix.rows, matrix.cols
    if k > m:
        raise PreconditionError("more equations than variables")
    if modulus < 2:
        raise PreconditionError("modulus must be at least 2")
    try:
        standard = IntMatrix(_eliminate_mod(matrix.data, modulus))
        _standard_kernel(standard, modulus)
    except PreconditionError:
        return None
    return standard


def _standard_kernel(reduced: IntMatrix, n: int) -> IntMatrix:
    """Kernel matrix of a reduced (I_k | B), built window by window.

    The window before column j holds identity columns S and columns T of B,
    |S| + |T| = k, and its determinant is +-det B[rows not in S, T].  Only
    that |T| x |T| core is solved; the identity rows follow by
    back-substitution, c_s = a_j[s] - sum over T of a_t[s] c_t.  The core
    solve raises PreconditionError exactly when the window is not a unit,
    and the m windows are every cyclic window.
    """
    k, m = reduced.rows, reduced.cols
    a = reduced.data
    columns = list(zip(*a))
    data = [[0] * m for _ in range(m)]
    for j in range(m):
        window = [(j - k + t) % m for t in range(k)]
        ident = [c for c in window if c < k]
        core_cols = [c for c in window if c >= k]
        skip = set(ident)
        core_rows = [i for i in range(k) if i not in skip]
        core = _solve_window_mod(
            [[a[i][c] for c in core_cols] for i in core_rows],
            [a[i][j] for i in core_rows],
            n,
        )
        # the back-substitution for every row at once, a core column at a time
        back = columns[j]
        for c, v in zip(core_cols, core):
            data[c][j] = v
            back = [x - v * y for x, y in zip(back, columns[c])]
        for s in ident:
            data[s][j] = back[s] % n
        data[j][j] = n - 1
    return IntMatrix(data)


def build_kernel_matrix(matrix: IntMatrix, modulus: int) -> IntMatrix:
    """CircularSystem's kernel matrix of the input reduced mod n.

    Column j expresses column j of the system matrix through its k
    predecessor columns (the window right before j, cyclically); entry
    (j, j) is set to -1 mod n, so the matrix annihilates the system matrix
    column by column.  Entries outside the interval [j-k, j] stay zero, so
    row i is zero outside the window {i, ..., i+k}.  The construction is
    the circularity check: a non-circular matrix raises PreconditionError
    from the window that is not a unit.
    """
    if modulus < 2:
        raise PreconditionError("modulus must be at least 2")
    return CircularSystem(matrix.mod(modulus), modulus).kernel_matrix


@dataclass(frozen=True)
class CircularSystem:
    """Standard circular matrix together with its kernel matrix, mod n.

    Construction is the single validation point for a circular target and
    the one place a kernel is built: it checks the identity prefix and
    reduced entries, then builds the kernel, which raises unless every
    window is a unit.  Row i of the kernel is supported on the window
    {i, ..., i+k}, the coordinates colour i's edge reads.
    """

    matrix: IntMatrix
    modulus: int
    kernel_matrix: IntMatrix = field(init=False)

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
            raise PreconditionError("matrix is not in standard form")
        object.__setattr__(self, "kernel_matrix", _standard_kernel(self.matrix, n))

    @property
    def equations(self) -> int:
        return self.matrix.rows

    @property
    def variables(self) -> int:
        return self.matrix.cols


def _identity_form(system: RestrictedSystem) -> tuple[Extension, tuple[int, ...]]:
    """Extension of a homogeneous system onto (I_m | B) whose rows all
    have gcd 1, and the divisors taken out of those rows.

    full_extension calls it only for m - k >= 2 on an input that is not
    thin, so no row vanishes (see the comment there).
    """
    if not system.is_homogeneous():
        raise PreconditionError("identity-form step needs a homogeneous system")
    group = system.group
    k, m = system.equations, system.variables
    # the d_k gate on every path: the Smith form refuses a rank-deficient
    # A, and d = d_k has an inverse only when coprime to |G|
    snf, d = _full_rank_smith(system.matrix)
    d_inv = scalar_inverse(d, group)
    # complete_to_square's C (A over the last m - k rows of V^-1, the
    # first of those negated when det U det V = -1) has det C = d and
    # C^-1 = V diag(D^-1 U, I) with column k negated likewise, so columns
    # k.. of adj(C) = d C^-1, which solve A x = 0, are d V[:, k:] with the
    # first times det U det V
    sign = det(snf.U) * det(snf.V)
    slopes = [[d * v for v in (sign * row[k], *row[k + 1 :])] for row in snf.V.data]

    divisors = [math.gcd(*row) for row in slopes]
    if 0 in divisors:
        # a zero row pins its coordinate to zero in every solution
        raise InvariantError(f"identity form row {divisors.index(0)} vanished")

    reduced_rows = [
        [v // divisors[i] for v in slopes[i]] for i in range(m)
    ]
    target_matrix = IntMatrix(
        [
            [1 if c == i else 0 for c in range(m)] + reduced_rows[i]
            for i in range(m)
        ]
    )

    new_sets: list[tuple] = []
    value_maps: dict[int, dict] = {}
    for i in range(m):
        s = divisors[i]
        scaled_source = {group.scale(d, x) for x in system.restrictions[i]}
        # the preimages of distinct x are disjoint
        ys = tuple(
            sorted(y for x in scaled_source for y in scaling_preimage(s, x, group))
        )
        new_sets.append(ys)
        value_maps[i] = {
            y: group.scale(d_inv, group.scale(s, y)) for y in ys
        }
    new_sets.extend([group.elements()] * (m - k))

    zero_rhs = tuple(group.zero for _ in range(m))
    target = RestrictedSystem._built(group, target_matrix, zero_rhs, tuple(new_sets))
    ext = Extension(
        source=system,
        target=target,
        coord_map={i: i for i in range(m)},
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
        g = math.gcd(*row)
        if g != 1:
            raise PreconditionError(f"row {p} of the free block has gcd {g}, not 1")
        completed, _ = complete_to_square(IntMatrix([row]))
        blocks.append(n_good_padding(completed, modulus))

    stack = [list(rw) for rw in blocks[0].data]
    for blk in blocks[1:]:
        # leading identity of this block is the previous block's tail
        stack.extend(list(rw) for rw in blk.data[r:])
    tall = len(stack)
    if tall != 2 * k * r * r + r:
        raise InvariantError("stacked block count is off")

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

    zero_rhs = tuple(group.zero for _ in range(tall))
    target = RestrictedSystem._built(group, tmat, zero_rhs, tuple(new_sets))
    value_maps = {
        j: dict(zip(target.restrictions[j], target.restrictions[j]))
        for j in coord_map
    }
    return Extension(
        source=system,
        target=target,
        coord_map=coord_map,
        value_maps=value_maps,
    )


def _circular_order(matrix: IntMatrix, n: int, budget: int) -> list[int] | None:
    """The lexicographically first cyclic column order, starting at column
    0, in which every window of k consecutive columns is a unit mod n.

    None when no order has that property, or when the search tries more
    than ``budget`` columns.  A column whose entries share a factor with n
    vanishes mod a prime of n, so no window holding it is a unit: then
    there is no order, and no search is made.  For k = 1 every column is a
    window, so that test decides and the given order works.  For k >= 2 a
    depth-first search extends the order one column at a time and rejects
    a prefix as soon as a closed window fails; the wrapping windows are
    tested once the order is complete.  A window is tested by the mod-n
    elimination _standard_kernel solves with, once per column set, so a
    search makes at most C(m, k) eliminations.  A matrix that is circular
    as given keeps its order.
    """
    k, m = matrix.rows, matrix.cols
    data = matrix.data
    if any(math.gcd(n, *col) != 1 for col in zip(*data)):
        return None
    if k == 1:
        return list(range(m))
    known: dict[tuple[int, ...], bool] = {}

    def unit(window) -> bool:
        key = tuple(sorted(window))
        if key not in known:
            try:
                _eliminate_mod([[row[c] for c in key] for row in data], n)
                known[key] = True
            except PreconditionError:
                known[key] = False
        return known[key]

    order, used = [0], {0}
    # frontier[d]: the columns still to try at position d + 1
    frontier = [iter(range(1, m))]
    tried = 0
    while frontier:
        for c in frontier[-1]:
            if c in used:
                continue
            tried += 1
            if tried > budget:
                return None
            if len(order) + 1 >= k and not unit(order[len(order) + 1 - k :] + [c]):
                continue
            if len(order) + 1 < m:
                order.append(c)
                used.add(c)
                frontier.append(iter(range(1, m)))
                break
            full = order + [c]
            if all(
                unit([full[(s + t) % m] for t in range(k)])
                for s in range(m - k + 1, m)
            ):
                return full
        else:
            frontier.pop()
            used.discard(order.pop())
    return None


def _standard_extension(
    system: RestrictedSystem, order: list[int], modulus: int
) -> Extension:
    """Extension of a homogeneous system onto (I_k | B), its matrix with
    the columns in ``order`` row-reduced mod n.

    Target column t is source column order[t] with the same restriction
    set and identity value maps: row operations mod n by an invertible
    left block keep the solution set, since n kills every group element.
    The order must make the leading window a unit; CircularSystem checks
    the rest.
    """
    permuted = [[row[c] for c in order] for row in system.matrix.data]
    sets = tuple(system.restrictions[c] for c in order)
    target = RestrictedSystem._built(
        system.group, IntMatrix(_eliminate_mod(permuted, modulus)), system.rhs, sets
    )
    return Extension(
        source=system,
        target=target,
        coord_map=dict(enumerate(order)),
        value_maps={t: dict(zip(xs, xs)) for t, xs in enumerate(sets)},
    )


def _is_translation(ext: Extension) -> bool:
    """Whether ext translates its source by a solution t, read off its
    value maps: the target keeps the matrix and has a zero right-hand
    side, the value map at j is y -> y + t_j on Y_j, onto X_j with
    |Y_j| = |X_j|, and A t = b.  Then A y = 0 exactly when A (y + t) = b,
    so the value maps biject the solutions."""
    src, tgt = ext.source, ext.target
    group, m = src.group, src.variables
    if (tgt.group, tgt.matrix) != (group, src.matrix) or not tgt.is_homogeneous():
        return False
    if ext.coord_map != {j: j for j in range(m)}:
        return False
    shift = []
    for j, (xs, ys) in enumerate(zip(src.restrictions, tgt.restrictions)):
        vmap = ext.value_maps.get(j, {})
        if not ys or len(xs) != len(ys):
            return False
        if vmap.keys() != set(ys) or set(vmap.values()) != set(xs):
            return False
        # per cyclic factor, every value is its key plus t_j's residue
        t = []
        for keys, values, q in zip(zip(*vmap), zip(*vmap.values()), group.moduli):
            d = (values[0] - keys[0]) % q
            if [(a + d) % q for a in keys] != list(values):
                return False
            t.append(d)
        shift.append(tuple(t))
    rows = zip(src.matrix.data, src.rhs)
    return all(group.combine(row, shift) == b for row, b in rows)


def _is_row_reduction(ext: Extension) -> bool:
    """Whether ext's target is its homogeneous source with the columns in
    the order coord_map gives, times a matrix invertible mod n = |G| on
    the left: with A_P the permuted source matrix, L its leading k x k
    block and T the target matrix, gcd(det L, n) = 1 and L T = A_P mod n,
    the target's sets are the source's in that order, its right-hand side
    is zero and the value maps are the identity.  n kills G, so A_P y = 0
    exactly when T y = 0, and the identity maps biject the solutions."""
    src, tgt = ext.source, ext.target
    k, m, n = src.equations, src.variables, src.group.order
    order = [ext.coord_map.get(t) for t in range(m)]
    if sorted(ext.coord_map.values()) != list(range(m)) or None in order:
        return False
    if tgt.group != src.group or (tgt.equations, tgt.variables) != (k, m):
        return False
    if not (src.is_homogeneous() and tgt.is_homogeneous()):
        return False
    sets = tuple(src.restrictions[c] for c in order)
    if tgt.restrictions != sets:
        return False
    if any(ext.value_maps.get(t) != dict(zip(xs, xs)) for t, xs in enumerate(sets)):
        return False
    permuted = [[row[c] for c in order] for row in src.matrix.data]
    # _det_rows consumes the copies it is given
    if math.gcd(_det_rows([row[:k] for row in permuted]), n) != 1:
        return False
    # a column of T has k entries, so zip reads only row i of L
    columns = list(zip(*tgt.matrix.data))
    return all(
        sum(a * b for a, b in zip(row, col)) % n == want % n
        for row in permuted
        for col, want in zip(columns, row)
    )


@dataclass
class PipelineResult:
    """Outcome of the full reduction.

    outcome is "circular" (chain completed), "thin" (a pinned coordinate
    short-circuits everything), or "small-system" (at most one free column;
    the removal module handles these directly).  A circular outcome's chain
    is [translate, standard] when the input has a circular column order and
    [translate, identity form, circular] otherwise; the last target is the
    one ``circular`` holds.  verification is the check of the composed
    extension run once inside full_extension: its structure checks, and the
    bijection proven from the two links' linear data on the standard route,
    or else by projecting the final target's listing onto the input's; None
    unless the outcome is "circular".
    """

    outcome: str
    stages: list[dict]
    thin: ThinWitness | None
    chain: list[Extension]
    composed: Extension | None
    circular: CircularSystem | None
    verification: ExtensionReport | None = None


def _stage(name: str, system: RestrictedSystem, solutions: int, **extra) -> dict:
    """One pipeline stage record: the stage's system shape and solution
    count, plus its own keys (row_divisors, column_order, modulus)."""
    return {
        "stage": name,
        "equations": system.equations,
        "variables": system.variables,
        "solutions": solutions,
        **extra,
    }


def _check_reduction(
    composed: Extension, proven: bool, source_sols: list, budget: int
) -> tuple[int, ExtensionReport]:
    """The final target's solution count and the composed extension's
    verification.  A ``proven`` chain bijects the solutions by its
    construction, so the count is the input's and nothing is listed;
    otherwise the final target is listed within the budget and projected
    onto the input's solutions, so a problem names the first
    counterexample."""
    if proven:
        count = len(source_sols)
        return count, _verify_extension(composed, lambda: (count, count, None))
    target_sols = _walk(composed.target, budget, count=False)
    return len(target_sols), _verify_extension(
        composed, lambda: _projection(composed, source_sols, target_sols)
    )


def full_extension(
    system: RestrictedSystem, budget: int = DEFAULT_BUDGET
) -> PipelineResult:
    """Run translate, then standard or identity form -> circular form.

    After the translation, a search looks for a cyclic column order in
    which every k-window is a unit mod n (see _circular_order).  When one
    exists, the ``standard`` stage permutes the columns and row-reduces to
    a k x m target, and its record carries the ``column_order``.  Otherwise,
    or when the search uses up the budget, the identity form is padded by
    circularize into the paper's general target.

    The input is listed once, in the walk's own order, unsorted.  Its
    solutions serve its stage count, the thinness test and the translation
    witness (their least).  The translate link is proven from its value
    maps (_is_translation), so its count is the input's.  On the standard
    route the standard link is proven from its linear data too
    (_is_row_reduction), so the final count is the input's as well and no
    other system is listed.  The padded route, or a chain whose proof
    fails, lists the final target within the budget and projects it onto
    the input's solutions, so a failure names its first counterexample; a
    translate target whose proof fails is counted by ``count_solutions``,
    as the identity form always is, and all stage counts must agree.  The
    final system is built into a CircularSystem, whose kernel construction
    checks that the target is circular, and ``verification`` also holds
    the structure checks of the composed extension.
    """
    _require_coprime(system)
    n = system.group.order
    source_sols = _walk(system, budget, count=False)
    stages = [_stage("input", system, len(source_sols))]

    witness = _thin_witness(system, source_sols)
    if witness is not None:
        return PipelineResult("thin", stages, witness, [], None, None)

    translated = _homogenize(system, source_sols)
    shifted = _is_translation(translated)
    translated_count = (
        len(source_sols) if shifted else count_solutions(translated.target, budget)
    )
    stages.append(_stage("translate", translated.target, translated_count))

    if system.variables - system.equations <= 1:
        return PipelineResult(
            "small-system", stages, None, [translated], translated, None
        )

    order = _circular_order(translated.target.matrix, n, budget)
    if order is not None:
        last = _standard_extension(translated.target, order, n)
        chain = [translated, last]
        proven = shifted and _is_row_reduction(last)
        name, extra = "standard", {"column_order": order}
    else:
        # the m - k whole-group columns the identity form and the padded
        # target walk meet the budget before G is listed for them
        _check_budget(n ** (system.variables - system.equations), budget)
        # no identity-form row vanishes here: with gcd(d_k, |G|) = 1 a
        # coordinate such a row pins is constant across the input's
        # solutions, so the thinness test above has already returned
        step, divisors = _identity_form(translated.target)
        stages.append(
            _stage(
                "identity-form",
                step.target,
                count_solutions(step.target, budget),
                row_divisors=list(divisors),
            )
        )
        last = circularize(step.target, n)
        chain = [translated, step, last]
        proven = False
        name, extra = "circular", {}

    composed = functools.reduce(compose_extensions, chain)
    target_count, verification = _check_reduction(composed, proven, source_sols, budget)
    stages.append(_stage(name, last.target, target_count, modulus=n, **extra))

    counts = {st["solutions"] for st in stages}
    if len(counts) != 1:
        raise InvariantError(f"stage solution counts diverged: {counts}")
    circular = CircularSystem(last.target.matrix, n)
    return PipelineResult(
        "circular", stages, None, chain, composed, circular, verification
    )

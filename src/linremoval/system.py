"""Restricted linear systems over a finite abelian group, and extensions
between them.

A system is A x = b with each coordinate x_i confined to a finite restriction
set X_i.  An extension wraps a second system whose solutions biject with the
original's through per-coordinate value maps; the pipeline composes several
of these, so composition and the extension check live here too: its
structure checks, and the exhaustive projection that ``verify_extension``
runs and the pipeline falls back on where no certificate proves the
bijection.  The thinness test and the translation take the solution list
the pipeline has already listed, so neither lists a system again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, product, repeat
from operator import itemgetter

from .abelian import AbelianGroup, Element
from .errors import BudgetExceededError, InvariantError, PreconditionError
from .intmat import IntMatrix, smith_invariants_mod

DEFAULT_BUDGET = 10_000_000
# the solution walk cuts its free coordinates into levels whose set sizes
# multiply to at most this, a level of one larger set excepted (see _pivot_walk)
LEAF_BATCH = 4096

Solution = tuple[Element, ...]


@dataclass(frozen=True)
class RestrictedSystem:
    """A x = b over ``group``, each x_i confined to ``restrictions[i]``.

    ``coprime`` is read off the Smith form of A over Z/|G| on first
    access; a system never asked for it computes none.
    """

    group: AbelianGroup
    matrix: IntMatrix
    rhs: tuple[Element, ...]
    restrictions: tuple[tuple[Element, ...], ...]

    def __init__(self, group, matrix, rhs, restrictions):
        if matrix.rows > matrix.cols:
            raise PreconditionError("system needs at least as many columns as equations")
        if len(rhs) != matrix.rows:
            raise PreconditionError("right-hand side length does not match equation count")
        if len(restrictions) != matrix.cols:
            raise PreconditionError("restriction count does not match variable count")
        mods = group.moduli
        rank = len(mods)
        if {*map(len, chain(rhs, *restrictions))} != {rank}:
            bad = next(v for v in chain(rhs, *restrictions) if len(v) != rank)
            raise PreconditionError(
                f"element has {len(bad)} components, group has {rank}"
            )
        # per set, one comprehension per cyclic factor reduces that
        # factor's residues, and zip puts the elements back together
        clean_rhs, *clean_sets = [
            zip(*[[a % q for a in col] for col, q in zip(zip(*xs), mods)])
            for xs in (rhs, *restrictions)
        ]
        sets = tuple([tuple(sorted({*xs})) for xs in clean_sets])
        vars(self).update(
            group=group, matrix=matrix, rhs=tuple(clean_rhs), restrictions=sets
        )

    @classmethod
    def _built(cls, group, matrix, rhs, restrictions):
        """The system of parts already in the form ``__init__`` gives them,
        unchecked: the builders make them from valid systems, as tuples of
        reduced elements, each set sorted and without repeats."""
        self = object.__new__(cls)
        vars(self).update(group=group, matrix=matrix, rhs=rhs, restrictions=restrictions)
        return self

    @cached_property
    def coprime(self) -> bool:
        """Whether d_k is coprime to the group order, the paper's hypothesis:
        d_k is the product of the first k Smith invariants, so this holds
        exactly when all k of them are 1 over Z/|G|."""
        return all(
            s == 1 for s in smith_invariants_mod(self.matrix.data, self.group.order)
        )

    @property
    def equations(self) -> int:
        return self.matrix.rows

    @property
    def variables(self) -> int:
        return self.matrix.cols

    def is_homogeneous(self) -> bool:
        zero = self.group.zero
        return all(v == zero for v in self.rhs)


@dataclass(frozen=True)
class ThinWitness:
    """A coordinate pinned to a single value across all solutions.

    ``value`` is None exactly when the system has no solutions at all.
    """

    coordinate: int
    value: Element | None


@dataclass(frozen=True)
class Extension:
    """Target system whose solutions biject with the source's.

    The keys of ``coord_map`` are the target coordinates carrying source
    data (as many as the source has variables), and it sends each of them
    to its source coordinate; ``value_maps`` translates target restriction
    values back to source ones.  Unmapped target coordinates range over the
    whole group.
    """

    source: RestrictedSystem
    target: RestrictedSystem
    coord_map: dict[int, int]
    value_maps: dict[int, dict[Element, Element]]


def identity_extension(system: RestrictedSystem) -> Extension:
    coords = tuple(range(system.variables))
    return Extension(
        source=system,
        target=system,
        coord_map=dict(zip(coords, coords)),
        value_maps={j: dict(zip(xs, xs)) for j, xs in enumerate(system.restrictions)},
    )


def _unit_pivots(system: RestrictedSystem):
    """Row-reduce (A | b) modulo the group exponent e with unit pivots.

    Returns (pivots, rows, rhs) where rows x = rhs has the same solutions
    over the group as A x = b (every step is invertible mod e) and each
    pivot column is 1 on its own row and 0 elsewhere.  Each row pivots on
    its unit column with the largest restriction set, so that set is solved
    for, not walked; an identity left block is no exception, so a system
    (I | B) whose largest set lies in B walks its smaller sets instead.  A
    row with no unit entry left is a check row: its pivot is None, so it
    constrains the free coordinates alone.
    """
    m = system.variables
    rhs = [list(v) for v in system.rhs]
    e = system.group.exponent
    sets = system.restrictions
    # the columns in order of preference: largest set first, then lowest index
    preferred = sorted(range(m), key=lambda c: (-len(sets[c]), c))
    rows = [[v % e for v in row] for row in system.matrix.data]
    pivots: list[int | None] = []
    taken = set()
    for i, row in enumerate(rows):
        j = next(
            (c for c in preferred if c not in taken and math.gcd(row[c], e) == 1),
            None,
        )
        pivots.append(j)
        if j is None:
            continue
        taken.add(j)
        inv = pow(row[j], -1, e)
        if inv != 1:
            rows[i] = row = [v * inv % e for v in row]
            rhs[i] = [v * inv % e for v in rhs[i]]
        for r, other in enumerate(rows):
            f = other[j]
            if f and r != i:
                rows[r] = [(a - f * b) % e for a, b in zip(other, row)]
                rhs[r] = [(a - f * b) % e for a, b in zip(rhs[r], rhs[i])]
    return pivots, rows, rhs


def enumerate_solutions(
    system: RestrictedSystem, budget: int = DEFAULT_BUDGET
) -> list[Solution]:
    """All solutions in lexicographic order of the full coordinate vector.

    A is row-reduced modulo the group exponent onto unit pivot columns
    (see ``_unit_pivots``); only the other, free coordinates are walked, the
    pivots are solved for and rows without a unit pivot are checked (see
    ``_pivot_walk``).  The free coordinates are walked smallest set first,
    cut from the last one into levels whose sets multiply to at most
    ``LEAF_BATCH``, each level's combinations taken in one batch per node.
    The candidate count, the product of the walked sets, is compared
    against the budget before any work happens.
    """
    sols = _walk(system, budget, count=False)
    sols.sort()
    return sols


def count_solutions(system: RestrictedSystem, budget: int = DEFAULT_BUDGET) -> int:
    """The number of solutions: the walk of ``enumerate_solutions``, under
    the same budget pre-check, adding up the survivors of its last level
    instead of building and sorting their tuples."""
    return _walk(system, budget, count=True)


def _check_budget(candidates: int, budget: int, what: str = "candidates") -> None:
    """The budget pre-check: BudgetExceededError past the budget.  A count
    past Python's digit limit for a decimal string is given as a power of 2."""
    if candidates > budget:
        try:
            count = str(candidates)
        except ValueError:
            count = f"over 2^{candidates.bit_length() - 1}"
        raise BudgetExceededError(f"{count} {what} exceed the budget of {budget}")


def _require_coprime(system: RestrictedSystem) -> None:
    """The paper's hypothesis, checked where a command needs it:
    PreconditionError when d_k shares a factor with the group order."""
    if not system.coprime:
        raise PreconditionError(
            "determinantal divisor shares a factor with the group order"
        )


def _walk(system: RestrictedSystem, budget: int, count: bool):
    """The set-up and budget pre-check the listing and the count share,
    then their pivot walk."""
    sets = system.restrictions
    if any(len(xs) == 0 for xs in sets):
        return 0 if count else []
    pivots, rows, rhs = _unit_pivots(system)
    taken = set(pivots)
    free = sorted(
        (j for j in range(system.variables) if j not in taken),
        key=lambda j: len(sets[j]),
    )
    _check_budget(math.prod(len(sets[j]) for j in free), budget)
    return _pivot_walk(system.group, sets, pivots, rows, rhs, free, count)


def _pivot_walk(group, sets, pivots, rows, rhs, free, count):
    """Solutions of rows x = rhs, whose pivot columns are the identity, in
    no particular order, or with ``count`` only their number.  A row whose
    pivot is None is a check row, tested like a restricted pivot row whose
    set is {0}.

    One depth-first walk over the free coordinates, in the order given,
    carries per pivot row and cyclic factor the partial sum
    rhs_i - sum a_ij x_j of the free coordinates set so far, as plain
    integers reduced only inside a test and when a solution is emitted.
    The free coordinates are cut into levels from the last one: each level
    is the longest run whose set sizes multiply to at most ``LEAF_BATCH``,
    and holds at least one coordinate.  Per level and row, the sums c_i . v
    of the level's values are formed once, before the walk, for every
    combination in product order, and a listing takes the level's value
    columns.  Every node has one body: one comprehension per row and factor
    gives that row's value for every combination still standing, and each
    restricted pivot row or check row that falls due in the level keeps
    those whose value lies in its set.  An inner level pushes each
    survivor's partial sums; the last level adds up its survivors, or zips
    their solutions from their coordinates' columns, each tuple built once.
    """
    mods, order = group.moduli, group.order
    r = len(mods)
    k = len(pivots)
    # the walk starts at a virtual coordinate with a zero column and the
    # one value zero: rows that no free coordinate touches fall due there
    cols = [[0] * k] + [[row[j] for row in rows] for j in free]
    walked = [(group.zero,)] + [sets[j] for j in free]
    # the level cuts, found from the back; the virtual coordinate joins the
    # first level whatever its size
    cuts = [len(walked)]
    while cuts[-1]:
        start = cuts[-1] - 1
        size = len(walked[start])
        while start and (start == 1 or size * len(walked[start - 1]) <= LEAF_BATCH):
            start -= 1
            size *= len(walked[start])
        cuts.append(start)
    cuts.reverse()
    level_of = [lv for lv, (lo, hi) in enumerate(zip(cuts, cuts[1:])) for _ in range(lo, hi)]
    last = len(cuts) - 2
    # the level each restricted row falls due in, the one holding the last
    # coordinate that touches it, and the last level reading each row: a
    # listing reads every row at the last level
    checks: list[list] = [[] for _ in range(last + 1)]
    read = [-1 if count else last] * k
    for i, p in enumerate(pivots):
        if p is None or len(sets[p]) < order:
            at = level_of[max((d for d in range(len(walked)) if cols[d][i]), default=0)]
            checks[at].append((i, frozenset([group.zero] if p is None else sets[p])))
            read[i] = max(read[i], at)

    def sums(i, f, ws):
        """Factor f of c_i . v for every combination v of the coordinates ws."""
        cur = [0]
        for w in ws:
            c = cols[w][i]
            ps = [c * v[f] for v in walked[w]]
            cur = [x + p for x in cur for p in ps]
        return cur

    levels = []
    for lv, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        ws = range(lo, hi)
        zeros = [0] * math.prod(len(walked[w]) for w in ws)
        # one table per row and factor, lane i * r + f; a row the level
        # does not touch, or that no level from here on reads, gets zeros,
        # so its partial sum stays as it is or is never read again
        tables = [
            sums(i, f, ws) if lv <= read[i] and any(cols[w][i] for w in ws) else zeros
            for i in range(k)
            for f in range(r)
        ]
        # a listing's value columns, the virtual coordinate's left out
        columns = [] if count else list(zip(*product(*walked[max(lo, 1) : hi])))
        levels.append((len(zeros), checks[lv], tables, columns))

    def row_values(i, acc, tables, idx):
        """Row i's value for each of the level's combinations in idx."""
        lanes = slice(i * r, i * r + r)
        here = zip(acc[lanes], tables[lanes], mods)
        if len(idx) == len(tables[i * r]):
            return zip(*[[(h - p) % q for p in ps] for h, ps, q in here])
        return zip(*[[(h - ps[t]) % q for t in idx] for h, ps, q in here])

    # a solution's columns come as the pivot rows', the free values of the
    # levels above the last, then the last level's; place lists them in
    # coordinate order
    out_rows = [i for i, p in enumerate(pivots) if p is not None]
    slot = {pivots[i]: s for s, i in enumerate(out_rows)}
    slot.update((j, len(out_rows) + d) for d, j in enumerate(free))
    place = [slot[j] for j in range(len(sets))]
    sols: list[Solution] = []
    total = 0
    stack = [(0, [v[f] for v in rhs for f in range(r)], ())]
    while stack:
        lv, acc, prefix = stack.pop()
        size, due, tables, columns = levels[lv]
        # idx: the level's combinations whose rows due in it lie in their sets
        idx = range(size)
        for i, members in due:
            values = row_values(i, acc, tables, idx)
            idx = list(compress(idx, map(members.__contains__, values)))
            if not idx:
                break
        else:
            if lv < last:
                for t in idx:
                    step = [a - ps[t] for a, ps in zip(acc, tables)]
                    stack.append((lv + 1, step, prefix + tuple([c[t] for c in columns])))
            elif count:
                total += len(idx)
            else:
                n = len(idx)
                out = [row_values(i, acc, tables, idx) for i in out_rows]
                out += [repeat(v, n) for v in prefix]
                if n == size:
                    out += columns
                else:
                    out += [[c[t] for t in idx] for c in columns]
                sols.extend(zip(*[out[s] for s in place]))
    return total if count else sols


def _thin_witness(
    system: RestrictedSystem, sols: list[Solution]
) -> ThinWitness | None:
    """A coordinate constant across the given solutions, in any order, if
    any.

    Systems with at most one solution are thin by convention: the witness
    names the first coordinate, with a None value when no solution exists.
    """
    if not sols:
        return ThinWitness(coordinate=0, value=None)
    for j in range(system.variables):
        first = sols[0][j]
        if all(x[j] == first for x in sols):
            return ThinWitness(coordinate=j, value=first)
    return None


def _homogenize(system: RestrictedSystem, sols: list[Solution]) -> Extension:
    """Translate by the least of the given solutions, which may come in any
    order, so the right-hand side becomes zero: each restriction set shifts
    by its coordinate and the value maps undo the shift.  A homogeneous
    system gets the identity extension, whose target is the system itself.
    Raises PreconditionError when there is nothing to translate by."""
    if system.is_homogeneous():
        return identity_extension(system)
    if not sols:
        raise PreconditionError("system has no solutions")
    witness = min(sols)
    group = system.group
    zero_rhs = tuple(group.zero for _ in range(system.equations))
    coords = tuple(range(system.variables))
    # per set, one comprehension per cyclic factor shifts that factor's
    # residues, and zip puts the shifted elements back together as the
    # keys of the set's value map
    value_maps = {}
    for j, (xs, w) in enumerate(zip(system.restrictions, witness)):
        factors = zip(zip(*xs), w, group.moduli)
        shifted = [[(a - t) % q for a in col] for col, t, q in factors]
        value_maps[j] = dict(zip(zip(*shifted), xs))
    sets = tuple([tuple(sorted(value_maps[j])) for j in coords])
    target = RestrictedSystem._built(group, system.matrix, zero_rhs, sets)
    return Extension(
        source=system,
        target=target,
        coord_map=dict(zip(coords, coords)),
        value_maps=value_maps,
    )


@dataclass
class ExtensionReport:
    ok: bool
    dimension_ok: bool
    full_group_ok: bool
    structure_ok: bool
    bijection_ok: bool
    source_count: int
    target_count: int
    problems: list[str]


def verify_extension(
    ext: Extension, budget: int = DEFAULT_BUDGET
) -> ExtensionReport:
    """Check the extension conditions exhaustively: the oracle for the
    check ``full_extension`` runs, which on the standard route proves the
    bijection from the links' linear data instead of listing the target.

    Dimensions must grow while preserving the column surplus, unmapped target
    coordinates must range over the whole group, the structural maps must be
    well formed, and projecting the target solutions must hit the source
    solutions bijectively.  Any violation lands in ``problems`` with a
    counterexample where one exists.  Both sides are listed unsorted (see
    ``_projection``).
    """
    return _verify_extension(
        ext,
        lambda: _projection(
            ext,
            _walk(ext.source, budget, count=False),
            _walk(ext.target, budget, count=False),
        ),
    )


def _verify_extension(ext: Extension, bijection) -> ExtensionReport:
    """verify_extension, with the bijection settled by ``bijection()``: the
    source and target solution counts and a problem, None when the
    solutions biject.  ``bijection`` is called only once the structure is
    well formed, so a malformed extension is never enumerated."""
    problems: list[str] = []
    src, tgt = ext.source, ext.target

    dimension_ok = (
        tgt.equations >= src.equations
        and tgt.variables >= src.variables
        and tgt.variables - tgt.equations == src.variables - src.equations
    )
    if not dimension_ok:
        problems.append(
            f"dimensions ({src.equations},{src.variables}) -> "
            f"({tgt.equations},{tgt.variables}) break the offset rule"
        )

    # a restriction set is reduced and deduplicated, so it is all of G
    # exactly when it has |G| elements: G itself is never listed
    order = tgt.group.order
    full_group_ok = True
    for j in range(tgt.variables):
        if j not in ext.coord_map and len(tgt.restrictions[j]) != order:
            full_group_ok = False
            problems.append(f"unmapped coordinate {j} is restricted")

    # a bijection onto the source coordinates also fixes how many are mapped
    structure_ok = True
    if sorted(ext.coord_map.values()) != list(range(src.variables)):
        structure_ok = False
        problems.append("coordinate map is not a bijection onto the source coordinates")
    for j in sorted(ext.coord_map):
        s = ext.coord_map[j]
        if not (0 <= j < tgt.variables and 0 <= s < src.variables):
            structure_ok = False
            problems.append(f"coordinate map sends {j} to {s}, out of range")
            continue
        vmap = ext.value_maps.get(j)
        if vmap is None or vmap.keys() != set(tgt.restrictions[j]):
            structure_ok = False
            problems.append(f"value map at {j} does not cover its restriction set")
            continue
        if not set(src.restrictions[s]).issuperset(vmap.values()):
            structure_ok = False
            problems.append(f"value map at {j} leaves the source restriction set")

    bijection_ok = False
    source_count = target_count = -1
    if structure_ok:
        source_count, target_count, problem = bijection()
        bijection_ok = problem is None
        if not bijection_ok:
            problems.append(problem)

    return ExtensionReport(
        ok=dimension_ok and full_group_ok and structure_ok and bijection_ok,
        dimension_ok=dimension_ok,
        full_group_ok=full_group_ok,
        structure_ok=structure_ok,
        bijection_ok=bijection_ok,
        source_count=source_count,
        target_count=target_count,
        problems=problems,
    )


def _projection(ext: Extension, ssols, tsols) -> tuple[int, int, str | None]:
    """The exhaustive bijection check of a well-formed extension on source
    and target solution lists in any order: the two counts, and the
    problem, None when the projection is a bijection.

    The target listing is projected one column per source slot, and the
    image set is compared with the source set; only a projection that is
    not a bijection sorts the target listing, so its problem names the
    first counterexample in lexicographic order."""
    # the structure checks make coord_map a bijection onto the source
    # coordinates, so each source slot has one target column and value
    # map, and a projection needs no coverage check; only the mapped
    # target columns are read
    slots = [
        map(ext.value_maps[j].__getitem__, map(itemgetter(j), tsols))
        for _, j in sorted((s, j) for j, s in ext.coord_map.items())
    ]
    images = list(zip(*slots))
    sset, image_set = set(ssols), set(images)
    problem = None
    if image_set != sset or len(image_set) != len(images):
        problem = _bijection_problem(sorted(zip(tsols, images)), sset)
    return len(ssols), len(tsols), problem


def _bijection_problem(pairs, sset) -> str:
    """The first failure of a projection that is not a bijection onto the
    source solutions ``sset``, over its (target solution, image) pairs in
    target order: an image that is no solution, else two targets with one
    image, else the least source solution without a preimage."""
    for y, x in pairs:
        if x not in sset:
            return f"target solution {y} projects to non-solution {x}"
    seen: dict[Solution, Solution] = {}
    for y, x in pairs:
        if x in seen:
            return f"target solutions {seen[x]} and {y} collide on {x}"
        seen[x] = y
    missing = min(sset.difference(seen))
    return f"source solution {missing} has no preimage"


def compose_extensions(first: Extension, second: Extension) -> Extension:
    """Compose source -> mid -> far into a single source -> far extension."""
    if second.source != first.target:
        raise PreconditionError("extensions do not chain: middle systems differ")
    coord_map = {
        j: first.coord_map[mid]
        for j, mid in second.coord_map.items()
        if mid in first.coord_map
    }
    value_maps = {}
    for j in coord_map:
        vmap = second.value_maps[j]
        outer = first.value_maps[second.coord_map[j]].__getitem__
        value_maps[j] = dict(zip(vmap.keys(), map(outer, vmap.values())))
    return Extension(
        source=first.source,
        target=second.target,
        coord_map=coord_map,
        value_maps=value_maps,
    )


def remove_elements(
    system: RestrictedSystem, removed
) -> RestrictedSystem:
    """Copy of the system with the given per-coordinate values deleted."""
    if len(removed) != system.variables:
        raise PreconditionError("removal sets do not match the variable count")
    new_sets = []
    for xs, gone in zip(system.restrictions, removed):
        dropped = {system.group.reduce(v) for v in gone}
        new_sets.append(tuple([v for v in xs if v not in dropped]))
    return RestrictedSystem._built(system.group, system.matrix, system.rhs, tuple(new_sets))


def pull_back_removal(
    ext: Extension, removed, budget: int = DEFAULT_BUDGET
) -> tuple[tuple[Element, ...], ...]:
    """Translate a removal on the target into one on the source.

    Only mapped coordinates may carry removals.  When the target minus its
    removal is solution free, the same is re-checked on the source; a
    violation would mean the extension was not a bijection, so it raises.
    """
    if len(removed) != ext.target.variables:
        raise PreconditionError("removal sets do not match the target variable count")
    out: list[set[Element]] = [set() for _ in range(ext.source.variables)]
    for j, gone in enumerate(removed):
        if not gone:
            continue
        if j not in ext.coord_map:
            raise PreconditionError(
                f"coordinate {j} is outside the mapped set but carries removals"
            )
        vmap = ext.value_maps[j]
        for v in gone:
            key = ext.target.group.reduce(v)
            if key not in vmap:
                raise PreconditionError(
                    f"removed value {v} at coordinate {j} is outside the restriction set"
                )
            out[ext.coord_map[j]].add(vmap[key])
    result = tuple(tuple(sorted(s)) for s in out)
    if count_solutions(remove_elements(ext.target, removed), budget) == 0:
        if count_solutions(remove_elements(ext.source, result), budget) != 0:
            raise InvariantError(
                "pulled-back removal left source solutions alive; extension is broken"
            )
    return result

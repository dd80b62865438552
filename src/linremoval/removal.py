"""Minimum removal sets: destroy every solution by deleting few elements.

A removal deletes values from restriction sets.  Each solution dies when
any one of its coordinate values is deleted, so minimum removal is exact
hitting set over the solution list, with atoms (coordinate, value).
Protected coordinates contribute no atoms.  The exact solver and its
greedy companion both work on the system as given, and on one form of
the instance (``_instance``), each solution's atoms: greedy keeps a live
count per atom from it, and the exact solver builds one bitmask per atom,
the solutions it kills.  The exact solver first brackets the minimum at
the root: deleting every value of the first free coordinate is a
removal, and when a lower bound reaches its size no search runs.  The
`remove` command calls both solvers on the input system.  Pulling a removal back from a pipeline target
(``system.pull_back_removal``) is sound but can cost more than the source
minimum, so it stays a library demonstration of the transfer argument,
not a solving route.  Neither solver re-enumerates the system after its
removal: a set that hits every solution's atoms leaves none alive by
construction, and the `remove` command's reported post-removal count is
the one check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .abelian import Element
from .errors import BudgetExceededError, InfeasibleRemovalError, PreconditionError
from .system import DEFAULT_BUDGET, RestrictedSystem, enumerate_solutions

Atom = tuple[int, Element]


@dataclass(frozen=True)
class RemovalSolution:
    """Per-coordinate removal sets plus the certificate.

    optimal is True only when the total is a proven minimum;
    lower_bound then records the root relaxation value the proof
    started from.
    """

    removed: tuple[tuple[Element, ...], ...]
    total_size: int
    optimal: bool
    lower_bound: int | None


def _pack(removed_atoms, variables) -> tuple[tuple[Element, ...], ...]:
    sets: list[list[Element]] = [[] for _ in range(variables)]
    for j, v in removed_atoms:
        sets[j].append(v)
    return tuple(tuple(sorted(s)) for s in sets)


def _instance(system: RestrictedSystem, protected, budget: int):
    """The removal instance: the sorted atoms and own[s], the atom indices
    of solution s, ascending.  Protected coordinates give no atoms, so a
    solution with every coordinate protected is infeasible.

    The instance is read off the solutions' columns: a free coordinate's
    atoms are the sorted values of its column, and own is the zip of the
    columns mapped to atom indices."""
    guard = frozenset(protected)
    for j in guard:
        if not 0 <= j < system.variables:
            raise PreconditionError(f"protected coordinate {j} out of range")
    free = [j for j in range(system.variables) if j not in guard]
    solutions = enumerate_solutions(system, budget)
    if not solutions:
        return [], []
    if not free:
        raise InfeasibleRemovalError(
            f"solution {solutions[0]} has every coordinate protected"
        )
    columns = list(zip(*solutions))
    atoms_sorted: list[Atom] = []
    indexed = []
    for j in free:
        values = sorted({*columns[j]})
        start = len(atoms_sorted)
        atoms_sorted.extend(zip(repeat(j), values))
        index = dict(zip(values, range(start, len(atoms_sorted))))
        indexed.append(map(index.__getitem__, columns[j]))
    return atoms_sorted, list(zip(*indexed))


def _tables(own, atoms: int) -> list[int]:
    """The exact solver's bit table, bit s for solution s: hits[i], the
    solutions atom i kills.  The bits are set in one bytearray, ``width``
    bytes per atom, and each mask is read off its row once: ORing in one
    bit at a time would copy the growing int each time."""
    width = (len(own) >> 3) + 1
    rows = bytearray(atoms * width)
    for s, ids in enumerate(own):
        byte, bit = s >> 3, 1 << (s & 7)
        for i in ids:
            rows[i * width + byte] |= bit
    return [int.from_bytes(rows[o : o + width], "little") for o in range(0, len(rows), width)]


def _disjoint_bound(hits, own, uncovered: int, cap: int) -> int:
    """Greedy pairwise-atom-disjoint packing of the uncovered solutions,
    taken in index order and stopped once it reaches the cap; its size is
    a lower bound on any hitting set.
    """
    bound = 0
    while uncovered and bound < cap:
        for i in own[(uncovered & -uncovered).bit_length() - 1]:
            # clears the bits of hits[i] without & ~, whose negative int is slower
            uncovered = (uncovered | hits[i]) ^ hits[i]
        bound += 1
    return bound


class _Nodes:
    """The cover-search nodes of one solve, counted against its budget."""

    __slots__ = ("budget", "used")

    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0


def _cover_exists(hits, own, uncovered: int, lo: int, room: int, nodes: _Nodes) -> bool:
    """Whether at most ``room`` atoms of index ``lo`` or more cover the
    solutions in ``uncovered``.

    Depth-first on an explicit stack, branching on the atoms of the first
    uncovered solution, lowest first; cut by room, by the packing bound
    and by sets this call has already searched with as much room.  Every
    state that passes the memo is a node: it takes one packing bound and
    one memo entry, and it raises BudgetExceededError once the solve's
    nodes pass the budget.  Nothing is kept from one call to the next.
    """
    seen: dict[int, int] = {}
    stack = [(uncovered, room)]
    while stack:
        u, r = stack.pop()
        if not u:
            return True
        if r == 0 or seen.get(u, -1) >= r:
            continue
        nodes.used += 1
        if nodes.used > nodes.budget:
            raise BudgetExceededError(
                f"{nodes.used} cover-search nodes exceed the budget of {nodes.budget}"
            )
        seen[u] = r
        if _disjoint_bound(hits, own, u, r + 1) > r:
            continue
        pivot = (u & -u).bit_length() - 1
        # pushed highest first, so the lowest atom pops first
        for i in reversed(own[pivot]):
            if i >= lo:
                stack.append((u & ~hits[i], r - 1))
    return False


def min_removal_exact(
    system: RestrictedSystem,
    protected=(),
    budget: int = DEFAULT_BUDGET,
) -> RemovalSolution:
    """Provably minimum removal, by search over the solution list.

    The witness reported is the lexicographically first minimum atom
    set, so reruns are reproducible.  The root brackets the minimum: the
    t atoms of the first free coordinate, atoms 0 to t-1, form a removal,
    and the disjoint-packing bound and the degree bound, S solutions over
    the largest atom degree rounded up, are lower bounds.  When either
    reaches t, those atoms are the answer, as the least index list of
    its size.  Otherwise the size is the first one, counting up from the
    packing bound, at which a cover exists, and the witness is built atom
    by atom, the least one that still leaves a cover of the size among
    the later atoms.  The budget bounds the solution walk and,
    separately, the cover-search nodes of the whole solve.  lower_bound
    is the packing bound in either case.
    """
    atoms_sorted, own = _instance(system, protected, budget)
    hits = _tables(own, len(atoms_sorted))
    everything = (1 << len(own)) - 1
    root_bound = _disjoint_bound(hits, own, everything, len(own))
    t = 1 + max((ids[0] for ids in own), default=-1)
    degree_bound = -(-len(own) // max(map(int.bit_count, hits), default=1))
    if max(root_bound, degree_bound) >= t:
        removed = _pack(atoms_sorted[:t], system.variables)
        return RemovalSolution(removed, t, True, root_bound)

    nodes = _Nodes(budget)
    best = root_bound
    while not _cover_exists(hits, own, everything, 0, best, nodes):
        best += 1

    witness: list[int] = []
    uncovered, start = everything, 0
    while uncovered:
        room = best - len(witness) - 1
        atom = next(
            i for i in range(start, len(hits))
            if uncovered & hits[i]
            and _cover_exists(hits, own, uncovered & ~hits[i], i + 1, room, nodes)
        )
        witness.append(atom)
        uncovered &= ~hits[atom]
        start = atom + 1

    removed = _pack([atoms_sorted[i] for i in witness], system.variables)
    return RemovalSolution(removed, best, True, root_bound)


def greedy_removal(
    system: RestrictedSystem,
    protected=(),
    budget: int = DEFAULT_BUDGET,
) -> RemovalSolution:
    """Most-first greedy removal; feasible whenever the exact solver is.

    Each round takes the atom that kills the most solutions still alive;
    a tie goes to the first atom in order, the lowest coordinate and then
    the lowest value.  counts[i], the live solutions atom i kills, is kept
    as it goes: a solution that dies takes one off each of its atoms.
    """
    atoms_sorted, own = _instance(system, protected, budget)
    counts = [0] * len(atoms_sorted)
    kills: list[list[int]] = [[] for _ in atoms_sorted]
    for s, ids in enumerate(own):
        for i in ids:
            counts[i] += 1
            kills[i].append(s)
    alive = [True] * len(own)
    left = len(own)
    chosen: list[Atom] = []
    while left:
        best = counts.index(max(counts))
        chosen.append(atoms_sorted[best])
        for s in kills[best]:
            if alive[s]:
                alive[s] = False
                left -= 1
                for i in own[s]:
                    counts[i] -= 1
    return RemovalSolution(_pack(chosen, system.variables), len(chosen), False, None)

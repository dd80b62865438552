"""Minimum removal sets: destroy every solution by deleting few elements.

A removal deletes values from restriction sets.  Each solution dies when
any one of its coordinate values is deleted, so minimum removal is exact
hitting set over the solution list, with atoms (coordinate, value).
Protected coordinates contribute no atoms.  The exact solver and its
greedy companion both work on the system as given, and on one form of
the instance (``_instance``), each solution's atoms: greedy keeps a live
count per atom from it, and the exact solver builds its bitmask tables
for the search.  The `remove` command calls them on the input
system.  Pulling a removal back from a pipeline target
(``system.pull_back_removal``) is sound but can cost more than the source
minimum, so it stays a library demonstration of the transfer argument,
not a solving route.  Neither solver re-enumerates the system after its
removal: a set that hits every solution's atoms leaves none alive by
construction, and the `remove` command's reported post-removal count is
the one check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import or_

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


def _tables(own, atoms: int) -> tuple[list[int], list[int]]:
    """The exact solver's bit tables, bit s for solution s.  hits[i]: the
    solutions atom i kills; stranded[i]: those whose every atom comes
    before atom i.  The bits of hits are set in one bytearray, ``width``
    bytes per atom, and each mask is read off its row once: ORing in one
    bit at a time would copy the growing int each time.  A solution's
    last atom is its atom on the last free coordinate, whose atoms come
    last, from ``start`` on, so stranded[i] is the union of hits[start:i]."""
    width = (len(own) >> 3) + 1
    rows = bytearray(atoms * width)
    for s, ids in enumerate(own):
        byte, bit = s >> 3, 1 << (s & 7)
        for i in ids:
            rows[i * width + byte] |= bit
    hits = [int.from_bytes(rows[o : o + width], "little") for o in range(0, len(rows), width)]
    start = min((ids[-1] for ids in own), default=0)
    return hits, [0] * (start + 1) + list(accumulate(hits[start:], or_))


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


def _cover_exists(
    masks, uncovered: int, lo: int, room: int, failed, nodes: _Nodes
) -> bool:
    """Whether at most ``room`` atoms of index ``lo`` or more cover the
    solutions in ``uncovered``.

    Depth-first on an explicit stack, branching on the atoms of the first
    uncovered solution, lowest first; cut by stranded solutions, the
    packing bound and sets already searched with as much room.  A search
    that fails records its states in ``failed`` for later calls to skip.
    Every state that passes those memo cuts is a node: it takes one
    packing bound and one memo entry, and it raises BudgetExceededError
    once the solve's nodes pass the budget, so the memo stays within the
    budget too.
    """
    hits, own, stranded = masks
    seen: dict[int, int] = {}
    stack = [(uncovered, room)]
    while stack:
        u, r = stack.pop()
        if not u:
            return True
        if r == 0 or u & stranded[lo]:
            continue
        if seen.get(u, -1) >= r or failed.get((u, lo), -1) >= r:
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
    for u, r in seen.items():
        failed[(u, lo)] = max(failed.get((u, lo), -1), r)
    return False


def min_removal_exact(
    system: RestrictedSystem,
    protected=(),
    budget: int = DEFAULT_BUDGET,
) -> RemovalSolution:
    """Provably minimum removal, by search over the solution list.

    The size is the first one, counting up from the disjoint-packing
    bound, at which a cover exists.  The witness reported is the
    lexicographically first atom set of that size: atom by atom, the
    least one that still leaves a cover of the size among the later
    atoms.  So reruns are reproducible.  The budget bounds the solution
    walk and, separately, the cover-search nodes of the whole solve.
    """
    atoms_sorted, own = _instance(system, protected, budget)
    hits, stranded = _tables(own, len(atoms_sorted))
    masks = (hits, own, stranded)
    everything = (1 << len(own)) - 1

    root_bound = _disjoint_bound(hits, own, everything, len(own))
    failed: dict[tuple[int, int], int] = {}
    nodes = _Nodes(budget)
    best = root_bound
    while not _cover_exists(masks, everything, 0, best, failed, nodes):
        best += 1

    witness: list[int] = []
    uncovered, start = everything, 0
    while uncovered:
        room = best - len(witness) - 1
        atom = next(
            i for i in range(start, len(hits))
            if uncovered & hits[i]
            and _cover_exists(masks, uncovered & ~hits[i], i + 1, room, failed, nodes)
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

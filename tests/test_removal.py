"""Minimum removal sets: exact solver against subset brute force."""

import itertools
import random
from dataclasses import astuple

import pytest
from hypothesis import given, seed, settings, strategies as st

from linremoval import (
    AbelianGroup,
    BudgetExceededError,
    InfeasibleRemovalError,
    IntMatrix,
    PreconditionError,
    RemovalSolution,
    RestrictedSystem,
    count_solutions,
    enumerate_solutions,
    greedy_removal,
    min_removal_exact,
    remove_elements,
)
from linremoval import removal
from linremoval.removal import _instance, _tables


def z(n):
    return AbelianGroup([n])


def full_sets(group, m):
    return tuple(group.elements() for _ in range(m))


def brute_first_cover(system, protected=()):
    # oracle: the first covering atom set in (size, lexicographic) order
    shielded = set(protected)
    sols = enumerate_solutions(system)
    atoms = sorted(
        {(i, x[i]) for x in sols for i in range(len(x)) if i not in shielded}
    )
    for size in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, size):
            chosen = set(combo)
            if all(
                any(
                    (i, x[i]) in chosen
                    for i in range(len(x))
                    if i not in shielded
                )
                for x in sols
            ):
                return combo
    return None


def brute_min_size(system, protected=()):
    first = brute_first_cover(system, protected)
    return None if first is None else len(first)


def packing_bound(system, protected=()):
    # oracle: greedy atom-disjoint packing of the solutions in their order
    used, bound = set(), 0
    for x in enumerate_solutions(system):
        atoms = {(i, x[i]) for i in range(len(x)) if i not in protected}
        if not atoms & used:
            used |= atoms
            bound += 1
    return bound


def removal_kills(system, removed):
    return count_solutions(remove_elements(system, removed)) == 0


# -------------------------------------------------------------- exact route


def test_exact_frozen_circulant():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    res = min_removal_exact(sys_)
    assert res.total_size == 5
    assert res.optimal
    assert res.lower_bound == 5
    # canonical witness: wipe the first coordinate
    assert res.removed == ((((0,), (1,), (2,), (3,), (4,))), (), ())
    assert removal_kills(sys_, res.removed)


def test_exact_matches_oracle_pair_system():
    g = z(4)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    res = min_removal_exact(sys_)
    assert res.total_size == brute_min_size(sys_) == 4
    assert removal_kills(sys_, res.removed)


def test_exact_matches_oracle_restricted():
    g = z(4)
    sys_ = RestrictedSystem(
        g, IntMatrix([[1, 1]]), ((0,),), (((0,), (1,)), g.elements())
    )
    assert count_solutions(sys_) == 2
    res = min_removal_exact(sys_)
    assert res.total_size == brute_min_size(sys_) == 2
    assert removal_kills(sys_, res.removed)


def test_exact_solution_free_input():
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((1,),), (((0,),), ((0,),)))
    res = min_removal_exact(sys_)
    assert res.total_size == 0
    assert res.optimal
    assert res.lower_bound == 0
    assert res.removed == ((), ())


def test_solution_free_input_needs_no_removal():
    # no solution, no atom: both solvers return the empty removal, also
    # with every coordinate protected
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((1,),), (((0,),), ((0,),)))
    assert astuple(greedy_removal(sys_)) == (((), ()), 0, False, None)
    shielded = (0, 1)
    assert astuple(greedy_removal(sys_, shielded)) == (((), ()), 0, False, None)
    assert astuple(min_removal_exact(sys_, shielded)) == (((), ()), 0, True, 0)


def test_exact_with_protection():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    res = min_removal_exact(sys_, protected=(0,))
    assert res.total_size == 5
    assert res.optimal
    assert res.removed[0] == ()
    assert removal_kills(sys_, res.removed)
    assert res.total_size == brute_min_size(sys_, protected=(0,))


def test_exact_protection_infeasible():
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    with pytest.raises(InfeasibleRemovalError):
        min_removal_exact(sys_, protected=(0, 1))


def test_exact_protection_out_of_range():
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    with pytest.raises(PreconditionError):
        min_removal_exact(sys_, protected=(2,))
    with pytest.raises(PreconditionError):
        min_removal_exact(sys_, protected=(-1,))


def test_exact_deep_search_is_iterative():
    # 2,018 solutions; the witness search walks one level per atom, more
    # than a thousand levels deep, past the interpreter's recursion limit
    g = z(1009)
    sets = (g.elements(), ((0,), (1,)), g.elements())
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), sets)
    assert count_solutions(sys_) == 2018
    res = min_removal_exact(sys_)
    assert res.total_size == 2
    assert res.optimal
    assert res.removed == ((), ((0,), (1,)), ())


def test_exact_budget():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    with pytest.raises(BudgetExceededError):
        min_removal_exact(sys_, budget=10)


def test_exact_root_bracket_answers_without_a_search(count_calls):
    # x1 + x2 - 2 x3 = 0 over Z41 with full sets: 1,681 solutions, each
    # atom kills 41, so the degree bound 41 meets the 41 atoms of x1 and
    # no cover search runs; the witness is those atoms, the least list
    searches = count_calls(removal, "_cover_exists", lambda *args: None)
    g = z(41)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, -2]]), ((0,),), full_sets(g, 3))
    res = min_removal_exact(sys_, budget=5_000)
    assert (res.total_size, res.optimal, res.lower_bound) == (41, True, 41)
    assert res.removed == (g.elements(), (), ())
    assert searches == []


def test_exact_witness_search_tries_the_lowest_atom_first():
    # x1 + x2 - 2 x3 = 0 over Z41, each set a seeded sample of 20 values:
    # the packing bound 17 and the degree bound stay below the 20 atoms of
    # x1, so the search runs; trying each solution's lowest atom first, it
    # takes 1,047 nodes in all, and highest first it took 4,301
    rng = random.Random(2)
    g = z(41)
    sets = tuple(tuple((v,) for v in sorted(rng.sample(range(41), 20))) for _ in range(3))
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, -2]]), ((0,),), sets)
    res = min_removal_exact(sys_, budget=2_000)
    assert (res.total_size, res.optimal, res.lower_bound) == (20, True, 17)
    assert res.removed == (sets[0], (), ())


def z61_sample_system():
    # x1 + x2 - 2 x3 = 0 over Z61, each set a seeded sample of 30 values,
    # drawn in coordinate order: 900 walked candidates, but a long search
    rng = random.Random(7)
    g = z(61)
    sets = tuple(tuple((v,) for v in rng.sample(range(61), 30)) for _ in range(3))
    return RestrictedSystem(g, IntMatrix([[1, 1, -2]]), ((0,),), sets)


def test_exact_cover_search_runs_under_the_budget():
    # the listing fits a budget of 10,000; the cover search's nodes do not
    sys_ = z61_sample_system()
    assert count_solutions(sys_, budget=10_000) == len(enumerate_solutions(sys_))
    with pytest.raises(
        BudgetExceededError,
        match="^10001 cover-search nodes exceed the budget of 10000$",
    ):
        min_removal_exact(sys_, budget=10_000)
    res = min_removal_exact(sys_)
    assert (res.total_size, res.optimal, res.lower_bound) == (30, True, 24)
    assert removal_kills(sys_, res.removed)


# ------------------------------------------------------------ greedy route


def test_greedy_kills_and_bounds():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    res = greedy_removal(sys_)
    assert not res.optimal
    assert res.lower_bound is None
    assert res.total_size == 5
    assert removal_kills(sys_, res.removed)


def test_greedy_never_beats_exact():
    cases = [
        (z(4), IntMatrix([[1, 1]]), ((0,),), None),
        (z(5), IntMatrix([[1, 2]]), ((1,),), None),
        (z(6), IntMatrix([[1, 1]]), ((3,),), (((0,), (1,), (2,)), ((0,), (2,), (3,), (5,)))),
    ]
    for g, a, rhs, sets in cases:
        sys_ = RestrictedSystem(g, a, rhs, sets or full_sets(g, a.cols))
        exact = min_removal_exact(sys_)
        greedy = greedy_removal(sys_)
        assert greedy.total_size >= exact.total_size
        assert removal_kills(sys_, greedy.removed)
        assert removal_kills(sys_, exact.removed)


def test_greedy_breaks_coverage_ties_by_atom_order():
    # x1 + x2 + x3 = 0 over Z5 with X1 = {0, 1}, X2 = {0, 1, 2}: six
    # solutions, x3 = 0, 4, 3, 4, 3, 2 in order
    g = z(5)
    sets = (((0,), (1,)), ((0,), (1,), (2,)), g.elements())
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), sets)
    # (0, 0) and (0, 1) both kill three: the lower value goes first
    res = greedy_removal(sys_)
    assert res.removed == (((0,), (1,)), (), ())
    # with x1 protected, (1, 0), (1, 1), (1, 2), (2, 3) and (2, 4) all kill
    # two: the lowest coordinate goes first, then (1, 1) ties with (1, 2)
    # and (2, 3)
    res = greedy_removal(sys_, protected=(0,))
    assert res.removed == ((), ((0,), (1,), (2,)), ())
    assert res.total_size == 3
    assert removal_kills(sys_, res.removed)


def test_greedy_respects_protection():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    res = greedy_removal(sys_, protected=(0, 1))
    assert res.removed[0] == ()
    assert res.removed[1] == ()
    assert removal_kills(sys_, res.removed)


def recounting_greedy(system, protected=()):
    # reference: each round recounts every atom's live solutions from
    # bitmasks (bit s for solution s) and takes the first atom of most
    sols = enumerate_solutions(system)
    free = [j for j in range(system.variables) if j not in protected]
    atoms = sorted({(j, x[j]) for x in sols for j in free})
    hits = [
        sum(1 << s for s, x in enumerate(sols) if x[j] == v) for j, v in atoms
    ]
    chosen = []
    uncovered = (1 << len(sols)) - 1
    while uncovered:
        counts = [(h & uncovered).bit_count() for h in hits]
        best = counts.index(max(counts))
        chosen.append(atoms[best])
        uncovered &= ~hits[best]
    removed = tuple(
        tuple(sorted(v for j, v in chosen if j == c)) for c in range(system.variables)
    )
    return RemovalSolution(removed, len(chosen), False, None)


@seed(307)
@given(st.sampled_from([(5,), (6,), (7,), (8,), (9,), (12,), (2, 4), (3, 5)]), st.data())
@settings(max_examples=120, deadline=None)
def test_greedy_matches_the_recounting_greedy(moduli, data):
    # live counts kept as solutions die give the same removal, tie for
    # tie, as counts taken afresh each round, with and without protection
    g = AbelianGroup(moduli)
    elements = g.elements()
    m = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, min(m - 1, 2)))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=m, max_size=m),
            min_size=k,
            max_size=k,
        )
    )
    rhs = tuple(data.draw(st.sampled_from(elements)) for _ in range(k))
    sets = tuple(
        tuple(data.draw(st.sets(st.sampled_from(elements), min_size=1)))
        for _ in range(m)
    )
    sys_ = RestrictedSystem(g, IntMatrix(rows), rhs, sets)
    protected = tuple(data.draw(st.sets(st.integers(0, m - 1), max_size=m - 1)))
    for shield in ((), protected):
        assert greedy_removal(sys_, shield) == recounting_greedy(sys_, shield)


# ------------------------------------------------------- randomized oracle


def incremental_tables(own, atoms):
    # reference: the exact solver's bit table ORed in one bit at a time
    hits = [0] * atoms
    for s, ids in enumerate(own):
        for i in ids:
            hits[i] |= 1 << s
    return hits


def test_exact_matches_oracle_random(count_calls):
    searches = count_calls(removal, "_cover_exists", lambda *args: None)
    searched = set()

    @seed(36)
    @given(st.integers(2, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def check(n, data):
        g = z(n)
        m = data.draw(st.integers(1, 4))
        row = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        rhs = ((data.draw(st.integers(0, n - 1)),),)
        sets = tuple(
            tuple(
                (v,)
                for v in data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
            )
            for _ in range(m)
        )
        protected = tuple(data.draw(st.sets(st.integers(0, m - 1), max_size=m // 2)))
        sys_ = RestrictedSystem(g, IntMatrix([row]), rhs, sets)
        # the bit table, on every draw, equals the one built bit by bit
        atoms_sorted, own = _instance(sys_, protected, 10**6)
        assert _tables(own, len(atoms_sorted)) == incremental_tables(own, len(atoms_sorted))
        sols = enumerate_solutions(sys_)
        atoms = {(i, x[i]) for x in sols for i in range(m) if i not in protected}
        if len(sols) > 12 or len(atoms) > 12:
            return
        calls = len(searches)
        res = min_removal_exact(sys_, protected=protected)
        searched.add(len(searches) > calls)
        assert res.optimal
        assert res.total_size == brute_min_size(sys_, protected)
        assert removal_kills(sys_, res.removed)
        greedy = greedy_removal(sys_, protected=protected)
        assert greedy.total_size >= res.total_size
        # the solvers do not re-check their removals; callers rely on these
        assert removal_kills(sys_, greedy.removed)
        # the witness, from the root bracket or from the search, is the
        # lexicographically first minimum atom set, and lower_bound is the
        # packing bound
        expected = [[] for _ in range(m)]
        for i, v in brute_first_cover(sys_, protected):
            expected[i].append(v)
        assert res.removed == tuple(tuple(vs) for vs in expected)
        assert res.lower_bound == packing_bound(sys_, protected)
        # the search agrees with the bracket too: a cover of the minimum's
        # size exists, and none smaller
        hits, nodes = _tables(own, len(atoms_sorted)), removal._Nodes(10**6)
        everything = (1 << len(own)) - 1

        def cover(room):
            return removal._cover_exists(hits, own, everything, 0, room, nodes)

        assert cover(res.total_size)
        assert res.total_size == 0 or not cover(res.total_size - 1)

    check()
    # the root bracket answers some draws with no search, the search the rest
    assert searched == {False, True}

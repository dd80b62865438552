"""Restricted systems: enumeration, thinness, translation, extensions."""

import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linremoval import (
    AbelianGroup,
    BudgetExceededError,
    Extension,
    IntMatrix,
    PreconditionError,
    RestrictedSystem,
    compose_extensions,
    count_solutions,
    determinantal_divisor,
    determinantal_divisors,
    circularize,
    enumerate_solutions,
    identity_extension,
    intmat,
    pull_back_removal,
    remove_elements,
    verify_extension,
)
from linremoval import system as system_module
from linremoval.jsonio import decode_system, load_file
from linremoval.pipeline import _identity_form, _identity_prefix
from linremoval.system import (
    _homogenize,
    _projection,
    _thin_witness,
    _unit_pivots,
    _verify_extension,
)

FIXTURES = Path(__file__).parent / "fixtures"


def apply(system, x):
    # A x over the group, one combine per row
    return tuple(system.group.combine(row, x) for row in system.matrix.data)


def brute_solutions(system):
    # oracle: direct product scan, no pivot solving
    out = [
        x
        for x in itertools.product(*system.restrictions)
        if apply(system, x) == system.rhs
    ]
    out.sort()
    return out


def full_sets(group, m):
    return tuple(group.elements() for _ in range(m))


def z(n):
    return AbelianGroup([n])


def translate(system):
    # the translate stage, on the solution list full_extension hands it
    return _homogenize(system, enumerate_solutions(system))


def thin(system):
    # the thinness test, on the solution list full_extension hands it
    return _thin_witness(system, enumerate_solutions(system))


def padded_target(source):
    # the paper's general route, step by step: full_extension skips the
    # padding for a system that has a circular column order
    mid, _ = _identity_form(translate(source).target)
    return circularize(mid.target, source.group.order).target


# ------------------------------------------------------------- construction


def test_system_validates_shapes():
    g = z(5)
    a = IntMatrix([[1, 1, 1]])
    rhs = ((0,),)
    with pytest.raises(PreconditionError):
        RestrictedSystem(g, IntMatrix([[1], [2]]), ((0,), (0,)), full_sets(g, 1))
    with pytest.raises(PreconditionError):
        RestrictedSystem(g, a, ((0,), (0,)), full_sets(g, 3))
    with pytest.raises(PreconditionError):
        RestrictedSystem(g, a, rhs, full_sets(g, 2))
    # an element of the wrong length is refused, the first one named
    g = AbelianGroup((3, 5))
    for rhs, sets, size in [
        (((0, 0, 0),), (((1,),), ()), 3),
        (((0, 0),), (((1, 2), (3,)), ((1, 2, 3, 4),)), 1),
    ]:
        with pytest.raises(
            PreconditionError, match=f"^element has {size} components, group has 2$"
        ):
            RestrictedSystem(g, IntMatrix([[1, 1]]), rhs, sets)


def test_system_normalizes_restrictions():
    g = z(5)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 1]]),
        ((0,),),
        (((7,), (2,), (0,)), ((1,), (1,), (-1,))),
    )
    # reduced into the group, deduplicated, sorted
    assert sys_.restrictions == (((0,), (2,)), ((1,), (4,)))
    # each cyclic factor wraps its own residues, negative or out of range
    sys_ = RestrictedSystem(
        AbelianGroup((3, 5)),
        IntMatrix([[1, 1]]),
        ((-3, 11),),
        (((-1, -5), (4, 7), (2, 0), (5, 10), (1, -3)), ((3, -6), (-3, 24))),
    )
    assert sys_.rhs == ((0, 1),)
    assert sys_.restrictions == (((1, 2), (2, 0)), ((0, 4),))


def test_system_divisor_fields():
    g = z(10)
    sys_ = RestrictedSystem(g, IntMatrix([[2, 4], [0, 6]]), ((0,), (0,)), full_sets(g, 2))
    assert determinantal_divisors(sys_.matrix)[-1] == 12
    assert not sys_.coprime  # gcd(12, 10) == 2
    sys2 = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    assert determinantal_divisors(sys2.matrix)[-1] == 1
    assert sys2.coprime


def test_identity_prefix_divisor_matches_minors():
    # an identity left block is a k x k minor equal to 1, so d_k = 1; the
    # Smith form finds it with no shortcut for the block, in agreement with
    # the minor enumeration
    g = z(5)
    circular = padded_target(
        RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    ).matrix
    assert (circular.rows, circular.cols) == (26, 28)
    matrices = [
        IntMatrix([[1, 3, 4]]),
        IntMatrix([[1, 0, 2, 1], [0, 1, 1, 1]]),
        IntMatrix([[1, 0, 0, 6, 10], [0, 1, 0, 4, 2], [0, 0, 1, 8, 3]]),
        circular,
    ]
    for a in matrices:
        rhs = tuple(g.zero for _ in range(a.rows))
        sys_ = RestrictedSystem(g, a, rhs, full_sets(g, a.cols))
        assert determinantal_divisors(a)[-1] == determinantal_divisor(a, a.rows) == 1
        assert sys_.coprime


def count_divisor_work(count_calls):
    return {
        name: count_calls(intmat, name, lambda a, *rest: len(getattr(a, "data", a)))
        for name in ("smith_normal_form", "smith_invariants_mod", "determinantal_divisor")
    }


def test_construction_computes_no_divisor(count_calls):
    # d_k is computed on first read, never while a system is built: every
    # system fixture, and the 26 x 28 circular target of x1 + x2 + x3 over Z5
    g = z(5)
    target = padded_target(
        RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    )
    assert (target.equations, target.variables) == (26, 28)
    work = count_divisor_work(count_calls)
    built = [decode_system(load_file(path)) for path in sorted(FIXTURES.glob("sys_*.json"))]
    built.append(RestrictedSystem(g, target.matrix, target.rhs, target.restrictions))
    assert len(built) == 11
    assert work == {
        "smith_normal_form": [],
        "smith_invariants_mod": [],
        "determinantal_divisor": [],
    }


def test_divisor_is_read_off_one_smith_form(count_calls):
    g = z(10)
    sys_ = RestrictedSystem(g, IntMatrix([[2, 4, 1], [0, 6, 3]]), ((0,), (0,)), full_sets(g, 3))
    work = count_divisor_work(count_calls)
    assert not sys_.coprime
    assert not sys_.coprime
    # one elimination over Z/|G| of A's two rows, cached, and no integer
    # Smith form or minor
    assert work == {
        "smith_normal_form": [],
        "smith_invariants_mod": [2],
        "determinantal_divisor": [],
    }


def test_apply_and_homogeneous():
    g = z(4)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 2]]), ((3,),), full_sets(g, 2))
    assert apply(sys_, ((1,), (1,))) == ((3,),)
    assert apply(sys_, ((1,), (3,))) == ((3,),)
    assert not sys_.is_homogeneous()
    zero = RestrictedSystem(g, IntMatrix([[1, 2]]), ((0,),), full_sets(g, 2))
    assert zero.is_homogeneous()
    assert sys_.equations == 1
    assert sys_.variables == 2


# -------------------------------------------------------------- enumeration


def test_enumerate_full_circulant_count():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    sols = enumerate_solutions(sys_)
    assert len(sols) == 25
    assert sols == sorted(sols)
    assert sols == brute_solutions(sys_)


def test_enumerate_forced_singleton():
    g = z(4)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 1, 1]]),
        ((0,),),
        (((0,),), ((1,),), ((3,),)),
    )
    assert enumerate_solutions(sys_) == [((0,), (1,), (3,))]


def test_enumerate_handles_empty_restriction():
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), (((0,),), ()))
    assert enumerate_solutions(sys_) == []


def test_enumerate_slow_path_matches_oracle():
    # leading block is not the identity; column 1 of the first row is a
    # unit mod 6, so the system is row-reduced and solved for two pivots
    g = z(6)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[2, 1], [1, 1]]),
        ((1,), (4,)),
        (((0,), (1,), (3,), (5,)), ((1,), (2,), (4,))),
    )
    assert enumerate_solutions(sys_) == brute_solutions(sys_)


def test_enumerate_fast_path_matches_oracle():
    g = z(6)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 0, 2], [0, 1, 5]]),
        ((1,), (0,)),
        (
            ((0,), (1,), (3,)),
            ((0,), (2,), (4,), (5,)),
            ((1,), (3,), (5,)),
        ),
    )
    assert enumerate_solutions(sys_) == brute_solutions(sys_)


def test_enumerate_without_unit_pivot_walks_every_candidate():
    # 2 and 3 are both zero divisors mod 6: the row has no unit pivot, so it
    # is a check row and the walk covers the full product
    g = z(6)
    sys_ = RestrictedSystem(
        g, IntMatrix([[2, 3]]), ((5,),), (g.elements(), g.elements())
    )
    assert _unit_pivots(sys_) == ([None], [[2, 3]], [[5]])
    assert enumerate_solutions(sys_) == brute_solutions(sys_)
    with pytest.raises(BudgetExceededError, match="^36 candidates exceed the budget of 35$"):
        enumerate_solutions(sys_, budget=35)
    assert count_solutions(sys_, budget=36) == 6


def test_enumerate_mixed_system_walks_only_free_coordinates():
    # the first row pivots on its unit; the second has none left after
    # elimination and becomes a check row on the two free coordinates, so
    # 6 x 6 candidates are walked, not the 6^3 of the whole product
    g = z(6)
    sys_ = RestrictedSystem(
        g, IntMatrix([[1, 2, 3], [2, 2, 4]]), ((1,), (4,)), full_sets(g, 3)
    )
    pivots, rows, rhs = _unit_pivots(sys_)
    assert pivots == [0, None]
    assert rows == [[1, 2, 3], [0, 4, 4]]
    assert rhs == [[1], [2]]
    assert enumerate_solutions(sys_, budget=36) == brute_solutions(sys_)
    assert len(brute_solutions(sys_)) == 12
    with pytest.raises(BudgetExceededError, match="^36 candidates"):
        enumerate_solutions(sys_, budget=35)


@pytest.mark.parametrize("moduli", [(6,), (4,), (2, 4)])
def test_enumerate_single_coordinate_check_row(moduli):
    # m = 1 with no pivot: the one walked coordinate is the whole solution
    g = AbelianGroup(moduli)
    for coeff in (0, 2, -4):
        for b in g.elements():
            sys_ = RestrictedSystem(g, IntMatrix([[coeff]]), (b,), full_sets(g, 1))
            assert _unit_pivots(sys_)[0] == [None]
            assert enumerate_solutions(sys_) == brute_solutions(sys_)


def test_enumerate_unit_pivot_budget_counts_walked_coordinates():
    # -1 is a unit mod 7: the largest set with a unit coefficient (the
    # third) is solved for, and only the 2 x 3 other candidates are walked
    g = z(7)
    sets = (((0,), (1,)), ((2,), (3,), (4,)), g.elements())
    sys_ = RestrictedSystem(g, IntMatrix([[2, 3, -1]]), ((1,),), sets)
    pivots, rows, rhs = _unit_pivots(sys_)
    assert pivots == [2]
    assert rows == [[5, 4, 1]]
    assert rhs == [[6]]
    assert enumerate_solutions(sys_, budget=6) == brute_solutions(sys_)
    with pytest.raises(BudgetExceededError):
        enumerate_solutions(sys_, budget=5)


def test_identity_block_pivots_on_the_largest_set():
    # x1 + ... + x5 = 0 over Z5 with sets of 3 and the whole group last:
    # the identity column x1 follows the largest-set rule like any other,
    # so x5 is solved for and only the 3^4 = 81 other candidates are walked
    g = z(5)
    small = ((0,), (1,), (2,))
    sys_ = RestrictedSystem(
        g, IntMatrix([[1] * 5]), ((0,),), (small,) * 4 + (g.elements(),)
    )
    assert _unit_pivots(sys_)[0] == [4]
    assert count_solutions(sys_, budget=81) == 81
    assert enumerate_solutions(sys_, budget=81) == brute_solutions(sys_)
    with pytest.raises(BudgetExceededError, match="^81 candidates exceed the budget of 80$"):
        count_solutions(sys_, budget=80)


def test_enumerate_budget_precheck():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    with pytest.raises(BudgetExceededError):
        enumerate_solutions(sys_, budget=24)
    assert count_solutions(sys_, budget=25) == 25


# level caps that give each free coordinate a level of its own (sets of
# one element aside), a few coordinates per level, and one level for all
LEAF_BATCHES = [1, 64, 10**9]


@given(
    st.sampled_from(LEAF_BATCHES),
    st.sampled_from([(2,), (3,), (4,), (5,), (6,), (9,), (2, 4), (3, 5), (2, 2)]),
    st.data(),
)
@settings(max_examples=240, deadline=None)
def test_enumeration_matches_oracle_random(leaf_batch, moduli, data):
    # coefficients of any sign over cyclic, composite and multi-factor
    # groups: some systems are solved for unit pivots, the rest walk the
    # whole product
    g = AbelianGroup(moduli)
    elements = g.elements()
    m = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, min(m, 3)))
    entries = data.draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=m, max_size=m),
            min_size=k,
            max_size=k,
        )
    )
    rhs = tuple(data.draw(st.sampled_from(elements)) for _ in range(k))
    sets = tuple(
        tuple(data.draw(st.sets(st.sampled_from(elements), min_size=1, max_size=5)))
        for _ in range(m)
    )
    sys_ = RestrictedSystem(g, IntMatrix(entries), rhs, sets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system_module, "LEAF_BATCH", leaf_batch)
        assert enumerate_solutions(sys_) == brute_solutions(sys_)


COUNT_GROUPS = [(2,), (3,), (4,), (6,), (8,), (9,), (12,), (2, 4), (2, 6), (3, 5)]


@given(st.sampled_from(LEAF_BATCHES), st.sampled_from(COUNT_GROUPS), st.data())
@settings(max_examples=300, deadline=None)
def test_count_matches_enumeration(leaf_batch, moduli, data):
    # the counting walk against the listing, coefficients with zero
    # divisors so composite exponents leave check rows; at a drawn budget
    # both succeed, or both raise the same budget error
    g = AbelianGroup(moduli)
    elements = g.elements()
    m = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, min(m, 3)))
    entries = data.draw(
        st.lists(
            st.lists(st.sampled_from([0, 1, -1, 2, 3, 4, 6, -9]), min_size=m, max_size=m),
            min_size=k,
            max_size=k,
        )
    )
    rhs = tuple(data.draw(st.sampled_from(elements)) for _ in range(k))
    sets = tuple(
        tuple(data.draw(st.sets(st.sampled_from(elements), max_size=5)))
        for _ in range(m)
    )
    sys_ = RestrictedSystem(g, IntMatrix(entries), rhs, sets)
    budget = data.draw(st.integers(1, max(1, math.prod(map(len, sets)))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system_module, "LEAF_BATCH", leaf_batch)
        assert count_solutions(sys_) == len(enumerate_solutions(sys_))
        try:
            listed = enumerate_solutions(sys_, budget)
        except BudgetExceededError as e:
            with pytest.raises(BudgetExceededError) as counted:
                count_solutions(sys_, budget)
            assert str(counted.value) == str(e)
        else:
            assert count_solutions(sys_, budget) == len(listed)


# a child prints the count and its own peak RSS; it is started from a
# small wrapper, because a child's ru_maxrss starts at the peak of the
# process that started it, and the test runner's peak is not the count's
COUNT_PEAK = """
import resource
from linremoval import AbelianGroup, IntMatrix, RestrictedSystem, count_solutions
g = AbelianGroup([1009])
sys_ = RestrictedSystem(g, IntMatrix([[1, 1, -2]]), ((0,),), (g.elements(),) * 3)
print(count_solutions(sys_), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
WRAPPER = """
import subprocess, sys
sys.exit(subprocess.run([sys.executable, "-c", sys.argv[1]]).returncode)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
def test_count_memory_stays_small_past_the_leaf_batch():
    # x1 + x2 - 2 x3 = 0 over Z1009 with full sets: the two free
    # coordinates' product of 1,018,081 is past LEAF_BATCH, so each is a
    # level of its own; one level of both would hold a sum per combination
    # and peak near 63 MB
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, COUNT_PEAK], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    count, peak_kib = map(int, proc.stdout.split())
    assert count == 1009**2
    assert peak_kib < 40 * 1024


def test_count_matches_enumeration_with_check_rows(monkeypatch):
    # rows left without a unit pivot under composite exponents, alone or
    # beside a pivot row, restricted or not, at every level cap: the count
    # is the listing's length and the budget stops both at the walked
    # product
    cases = [
        ((6,), [[2, 3]], [(5,)]),
        ((4,), [[2, 2, 0]], [(2,)]),
        ((12,), [[1, 2, 3], [4, 4, 8]], [(1,), (4,)]),
        ((2, 4), [[2, 0, 2], [0, 2, 6]], [(0, 2), (0, 0)]),
        ((2, 6), [[3, 2, 2, 1], [2, 6, 4, 0]], [(1, 1), (0, 2)]),
    ]
    rng = random.Random(1707)
    for moduli, rows, rhs in cases:
        g = AbelianGroup(moduli)
        elements = g.elements()
        for sets in (
            full_sets(g, len(rows[0])),
            tuple(proper_subset(rng, elements) for _ in rows[0]),
        ):
            sys_ = RestrictedSystem(g, IntMatrix(rows), tuple(rhs), sets)
            pivots, _, _ = _unit_pivots(sys_)
            assert None in pivots, moduli
            walked = math.prod(
                len(sys_.restrictions[j])
                for j in range(sys_.variables)
                if j not in pivots
            )
            for leaf_batch in LEAF_BATCHES:
                monkeypatch.setattr(system_module, "LEAF_BATCH", leaf_batch)
                listed = enumerate_solutions(sys_)
                assert listed == brute_solutions(sys_)
                assert count_solutions(sys_) == len(listed)
                assert count_solutions(sys_, walked) == len(listed)
                for listing in (enumerate_solutions, count_solutions):
                    with pytest.raises(BudgetExceededError, match=f"^{walked} candidates"):
                        listing(sys_, walked - 1)


@given(st.sampled_from([(2,), (4,), (5,), (6,), (9,), (12,), (60,), (2, 6), (3, 5)]), st.data())
@settings(max_examples=150, deadline=None)
def test_coprime_matches_divisor_gcd(moduli, data):
    # all k Smith invariants over Z/|G| are 1 exactly when gcd(d_k, |G|) = 1
    g = AbelianGroup(moduli)
    m = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, min(m, 3)))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=m, max_size=m),
            min_size=k,
            max_size=k,
        )
    )
    sys_ = RestrictedSystem(g, IntMatrix(rows), (g.zero,) * k, ((g.zero,),) * m)
    dk = determinantal_divisors(sys_.matrix)[-1]
    assert sys_.coprime == (math.gcd(dk, g.order) == 1)


def pivot_loop_solutions(system):
    # oracle: the candidate-by-candidate pivot loop the depth-first walk
    # replaced; every candidate of the free product solves all k pivot rows
    # afresh with one group.reduce per row, and a check row (pivot None)
    # must reduce to zero
    sets = system.restrictions
    if any(len(xs) == 0 for xs in sets):
        return []
    group = system.group
    pivots, rows, rhs = _unit_pivots(system)
    free = [j for j in range(system.variables) if j not in pivots]
    members = [frozenset([group.zero] if j is None else sets[j]) for j in pivots]
    bdata = [[row[j] for j in free] for row in rows]
    sols = []
    x = [()] * system.variables
    for tail in itertools.product(*(sets[j] for j in free)):
        ok = True
        for i in range(len(pivots)):
            acc = list(rhs[i])
            for coeff, elem in zip(bdata[i], tail):
                if coeff:
                    for c, r in enumerate(elem):
                        acc[c] -= coeff * r
            pivot = group.reduce(acc)
            if pivot not in members[i]:
                ok = False
                break
            if pivots[i] is not None:
                x[pivots[i]] = pivot
        if ok:
            for j, v in zip(free, tail):
                x[j] = v
            sols.append(tuple(x))
    sols.sort()
    return sols


def proper_subset(rng, elements):
    return tuple(rng.sample(elements, rng.randrange(1, len(elements))))


def circular_targets():
    # the tall identity-prefix targets of the padded route: 26 x 28 over
    # Z5 and Z3 x Z5, and 34 x 36 for a 2 x 4 system over Z11
    out = []
    for moduli, rows, rhs in (
        ([5], [[1, 1, 1]], [(1,)]),
        ([3, 5], [[1, 1, 1]], [(1, 2)]),
        ([11], [[2, 1, 3, 1], [3, 0, 5, 4]], [(3,), (7,)]),
    ):
        g = AbelianGroup(moduli)
        m = len(rows[0])
        source = RestrictedSystem(g, IntMatrix(rows), tuple(rhs), full_sets(g, m))
        out.append(padded_target(source))
    assert [(t.equations, t.variables) for t in out] == [(26, 28), (26, 28), (34, 36)]
    return out


def test_pivot_walk_matches_pivot_loop_on_circular_targets():
    # a few pivot rows get proper subsets, the rest keep the whole group;
    # the free coordinates get proper subsets, and the right-hand side is
    # the target's zero or a random vector
    rng = random.Random(20260)
    solutions = 0
    for target in circular_targets():
        g = target.group
        elements = g.elements()
        k, m = target.equations, target.variables
        for _ in range(8):
            sets = [elements] * m
            for i in rng.sample(range(k), 3):
                sets[i] = proper_subset(rng, elements)
            for j in range(k, m):
                sets[j] = proper_subset(rng, elements)
            rhs = tuple(rng.choice(elements) for _ in range(k))
            for b in (target.rhs, rhs):
                sys_ = RestrictedSystem(g, target.matrix, b, tuple(sets))
                sols = enumerate_solutions(sys_)
                assert sols == pivot_loop_solutions(sys_)
                solutions += len(sols)
    assert solutions > 0


def level_cuts(sizes, cap):
    # oracle: the walk's levels as lists of walked indices, 0 for the
    # virtual coordinate and w for the free one with the w-th smallest set
    # (sizes[w - 1]), cut from the back by a plain scan; each level is the
    # longest run whose sizes multiply to at most cap, holds at least one
    # free coordinate, and the first also holds the virtual one
    levels, run = [], []
    for w in range(len(sizes), 0, -1):
        if run and math.prod(sizes[v - 1] for v in run) * sizes[w - 1] > cap:
            levels.append(run)
            run = []
        run.insert(0, w)
    if run:
        levels.append(run)
    levels.reverse()
    return [[0] + levels[0] if levels else [0]] + levels[1:]


def test_pivot_walk_matches_oracles_on_random_systems(monkeypatch):
    # small systems of every shape, coefficients with many zeros so that
    # restricted rows fall due at every depth of the walk; compared with the
    # old pivot loop and, where the product is small, the product scan, at
    # every level cap.  Zero divisors in the composite groups leave rows
    # without a unit pivot, which are walked as check rows, alone or beside
    # real pivots
    rng = random.Random(7)
    groups = [(2,), (5,), (6,), (7,), (9,), (1,), (1, 5), (3, 1), (2, 4), (3, 5)]
    seen = dict.fromkeys(
        ["non-leading", "square", "mixed", "empty", "z1", "check", "check-mixed", "scanned"]
        + ["last-pivot", "last-check", "virtual-level", "one-variable", "multi-factor"]
        + ["inner-level"],
        0,
    )
    for _ in range(400):
        g = AbelianGroup(rng.choice(groups))
        elements = g.elements()
        m = rng.randint(1, 5)
        k = rng.randint(1, min(m, 3))
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, 3, -4]) for _ in range(m)] for _ in range(k)]
        if not any(any(row) for row in rows):
            continue
        sets = []
        for _ in range(m):
            roll = rng.random()
            if roll < 0.03:
                sets.append(())
            elif roll < 0.5 or len(elements) == 1:
                sets.append(elements)
            else:
                sets.append(proper_subset(rng, elements))
        rhs = tuple(rng.choice(elements) for _ in range(k))
        sys_ = RestrictedSystem(g, IntMatrix(rows), rhs, tuple(sets))
        pivots, reduced, _ = _unit_pivots(sys_)
        seen["check"] += None in pivots
        seen["check-mixed"] += None in pivots and pivots != [None] * k
        full = [len(sys_.restrictions[p]) == g.order for p in pivots if p is not None]
        seen["non-leading"] += pivots != list(range(k))
        seen["square"] += k == m
        seen["mixed"] += any(full) and not all(full)
        seen["empty"] += any(not xs for xs in sys_.restrictions)
        seen["z1"] += 1 in g.moduli
        expected = pivot_loop_solutions(sys_)
        if math.prod(map(len, sys_.restrictions)) <= 20_000:
            assert expected == brute_solutions(sys_)
            seen["scanned"] += 1
        # walked index 0 is the virtual coordinate, w > 0 the free one
        # with the w-th smallest set; a restricted row falls due in the
        # level of the last walked coordinate that touches it
        free = sorted(
            (j for j in range(m) if j not in pivots),
            key=lambda j: len(sys_.restrictions[j]),
        )
        due = [
            (p, max((w for w, j in enumerate(free, 1) if row[j]), default=0))
            for row, p in zip(reduced, pivots)
            if p is None or len(sys_.restrictions[p]) < g.order
        ]
        for leaf_batch in LEAF_BATCHES:
            monkeypatch.setattr(system_module, "LEAF_BATCH", leaf_batch)
            sols = enumerate_solutions(sys_)
            assert sols == expected
            assert count_solutions(sys_) == len(expected)
            if not all(sys_.restrictions):
                continue
            levels = level_cuts([len(sys_.restrictions[j]) for j in free], leaf_batch)
            # the last level always holds the free coordinate with the
            # largest set; without one, the virtual coordinate is the only
            # level and every restricted row falls due there
            at_last = [p for p, w in due if w in levels[-1]]
            seen["last-pivot"] += any(p is not None for p in at_last)
            seen["last-check"] += None in at_last
            seen["virtual-level"] += not free
            seen["one-variable"] += m == 1
            seen["multi-factor"] += len(g.moduli) > 1 and bool(free) and bool(sols)
            seen["inner-level"] += any(
                w in level and len(level) - (0 in level) >= 2
                for _, w in due
                for level in levels[:-1]
            )
    assert all(seen.values()), seen


def identity_prefix_loop(matrix):
    # oracle: the entry-by-entry double loop over the k x k left block
    k = matrix.rows
    return all(
        matrix.data[i][j] == (1 if i == j else 0) for i in range(k) for j in range(k)
    )


def test_identity_prefix_matches_double_loop():
    rng = random.Random(3)
    matrices = [IntMatrix([[v]]) for v in (1, 0, -1, 2)]
    matrices += [t.matrix for t in circular_targets()]
    for _ in range(3000):
        k = rng.randint(1, 5)
        m = rng.randint(k, k + 3)  # k = m included
        data = [[int(i == j) for j in range(m)] for i in range(k)]
        for _ in range(rng.randint(0, 2)):
            data[rng.randrange(k)][rng.randrange(m)] = rng.choice([-2, -1, 0, 1, 2])
        matrices.append(IntMatrix(data))
    verdicts = [_identity_prefix(a) for a in matrices]
    assert verdicts == [identity_prefix_loop(a) for a in matrices]
    assert verdicts[:4] == [True, False, False, False]
    assert True in verdicts[4:] and False in verdicts[4:]


# ----------------------------------------------------------------- thinness


def test_is_thin_fat_system():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1, 1]]), ((0,),), full_sets(g, 3))
    assert thin(sys_) is None


def test_is_thin_single_solution():
    g = z(4)
    sys_ = RestrictedSystem(
        g, IntMatrix([[1, 1, 1]]), ((0,),), (((0,),), ((1,),), ((3,),))
    )
    wit = thin(sys_)
    assert wit is not None
    assert wit.coordinate == 0
    assert wit.value == (0,)


def test_is_thin_vacuous():
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((1,),), (((0,),), ((0,),)))
    wit = thin(sys_)
    assert wit is not None
    assert wit.coordinate == 0
    assert wit.value is None


def test_is_thin_constant_coordinate():
    # two solutions sharing their middle coordinate
    g = z(5)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 1, 1]]),
        ((0,),),
        (((1,), (2,)), ((2,),), ((1,), (2,), (3,))),
    )
    sols = enumerate_solutions(sys_)
    assert len(sols) == 2
    wit = thin(sys_)
    assert wit is not None
    assert wit.coordinate == 1
    assert wit.value == (2,)


# -------------------------------------------------------------- translation


def test_homogenize_frozen_example():
    g = z(3)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 1]]),
        ((2,),),
        (((0,), (1,)), ((1,), (2,))),
    )
    ext = translate(sys_)
    assert ext.target.is_homogeneous()
    assert ext.target.restrictions == (((0,), (1,)), ((0,), (2,)))
    assert enumerate_solutions(ext.target) == [((0,), (0,)), ((1,), (2,))]
    # value maps undo the shift by the witness (0, 2)
    assert ext.value_maps[0] == {(0,): (0,), (1,): (1,)}
    assert ext.value_maps[1] == {(0,): (2,), (2,): (1,)}
    report = verify_extension(ext)
    assert report.ok, report.problems


def test_homogenize_identity_when_homogeneous():
    g = z(5)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    ext = translate(sys_)
    assert ext.target == sys_
    assert verify_extension(ext).ok


def test_homogenize_without_solutions():
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((1,),), (((0,),), ((0,),)))
    with pytest.raises(PreconditionError):
        translate(sys_)


def test_homogenize_projection_bijection():
    g = z(6)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 2]]),
        ((3,),),
        (((0,), (1,), (3,)), ((0,), (1,), (3,), (4,))),
    )
    ext = translate(sys_)
    src = enumerate_solutions(sys_)
    report = verify_extension(ext)
    # the report projects every target solution through the value maps and
    # checks the images are distinct source solutions covering them all
    assert report.ok and report.bijection_ok and report.problems == []
    assert report.source_count == report.target_count == len(src) > 0


# --------------------------------------------------------------- extensions


def test_identity_extension_verifies():
    g = z(4)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 3]]), ((2,),), full_sets(g, 2))
    report = verify_extension(identity_extension(sys_))
    assert report.ok
    assert report.source_count == report.target_count == 4


def test_verify_extension_catches_bad_value_map():
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    good = identity_extension(sys_)
    broken_maps = dict(good.value_maps)
    broken_maps[0] = {v: (0,) for v in g.elements()}  # collapses everything
    bad = Extension(
        source=good.source,
        target=good.target,
        coord_map=good.coord_map,
        value_maps=broken_maps,
    )
    report = verify_extension(bad)
    assert not report.ok
    assert not report.bijection_ok
    assert report.problems


def test_verify_extension_catches_wrong_dimensions():
    g = z(3)
    small = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    big = RestrictedSystem(g, IntMatrix([[1, 1, 0]]), ((0,),), full_sets(g, 3))
    coords = (0, 1)
    ext = Extension(
        source=big,
        target=small,
        coord_map={j: j for j in coords},
        value_maps={j: {v: v for v in g.elements()} for j in coords},
    )
    report = verify_extension(ext)
    assert not report.ok
    assert not report.dimension_ok


def test_verify_extension_catches_non_full_unmapped():
    g = z(3)
    src = RestrictedSystem(g, IntMatrix([[1]]), ((0,),), (((0,),),))
    tgt = RestrictedSystem(
        g, IntMatrix([[1, 0]]), ((0,),), (((0,),), ((0,), (1,)))
    )
    ext = Extension(
        source=src,
        target=tgt,
        coord_map={0: 0},
        value_maps={0: {(0,): (0,)}},
    )
    report = verify_extension(ext)
    assert not report.ok
    assert not report.full_group_ok


def forged_extension(source, target, value_maps):
    coords = tuple(range(source.variables))
    return Extension(
        source=source,
        target=target,
        coord_map={j: j for j in coords},
        value_maps=value_maps,
    )


def test_verify_extension_catches_value_map_missing_a_value():
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    maps = dict(identity_extension(sys_).value_maps)
    maps[0] = {(0,): (0,), (1,): (1,)}  # (2,) is in the target set
    report = verify_extension(forged_extension(sys_, sys_, maps))
    assert not report.structure_ok
    assert not report.ok
    assert report.problems == ["value map at 0 does not cover its restriction set"]


def test_verify_extension_catches_value_map_leaving_the_source_set():
    g = z(3)
    sys_ = RestrictedSystem(
        g, IntMatrix([[1, 1]]), ((0,),), (((0,), (1,)), g.elements())
    )
    maps = dict(identity_extension(sys_).value_maps)
    maps[0] = {(0,): (0,), (1,): (2,)}  # (2,) is outside X_0 = {0, 1}
    report = verify_extension(forged_extension(sys_, sys_, maps))
    assert not report.structure_ok
    assert not report.ok
    assert report.problems == ["value map at 0 leaves the source restriction set"]


def test_verify_extension_reports_coordinates_out_of_range():
    # a key past the target's variables or a value past the source's is a
    # structure problem, reported before either system is indexed
    g = z(3)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    maps = identity_extension(sys_).value_maps
    bijection = "coordinate map is not a bijection onto the source coordinates"
    cases = [
        ({0: 0, 1: 5}, [bijection, "coordinate map sends 1 to 5, out of range"]),
        ({0: 0, 7: 1}, ["coordinate map sends 7 to 1, out of range"]),
    ]
    for coord_map, problems in cases:
        ext = Extension(source=sys_, target=sys_, coord_map=coord_map, value_maps=maps)
        report = verify_extension(ext)
        assert not report.structure_ok
        assert not report.ok
        assert report.problems == problems


def test_verify_extension_catches_missing_preimage():
    # the target drops x_0 = 2, so the source solution (2, 1) is never hit
    g = z(3)
    src = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    tgt = RestrictedSystem(
        g, IntMatrix([[1, 1]]), ((0,),), (((0,), (1,)), g.elements())
    )
    report = verify_extension(
        forged_extension(src, tgt, identity_extension(tgt).value_maps)
    )
    assert report.structure_ok
    assert not report.bijection_ok
    assert not report.ok
    assert (report.source_count, report.target_count) == (3, 2)
    assert report.problems == ["source solution ((2,), (1,)) has no preimage"]


def shuffled_reports(ext, draws=20):
    # the report from sorted listings, and from seeded shuffles of both
    src, tgt = enumerate_solutions(ext.source), enumerate_solutions(ext.target)
    rng = random.Random(30)
    shuffles = []
    for _ in range(draws):
        src_order, tgt_order = src[:], tgt[:]
        rng.shuffle(src_order)
        rng.shuffle(tgt_order)
        shuffles.append(
            _verify_extension(ext, lambda: _projection(ext, src_order, tgt_order))
        )
    return _verify_extension(ext, lambda: _projection(ext, src, tgt)), shuffles


def test_verify_extension_names_the_same_counterexample_on_shuffled_listings():
    # the check takes its listings in any order and sorts the target's only
    # when the projection fails, so each failure kind names the first
    # counterexample in lexicographic order, as on sorted listings
    g = z(5)
    line = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    pinned = RestrictedSystem(g, IntMatrix([[1, 0]]), ((0,),), full_sets(g, 2))
    short = RestrictedSystem(
        g, IntMatrix([[1, 1]]), ((0,),), (((0,), (1,), (2,)), g.elements())
    )
    ident = identity_extension(line).value_maps
    shifted = {**ident, 0: {(v,): ((v + 1) % 5,) for v in range(5)}}
    collapsed = {
        **identity_extension(pinned).value_maps,
        1: {(v,): (v - v % 2,) for v in range(5)},
    }
    cases = [
        (
            forged_extension(line, line, shifted),
            "target solution ((0,), (0,)) projects to non-solution ((1,), (0,))",
        ),
        (
            forged_extension(pinned, pinned, collapsed),
            "target solutions ((0,), (0,)) and ((0,), (1,)) collide on ((0,), (0,))",
        ),
        (
            forged_extension(line, short, identity_extension(short).value_maps),
            "source solution ((3,), (2,)) has no preimage",
        ),
    ]
    for ext, problem in cases:
        report, shuffles = shuffled_reports(ext)
        assert report.structure_ok and not report.bijection_ok
        assert report.problems == [problem]
        assert all(other == report for other in shuffles)
    report, shuffles = shuffled_reports(identity_extension(line))
    assert report.ok and all(other == report for other in shuffles)


def test_translation_takes_the_least_solution_of_a_shuffled_listing():
    g = z(6)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 2]]),
        ((3,),),
        (((0,), (1,), (3,)), ((0,), (1,), (3,), (4,))),
    )
    sols = enumerate_solutions(sys_)
    rng = random.Random(30)
    for _ in range(10):
        order = sols[:]
        rng.shuffle(order)
        assert _homogenize(sys_, order) == _homogenize(sys_, sols)
        assert _thin_witness(sys_, order) == _thin_witness(sys_, sols)


def test_compose_extensions():
    g = z(6)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 2]]),
        ((3,),),
        (((0,), (1,), (3,)), ((0,), (1,), (3,), (4,))),
    )
    first = translate(sys_)
    second = identity_extension(first.target)
    comp = compose_extensions(first, second)
    assert comp.source == sys_
    assert comp.target == first.target
    assert verify_extension(comp).ok


def test_compose_rejects_mismatched_chain():
    g = z(3)
    a = identity_extension(
        RestrictedSystem(g, IntMatrix([[1]]), ((0,),), full_sets(g, 1))
    )
    b = identity_extension(
        RestrictedSystem(g, IntMatrix([[2]]), ((0,),), full_sets(g, 1))
    )
    with pytest.raises(PreconditionError):
        compose_extensions(a, b)


# ------------------------------------------------------------------ removal


def test_remove_elements():
    g = z(4)
    sys_ = RestrictedSystem(g, IntMatrix([[1, 1]]), ((0,),), full_sets(g, 2))
    trimmed = remove_elements(sys_, (((0,), (2,)), ()))
    assert trimmed.restrictions[0] == ((1,), (3,))
    assert trimmed.restrictions[1] == g.elements()
    with pytest.raises(PreconditionError):
        remove_elements(sys_, (((0,),),))


def test_pull_back_removal_translation():
    g = z(3)
    sys_ = RestrictedSystem(
        g,
        IntMatrix([[1, 1]]),
        ((2,),),
        (((0,), (1,)), ((1,), (2,))),
    )
    ext = translate(sys_)
    # killing every first-coordinate value on the target empties both sides
    gone = (tuple(ext.target.restrictions[0]), ())
    pulled = pull_back_removal(ext, gone)
    assert pulled == (((0,), (1,)), ())
    assert count_solutions(remove_elements(sys_, pulled)) == 0


def test_pull_back_rejects_unmapped_coordinate():
    g = z(3)
    src = RestrictedSystem(g, IntMatrix([[1]]), ((0,),), (((0,),),))
    tgt = RestrictedSystem(g, IntMatrix([[1, 0]]), ((0,),), (((0,),), g.elements()))
    ext = Extension(
        source=src,
        target=tgt,
        coord_map={0: 0},
        value_maps={0: {(0,): (0,)}},
    )
    with pytest.raises(PreconditionError):
        pull_back_removal(ext, ((), ((1,),)))


def test_pull_back_rejects_value_outside_restriction():
    g = z(3)
    sys_ = RestrictedSystem(
        g, IntMatrix([[1, 1]]), ((2,),), (((0,), (1,)), ((1,), (2,)))
    )
    ext = translate(sys_)
    with pytest.raises(PreconditionError):
        pull_back_removal(ext, (((2,),), ()))

"""Metamorphic properties of the commands: an input changed by a transform
whose effect on the solutions is known gives the known answer.

Each transform maps the solutions of A x = b, x_j in X_j, one to one onto
those of the transformed system, so ``solve`` must report the same count
and rows that are the images of the original rows, and ``pipeline`` the
same outcome, the same solution count at every stage and the same verdict
of its extension check (or the same error).  The transforms act on
the system's JSON form here, outside ``src/``, and every command runs
through ``cli.main`` in process.  The transforms are a permutation of the
coordinates, a translation, the scaling of one column by a unit, a group
automorphism (a unit in each cyclic factor) applied to b and every set,
and the left multiplication of (A | b) by a matrix invertible mod the
exponent, which must also keep the whole ``remove`` report; the first two
can move the walk's pivot choice and its order of free coordinates.  The
first three must keep ``remove``'s minimum and its certificate, and greedy
``remove`` must kill every solution with no fewer elements.  The
transformed system is also solved under a drawn cap on the walk's
levels, so the two listings come from different level cuts.  The
``pipeline`` properties also draw standard and wide systems, so that
many of their inputs reach a circular target.  Last, ``copies`` and
``verify`` are checked against ``solve`` on the untouched draws.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from linremoval import cli
from linremoval import system as system_module

GROUPS = [(5,), (6,), (7,), (8,), (9,), (11,), (2, 4), (3, 5), (2, 6)]
# a level per free coordinate, a few per level, and the default
LEVEL_CAPS = [1, 64, system_module.LEAF_BATCH]


def elements(moduli):
    out = [()]
    for q in moduli:
        out = [e + (v,) for e in out for v in range(q)]
    return out


def equations(draw, group, k, m):
    # k rows of m small coefficients, and k right-hand sides from the group
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=m, max_size=m),
            min_size=k,
            max_size=k,
        )
    )
    return rows, [draw(st.sampled_from(group)) for _ in range(k)]


@st.composite
def systems(draw):
    # sets are the whole group or a drawn subset, so pivots are solved for
    # on some rows and tested on others; the product of all sets is kept
    # small enough that every listing stays inside the default budget
    moduli = draw(st.sampled_from(GROUPS))
    group = elements(moduli)
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(m, 3)))
    rows, rhs = equations(draw, group, k, m)
    sets = [
        group
        if draw(st.booleans())
        else sorted(draw(st.sets(st.sampled_from(group), min_size=1)))
        for _ in range(m)
    ]
    if math.prod(map(len, sets)) > 60_000:
        sets[-1] = sets[-1][:1]
    return {"moduli": list(moduli), "A": rows, "b": rhs, "X": sets}


@st.composite
def standard_systems(draw):
    # a systems() draw made homogeneous with an identity left block, so
    # that with m >= k + 2 and unit windows copies takes the direct route
    system = draw(systems())
    k = len(system["A"])
    zero = (0,) * len(system["moduli"])
    return {
        **system,
        "A": [
            [int(i == j) for j in range(k)] + row[k:]
            for i, row in enumerate(system["A"])
        ],
        "b": [zero] * k,
    }


@st.composite
def wide_systems(draw):
    # m >= k + 2 variables over a group small enough that every set can be
    # large, each set the group less at most a third of it: the pipeline
    # reaches a circular target on many of these, where systems() draws
    # mostly end thin or fail its coprimality test
    k = draw(st.integers(1, 3))
    m = draw(st.integers(k + 2, 5))
    moduli = draw(st.sampled_from([g for g in GROUPS if math.prod(g) ** m <= 20_000]))
    group = elements(moduli)
    rows, rhs = equations(draw, group, k, m)
    sets = []
    for _ in range(m):
        gone = draw(st.sets(st.sampled_from(group), max_size=len(group) // 3))
        sets.append([x for x in group if x not in gone])
    return {"moduli": list(moduli), "A": rows, "b": rhs, "X": sets}


# inputs for the route-level properties: about a third of the draws
# standard circular homogeneous and a third wide, so more of them end
# circular
circular_leaning = st.one_of(systems(), standard_systems(), wide_systems())


def run(command, system, cap=system_module.LEAF_BATCH, options=()):
    # the exit code and the report, or on failure the JSON error, of one
    # command with its options on the system, with the walk's levels
    # capped at cap
    doc = {
        "group": {"moduli": system["moduli"]},
        "A": {"rows": len(system["A"]), "cols": len(system["X"]), "data": system["A"]},
        "b": [list(v) for v in system["b"]],
        "X": [[list(v) for v in xs] for xs in system["X"]],
    }
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(system_module, "LEAF_BATCH", cap)
                code = cli.main([command, *options, str(path)])
    return code, json.loads(out.getvalue() or err.getvalue())


def solve(system, cap=system_module.LEAF_BATCH):
    # the solve report's count and rows, each row a tuple of elements
    code, out = run("solve", system, cap)
    assert code == 0
    rows = [tuple(tuple(v) for v in row) for row in out["solutions"]]
    assert out["count"] == len(rows)
    return rows


def pipeline(system, cap=system_module.LEAF_BATCH):
    # what a transform keeps of the pipeline report: the outcome, each
    # stage's name and solution count, and the verification's verdict
    # (None for an outcome without one); a failure keeps its exit code and
    # error kind
    code, out = run("pipeline", system, cap)
    if code:
        return code, out["error"]["kind"]
    stages = [(st["stage"], st["solutions"]) for st in out["stages"]]
    verdict = out["verification"]["ok"] if "verification" in out else None
    return code, out["outcome"], stages, verdict


def permute(system, perm):
    # new coordinate j carries old coordinate perm[j], with its set
    return {
        **system,
        "A": [[row[p] for p in perm] for row in system["A"]],
        "X": [system["X"][p] for p in perm],
    }


def translate(system, t):
    # b becomes b - A t, and X_j becomes X_j - t_j
    mods = system["moduli"]

    def sub(x, y, c=1):
        return tuple((a - c * b) % q for a, b, q in zip(x, y, mods))

    rhs = []
    for row, b in zip(system["A"], system["b"]):
        for c, tj in zip(row, t):
            b = sub(b, tj, c)
        rhs.append(b)
    return {
        **system,
        "b": rhs,
        "X": [sorted({sub(x, tj) for x in xs}) for xs, tj in zip(system["X"], t)],
    }


def unscale(mods, u):
    # x -> u^-1 x on the group, the inverse taken mod its exponent
    inv = pow(u, -1, math.lcm(*mods))
    return lambda x: tuple(inv * a % q for a, q in zip(x, mods))


def scale(system, j, u):
    # column j becomes u times itself and X_j becomes u^-1 X_j, so the
    # solutions map by x_j -> u^-1 x_j
    image = unscale(system["moduli"], u)
    return {
        **system,
        "A": [row[:j] + [u * row[j]] + row[j + 1 :] for row in system["A"]],
        "X": [
            sorted(map(image, xs)) if c == j else xs
            for c, xs in enumerate(system["X"])
        ],
    }


@st.composite
def scalings(draw, system):
    # a column and a unit mod the group exponent to scale it by
    e = math.lcm(*system["moduli"])
    j = draw(st.integers(0, len(system["X"]) - 1))
    u = draw(st.sampled_from([u for u in range(1, e) if math.gcd(u, e) == 1]))
    return j, u


def automorphism(moduli, units):
    # x -> (u_f x_f) on the group, u_f a unit mod the order of factor f
    return lambda x: tuple(u * a % q for u, a, q in zip(units, x, moduli))


def apply_automorphism(system, units):
    # b and every set are mapped by the automorphism, which commutes with
    # the integer matrix, so the solutions map by it too
    image = automorphism(system["moduli"], units)
    return {
        **system,
        "b": [image(v) for v in system["b"]],
        "X": [sorted(map(image, xs)) for xs in system["X"]],
    }


@st.composite
def automorphisms(draw, system):
    # a unit mod each cyclic factor's order
    return [
        draw(st.sampled_from([u for u in range(1, q) if math.gcd(u, q) == 1]))
        for q in system["moduli"]
    ]


def left_multiply(system, ops):
    # (A | b) becomes L (A | b), L the product of the elementary row
    # operations in ops: swapping rows i and j, scaling row i by a unit u
    # mod the exponent, or adding c times row j to row i.  det L is then a
    # unit mod the exponent, so L (A | b) has the solutions of (A | b)
    mods = system["moduli"]
    rows = [list(row) for row in system["A"]]
    rhs = [tuple(v) for v in system["b"]]
    for op, i, j, c in ops:
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
            rhs[i], rhs[j] = rhs[j], rhs[i]
        elif op == "scale":
            rows[i] = [c * a for a in rows[i]]
            rhs[i] = tuple(c * a % q for a, q in zip(rhs[i], mods))
        else:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            rhs[i] = tuple((a + c * b) % q for a, b, q in zip(rhs[i], rhs[j], mods))
    return {**system, "A": rows, "b": rhs}


@st.composite
def row_operations(draw, system):
    # one to four elementary row operations on the k rows; a single row
    # is only scaled
    e = math.lcm(*system["moduli"])
    k = len(system["A"])
    units = [u for u in range(1, e) if math.gcd(u, e) == 1]
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["swap", "scale", "add"] if k > 1 else ["scale"]))
        i = draw(st.integers(0, k - 1))
        j = draw(st.sampled_from([r for r in range(k) if r != i] or [i]))
        c = draw(st.sampled_from(units) if op == "scale" else st.integers(-3, 3))
        ops.append((op, i, j, c))
    return ops


@seed(12)
@given(systems(), st.sampled_from(LEVEL_CAPS), st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_solve_follows_a_permutation_of_the_coordinates(system, cap, rng):
    m = len(system["X"])
    perm = rng.sample(range(m), m)
    rows = solve(system)
    assert solve(permute(system, perm), cap) == sorted(
        tuple(x[p] for p in perm) for x in rows
    )


@seed(12)
@given(systems(), st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_solve_follows_a_translation(system, cap, data):
    group = elements(system["moduli"])
    t = [data.draw(st.sampled_from(group)) for _ in system["X"]]
    mods = system["moduli"]
    rows = solve(system)
    assert solve(translate(system, t), cap) == sorted(
        tuple(tuple((a - b) % q for a, b, q in zip(v, tj, mods)) for v, tj in zip(x, t))
        for x in rows
    )


@seed(12)
@given(circular_leaning, st.sampled_from(LEVEL_CAPS), st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_pipeline_follows_a_permutation_of_the_coordinates(system, cap, rng):
    m = len(system["X"])
    perm = rng.sample(range(m), m)
    report = pipeline(system)
    assert report[-1] is not False
    assert pipeline(permute(system, perm), cap) == report


@seed(12)
@given(circular_leaning, st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_pipeline_follows_a_translation(system, cap, data):
    group = elements(system["moduli"])
    t = [data.draw(st.sampled_from(group)) for _ in system["X"]]
    report = pipeline(system)
    assert report[-1] is not False
    assert pipeline(translate(system, t), cap) == report


@seed(12)
@given(systems(), st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_solve_follows_a_unit_scaling_of_a_column(system, cap, data):
    j, u = data.draw(scalings(system))
    image = unscale(system["moduli"], u)
    rows = solve(system)
    assert solve(scale(system, j, u), cap) == sorted(
        x[:j] + (image(x[j]),) + x[j + 1 :] for x in rows
    )


@seed(12)
@given(circular_leaning, st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_pipeline_follows_a_unit_scaling_of_a_column(system, cap, data):
    # a unit column factor multiplies each window determinant holding the
    # column by a unit, so the route, every stage count and the verdict stay
    j, u = data.draw(scalings(system))
    report = pipeline(system)
    assert report[-1] is not False
    assert pipeline(scale(system, j, u), cap) == report


@seed(12)
@given(systems(), st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_solve_follows_a_group_automorphism(system, cap, data):
    units = data.draw(automorphisms(system))
    image = automorphism(system["moduli"], units)
    rows = solve(system)
    assert solve(apply_automorphism(system, units), cap) == sorted(
        tuple(map(image, x)) for x in rows
    )


@seed(12)
@given(circular_leaning, st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_pipeline_follows_a_group_automorphism(system, cap, data):
    # the matrix is unchanged, so is the route; the automorphism maps the
    # solutions of every stage one to one, so every count and the verdict
    # stay
    units = data.draw(automorphisms(system))
    report = pipeline(system)
    assert report[-1] is not False
    assert pipeline(apply_automorphism(system, units), cap) == report


@seed(12)
@given(systems(), st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_solve_follows_a_left_multiplication(system, cap, data):
    ops = data.draw(row_operations(system))
    assert solve(left_multiply(system, ops), cap) == solve(system)


@seed(12)
@given(circular_leaning, st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_pipeline_follows_a_left_multiplication(system, cap, data):
    # det L multiplies every window determinant by a unit, and the
    # standard target (L A_W)^-1 L A is A_W^-1 A, so the route, every
    # stage count and the verdict stay
    ops = data.draw(row_operations(system))
    report = pipeline(system)
    assert report[-1] is not False
    assert pipeline(left_multiply(system, ops), cap) == report


@seed(12)
@given(systems(), st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_remove_follows_a_left_multiplication(system, cap, data):
    # the same solutions in the same sorted order: the same removal, the
    # same certificate, or the same error
    ops = data.draw(row_operations(system))
    assert run("remove", left_multiply(system, ops), cap) == run("remove", system)


@seed(12)
@given(systems(), st.sampled_from(LEVEL_CAPS), st.data())
@settings(max_examples=400, deadline=None)
def test_remove_size_follows_each_transform(system, cap, data):
    # a permutation, a translation or a unit scaling maps the solutions
    # and each coordinate's values one to one, so the removal instance is
    # the same up to relabelling its atoms: the minimum and its proof stay,
    # while the witness and the packing bound may follow the new order.
    # Greedy kills every solution and never beats the minimum
    code, exact = run("remove", system)
    if code:
        return
    kept = exact["total_size"], exact["certificate"]["optimal"]
    m = len(system["X"])
    perm = data.draw(st.permutations(range(m)))
    t = [data.draw(st.sampled_from(elements(system["moduli"]))) for _ in range(m)]
    j, u = data.draw(scalings(system))
    for image in (permute(system, perm), translate(system, t), scale(system, j, u)):
        code, out = run("remove", image, cap)
        assert code == 0, out
        assert (out["total_size"], out["certificate"]["optimal"]) == kept
    code, greedy = run("remove", system, cap, ["--greedy"])
    assert code == 0, greedy
    assert greedy["post_count"] == 0
    assert greedy["total_size"] >= exact["total_size"]


@seed(12)
@given(st.one_of(systems(), standard_systems()))
@settings(max_examples=400, deadline=None)
def test_copy_commands_agree_with_solve(system):
    # every class of a host has |G|^k copies, one class per solution, and
    # the class facts hold, whichever route builds the host; solve lists
    # the solutions without going through a host
    code, out = run("copies", system)
    if code or "count" not in out:
        return
    # a count past 2^53 is written as a decimal string
    order = math.prod(system["moduli"])
    assert int(out["count"]) == len(solve(system)) * order ** (out["arity"] - 1)
    code, report = run("verify", system)
    assert code == 0
    assert report["route"] == out["route"]
    assert report["verdict"] == "PASS", report

"""Seeded inputs for the benchmark workloads.

Each workload is one round of ops: a fixed list of (subcommand, flags,
system family) slots.  The seed only draws the systems inside each family
(coefficients, right-hand sides, restriction sets), so the op mix and the
sizes that set the cost are the same for every seed.  Systems are written
in linremoval's JSON wire format; the program sees nothing else.

Regenerate the inputs of one workload with

    python3 perfbench/gen.py --workload reduce --seed 1 --out perfbench/work/inputs
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

import oracle

BUDGET = 100_000_000  # above every enumeration the workloads need


def wire(moduli, A, b, X) -> dict:
    return {
        "group": {"moduli": list(moduli)},
        "A": {"rows": len(A), "cols": len(A[0]), "data": [list(r) for r in A]},
        "b": [list(e) for e in b],
        "X": [[list(e) for e in xs] for xs in X],
    }


def _subsets(rng, moduli, m, size):
    group = oracle.elements(moduli)
    return [sorted(rng.sample(group, size)) for _ in range(m)]


def _random_rhs(rng, moduli, k):
    return [tuple(rng.randrange(q) for q in moduli) for _ in range(k)]


def _coprime_matrix(rng, n, k, m):
    """Small-entry k x m matrix of rank k with gcd(d_k, n) = 1."""
    while True:
        A = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        dk = oracle.determinantal_divisor(A)
        if dk and math.gcd(dk, n) == 1:
            return A


def _keep(moduli, A, b, X, non_thin: bool) -> dict | None:
    system = oracle.System(
        tuple(moduli), tuple(map(tuple, A)), tuple(map(tuple, b)),
        tuple(tuple(xs) for xs in X),
    )
    sols = oracle.solutions(system)
    if not sols or (non_thin and oracle.is_thin(system, sols)):
        return None
    return wire(moduli, A, b, X)


def sum_system(rng, moduli, m, size):
    """x1 + ... + xm = b with restriction sets of the given size."""
    while True:
        out = _keep(
            moduli, [[1] * m], _random_rhs(rng, moduli, 1),
            _subsets(rng, moduli, m, size), non_thin=True,
        )
        if out:
            return out


def random_system(rng, moduli, k, m, size):
    """Coprime, non-thin k x m system with small random coefficients."""
    n = math.prod(moduli)
    while True:
        out = _keep(
            moduli, _coprime_matrix(rng, n, k, m), _random_rhs(rng, moduli, k),
            _subsets(rng, moduli, m, size), non_thin=True,
        )
        if out:
            return out


def circular_system(rng, moduli, k, m, size):
    """Homogeneous (I_k | B) whose cyclic k-column windows are units mod n.

    The last k coordinates range over the whole group.  They form a window,
    so every choice on the other coordinates has exactly one completion and
    the solution count is size ** (m - k) for every seed.
    """
    n = math.prod(moduli)
    while True:
        B = [[rng.randrange(1, n) for _ in range(m - k)] for _ in range(k)]
        A = [[int(i == j) for j in range(k)] + B[i] for i in range(k)]
        if k == 1:
            dets = [A[0][j] for j in range(m)]
        else:
            dets = [
                A[0][j] * A[1][(j + 1) % m] - A[0][(j + 1) % m] * A[1][j]
                for j in range(m)
            ]
        if any(math.gcd(d, n) != 1 for d in dets):
            continue
        zero = [tuple(0 for _ in moduli)] * k
        X = _subsets(rng, moduli, m - k, size) + [oracle.elements(moduli)] * k
        out = _keep(moduli, A, zero, X, non_thin=False)
        if out:
            return out


def z6_fault_system():
    """The one seed-independent input.  The row divisors of its identity
    form share a factor with |G| = 6, and default `remove` returns 6
    elements where the minimum is 3: a known fault, counted as failed."""
    A = [[0, -2, 0, 2, -1], [-1, 0, 1, -3, -2]]
    return wire([6], A, [[2], [4]], [oracle.elements([6])] * 5)


# Slots: (count, subcommand and flags, family, family arguments).  Within a
# workload the families differ in cost, so the op at the median and the op
# at the tail percentile always come from the same family, one whose cost
# hardly depends on the seed.
WORKLOADS = {
    "reduce": [
        (1, ["pipeline"], sum_system, ([5], 5, 5)),
        (1, ["pipeline"], random_system, ([7], 2, 5, 5)),
        (4, ["pipeline"], sum_system, ([5], 4, 5)),
        (8, ["pipeline"], random_system, ([11], 2, 4, 7)),
        (12, ["pipeline", "--trace"], sum_system, ([3, 5], 3, 12)),
        (7, ["pipeline", "--trace"], sum_system, ([5], 3, 4)),
        (7, ["pipeline"], sum_system, ([7], 3, 5)),
    ],
    "remove": [
        (1, ["remove"], None, ()),
        (14, ["remove"], random_system, ([67], 1, 3, 9)),
        (12, ["remove"], random_system, ([59], 1, 3, 9)),
        (5, ["remove", "--greedy"], random_system, ([37], 1, 3, 8)),
        (4, ["remove", "--greedy"], random_system, ([10], 1, 3, 6)),
        (4, ["remove", "--greedy"], random_system, ([3, 5], 1, 3, 8)),
    ],
    "encode": [
        (1, ["copies"], circular_system, ([17], 1, 4, 5)),
        (1, ["copies", "--full"], circular_system, ([3, 5], 1, 4, 6)),
        (1, ["verify"], circular_system, ([13], 1, 4, 5)),
        (2, ["verify"], circular_system, ([11], 2, 4, 5)),
        (2, ["copies", "--full"], circular_system, ([7], 1, 5, 3)),
        (4, ["copies"], circular_system, ([11], 1, 4, 4)),
        (4, ["verify"], circular_system, ([11], 1, 4, 3)),
        (12, ["verify"], circular_system, ([5], 1, 5, 3)),
        (5, ["copies", "--full"], circular_system, ([7], 2, 4, 2)),
        (5, ["verify"], circular_system, ([7], 1, 4, 5)),
        (5, ["copies"], circular_system, ([7], 1, 4, 2)),
    ],
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one input file per op slot into ``out``; return the plan."""
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    ops = []
    for count, flags, family, fargs in WORKLOADS[workload]:
        for _ in range(count):
            op_id = f"{len(ops):03d}"
            obj = z6_fault_system() if family is None else family(rng, *fargs)
            path = out / f"{op_id}.json"
            path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
            argv = [flags[0], str(path), *flags[1:], "--budget", str(BUDGET)]
            ops.append({"id": op_id, "argv": argv, "input": str(path)})
    return {"workload": workload, "seed": seed, "ops": ops}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    plan = generate(args.workload, args.seed, args.out)
    (args.out / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
    print(f"{len(plan['ops'])} ops written to {args.out}")


if __name__ == "__main__":
    main()

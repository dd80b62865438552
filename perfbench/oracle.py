"""Independent arithmetic for checking linremoval's outputs.

Nothing here imports linremoval.  Systems are read straight from the JSON
wire format, solutions are found by brute force over the restriction
product with NumPy, minimum removals are solved as minimum hitting sets
with SciPy's HiGHS MILP, and window nonsingularity is tested by Gaussian
elimination over GF(p).  Group elements are tuples of residues, as in the
wire format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


@dataclass(frozen=True)
class System:
    moduli: tuple[int, ...]
    A: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    X: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def k(self) -> int:
        return len(self.A)

    @property
    def m(self) -> int:
        return len(self.A[0])


def parse_system(obj) -> System:
    # int() also reads the decimal strings that carry integers >= 2**53
    moduli = tuple(int(v) for v in obj["group"]["moduli"])
    A = tuple(tuple(int(v) for v in row) for row in obj["A"]["data"])
    b = tuple(
        tuple(int(v) % q for v, q in zip(e, moduli)) for e in obj["b"]
    )
    X = tuple(
        tuple(sorted({tuple(int(v) % q for v, q in zip(e, moduli)) for e in xs}))
        for xs in obj["X"]
    )
    return System(moduli, A, b, X)


def elements(moduli) -> list[tuple[int, ...]]:
    grids = np.indices(moduli).reshape(len(moduli), -1).T
    return [tuple(int(v) for v in row) for row in grids]


def solutions(system: System) -> list[tuple[tuple[int, ...], ...]]:
    """Every x in X_1 x ... x X_m with A x = b, by brute force, sorted."""
    if any(not xs for xs in system.X):
        return []
    m, rank = system.m, len(system.moduli)
    sets = [np.array(xs, dtype=np.int64).reshape(-1, rank) for xs in system.X]
    index = np.indices([len(s) for s in sets]).reshape(m, -1)
    cand = np.stack([sets[j][index[j]] for j in range(m)], axis=1)
    keep = np.ones(cand.shape[0], dtype=bool)
    mod = np.array(system.moduli, dtype=np.int64)
    for row, rhs in zip(system.A, system.b):
        coeff = np.array(row, dtype=np.int64)
        acc = np.einsum("j,njc->nc", coeff, cand) % mod
        keep &= np.all(acc == np.array(rhs, dtype=np.int64), axis=1)
    hits = cand[keep]
    out = [tuple(tuple(int(v) for v in e) for e in x) for x in hits]
    out.sort()
    return out


def determinantal_divisor(A) -> int:
    """gcd of all k x k minors, for k = 1 or 2 (the shapes generated here)."""
    k, m = len(A), len(A[0])
    if k == 1:
        return math.gcd(*A[0])
    if k == 2:
        g = 0
        for i in range(m):
            for j in range(i + 1, m):
                g = math.gcd(g, A[0][i] * A[1][j] - A[0][j] * A[1][i])
        return g
    raise ValueError("only k = 1 or 2 is supported")


def is_thin(system: System, sols) -> bool:
    """At most one solution, or some coordinate constant across them all."""
    if len(sols) <= 1:
        return True
    return any(len({x[j] for x in sols}) == 1 for j in range(system.m))


def min_hitting_set(sols, m: int) -> int:
    """Fewest (coordinate, value) atoms meeting every solution, by MILP."""
    if not sols:
        return 0
    atoms = sorted({(j, x[j]) for x in sols for j in range(m)})
    col = {a: i for i, a in enumerate(atoms)}
    rows = np.zeros((len(sols), len(atoms)))
    for r, x in enumerate(sols):
        for j in range(m):
            rows[r, col[(j, x[j])]] = 1.0
    res = milp(
        c=np.ones(len(atoms)),
        constraints=LinearConstraint(rows, lb=1.0, ub=np.inf),
        integrality=np.ones(len(atoms)),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"MILP failed: {res.message}")
    return int(round(res.fun))


def primes_dividing(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def windows_nonsingular_mod(matrix, p: int) -> bool:
    """Every cyclic window of k consecutive columns has full rank over GF(p).

    All m windows are eliminated together as one (m, k, k) stack; a window
    that runs out of pivots is singular.
    """
    mat = np.array(matrix, dtype=np.int64) % p
    k, m = mat.shape
    cols = (np.arange(m)[:, None] + np.arange(k)[None, :]) % m
    work = np.ascontiguousarray(np.transpose(mat[:, cols], (1, 0, 2)))
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    batch = np.arange(m)
    for c in range(k):
        nonzero = work[:, c:, c] != 0
        if not nonzero.any(axis=1).all():
            return False
        piv = nonzero.argmax(axis=1) + c
        top = work[batch, c].copy()
        work[batch, c] = work[batch, piv]
        work[batch, piv] = top
        lead = inverse[work[:, c, c]]
        work[:, c] = work[:, c] * lead[:, None] % p
        below = work[:, c + 1 :, c][:, :, None]
        work[:, c + 1 :] = (work[:, c + 1 :] - below * work[:, c][:, None, :]) % p
    return True


def annihilates(matrix, kernel, n: int) -> bool:
    """matrix . kernel = 0 (mod n); entries are reduced first, so int64
    products of at most a few hundred terms cannot overflow."""
    a = np.array(matrix, dtype=np.int64) % n
    b = np.array(kernel, dtype=np.int64) % n
    return not np.any(a @ b % n)

"""Finite abelian groups presented as products of cyclic factors.

Elements are plain tuples of residues, one per factor.  The group object
carries the arithmetic; everything reduces componentwise, so integer matrices
act on element vectors through ordinary modular sums: ``combine`` is the one
routine for a row times a vector, behind the copy label check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import PreconditionError

Element = tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroup:
    moduli: tuple[int, ...]

    def __init__(self, moduli):
        mods = tuple(int(m) for m in moduli)
        if not mods or any(m < 1 for m in mods):
            raise PreconditionError("moduli must be a nonempty list of positive integers")
        object.__setattr__(self, "moduli", mods)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    def reduce(self, vec) -> Element:
        """Reduce an integer vector componentwise; negatives wrap around."""
        if len(vec) != len(self.moduli):
            raise PreconditionError(
                f"element has {len(vec)} components, group has {len(self.moduli)}"
            )
        return tuple(int(v) % m for v, m in zip(vec, self.moduli))

    def scale(self, c: int, x: Element) -> Element:
        return tuple((c * a) % m for a, m in zip(x, self.moduli))

    def combine(self, coeffs, elems) -> Element:
        """The integer combination sum(c_i * x_i) of a vector of elements.

        Sums plain integers per cyclic factor, skipping zero coefficients,
        and reduces each factor once at the end; coefficients may be any
        integers.  Empty input gives the zero element.
        """
        acc = [0] * len(self.moduli)
        for c, x in zip(coeffs, elems):
            if c:
                for f, r in enumerate(x):
                    acc[f] += c * r
        return tuple(a % m for a, m in zip(acc, self.moduli))

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic residue order."""
        return tuple(product(*(range(m) for m in self.moduli)))


def scalar_inverse(d: int, group: AbelianGroup) -> int:
    """Integer d' in [1, exponent] with d' * (d * g) == g for every g.

    Requires gcd(d, |G|) == 1; the inverse is taken modulo the group
    exponent, which has the same prime support as the order.
    """
    if math.gcd(d, group.order) != 1:
        raise PreconditionError(f"{d} is not invertible on a group of order {group.order}")
    e = group.exponent
    if e == 1:
        return 1
    return pow(d % e, -1, e)


def scaling_preimage(s: int, x: Element, group: AbelianGroup) -> tuple[Element, ...]:
    """All y with s*y == x, sorted; empty when some component congruence
    has no solution."""
    if len(x) != len(group.moduli):
        raise PreconditionError("element does not match the group")
    axes = []
    for xi, m in zip(x, group.moduli):
        g = math.gcd(s, m)
        if xi % g:
            return ()
        step = m // g
        if step == 1:
            # s acts as zero on this component, every residue works
            axes.append(range(m))
            continue
        base = (xi // g) * pow((s // g) % step, -1, step) % step
        axes.append(range(base, m, step))
    return tuple(product(*axes))

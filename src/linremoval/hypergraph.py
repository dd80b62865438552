"""Colored-hypergraph encoding of a circular homogeneous system.

The template has m vertices and one edge per color i: the cyclic window
{i, ..., i+k}.  It is never built, and neither is the host, which puts a
copy of the group at every position: a window of group values forms the
color-i edge exactly when its label, kernel row i read on the window,
lies in that coordinate's restriction set.  Copies of the template are
the solutions of a lifted linear system, enumerated by the pruned pivot
walk of ``system``.

A host's kernel K is zero outside the windows, so the labels of x are K x
and the copies with labels y, a class, are the fibre K x = y, a coset of
ker K.  So the counting facts the encoding stands on (label vectors are
exactly the solutions of the restricted system, every class has exactly
|G|^k pairwise edge-disjoint copies, and every copy's labels solve the
system) follow from the Smith invariants of A, K and its column blocks
modulo each cyclic factor of the group and from the number of solutions,
which ``copy_class_structure`` reads off without listing a copy.
``verify_copy_classes`` and ``verify_copy_labels`` check the same facts on
a listed copy set, copy by copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .abelian import AbelianGroup, Element
from .errors import PreconditionError
from .intmat import IntMatrix, smith_invariants_mod
from .system import (
    DEFAULT_BUDGET,
    RestrictedSystem,
    _check_budget,
    count_solutions,
    enumerate_solutions,
)


@dataclass(frozen=True)
class HostHypergraph:
    """Implicit host: one group copy per position, edges by label predicate.

    A host is its homogeneous circular system, whose sets restrict the
    labels, plus that system's kernel matrix, such as a CircularSystem's.
    The kernel is taken as given, so a forged one can be fed to the
    verifiers, but row i must be zero outside its window {i, ..., i+k}, as
    every built kernel is.
    """

    system: RestrictedSystem
    kernel_matrix: IntMatrix

    def __post_init__(self):
        k, m = self.arity_base, self.positions
        if not self.system.is_homogeneous():
            raise PreconditionError("host system must be homogeneous")
        if self.kernel_matrix.rows != m or self.kernel_matrix.cols != m:
            raise PreconditionError("kernel matrix must be square of size m")
        if m < k + 2:
            raise PreconditionError("need m >= k + 2 positions")
        for i, row in enumerate(self.kernel_matrix.data):
            if any(row[(i + t) % m] for t in range(k + 1, m)):
                raise PreconditionError(
                    f"kernel row {i} has a nonzero entry outside its window"
                )

    @property
    def group(self) -> AbelianGroup:
        return self.system.group

    @property
    def positions(self) -> int:
        return self.system.variables

    @property
    def arity_base(self) -> int:
        return self.system.equations


def enumerate_copies(
    host: HostHypergraph, budget: int = DEFAULT_BUDGET
) -> list[tuple[Element, ...]]:
    """All template copies as sorted 2m-tuples (x, y), assignment first.

    The host is its circular system plus its kernel K.  A copy is an
    assignment x in G^m whose every color label lands in the system's
    restriction set of that color; label i is ``group.combine`` of kernel
    row i, zero outside its window {i, ..., i+k}, with x.  So the copies
    are the solutions (x, y) of the lifted system [-K | I_m] (x, y) = 0,
    with x over the whole group and y_i in color i's set, and the solution
    order of ``enumerate_solutions`` is already assignment order.  Its unit-pivot
    reduction solves for the whole-group x columns and walks the small
    label sets, cutting a branch the moment a label pinned by the walked
    values leaves its set.  The budget is checked against all |G|^m
    assignments first.  Without a check row (a row left with no unit mod a
    composite exponent) the walk takes at most |G|^m candidates; with one,
    the walk's own budget check still bounds it.  A copy c has assignment
    ``c[:m]`` and labels ``c[m:]``.
    """
    _check_budget(host.group.order**host.positions, budget, "assignments")
    return enumerate_solutions(_lifted_system(host), budget)


def _lifted_system(host: HostHypergraph) -> RestrictedSystem:
    """[-K | I_m] (x, y) = 0 with x over the whole group and y_i in color
    i's set: its solutions are the copies, assignment first."""
    m = host.positions
    group = host.group
    lifted = IntMatrix(
        [
            [-c for c in row] + [int(i == j) for j in range(m)]
            for i, row in enumerate(host.kernel_matrix.data)
        ]
    )
    # the whole group and the host system's sets are already checked
    return RestrictedSystem._built(
        group,
        lifted,
        (group.zero,) * m,
        (group.elements(),) * m + host.system.restrictions,
    )


def kernel_order(rows, moduli) -> int:
    """|ker M| on G^cols for the matrix M with the given rows and
    G = Z_q1 x ... x Z_qr: the product over factors q and columns j of
    gcd(s_j, q), s_j the j-th Smith invariant of M (0 past the rank), each
    read off ``smith_invariants_mod`` of M over Z/q."""
    cols = len(rows[0])
    order = 1
    for q in moduli:
        invariants = smith_invariants_mod(rows, q)
        order *= math.prod(invariants) * q ** (cols - len(invariants))
    return order


@dataclass
class ClassReport:
    ok: bool
    kernel_ok: bool
    labels_match: bool
    class_sizes_ok: bool
    disjoint_ok: bool
    copy_count: int | None
    class_count: int | None
    expected_class_size: int
    solution_count: int
    problems: list[str]


@dataclass
class LabelReport:
    ok: bool
    problems: list[str]


def copy_class_structure(
    host: HostHypergraph, budget: int = DEFAULT_BUDGET
) -> tuple[ClassReport, LabelReport]:
    """The class and label facts of the copy set, without listing a copy.

    The copies labelled y are the fibre K x = y, a coset of ker K whenever
    y is in the image, so over G = Z_q1 x ... x Z_qr:

    - labels: A K == 0 modulo every q (the group exponent, not |G|) puts
      every label vector in ker A, so every copy's labels solve the system;
      |G|^m / |ker K| == |ker A| then makes im K = ker A, and the classes
      are exactly the solutions of the host's circular system in its
      restriction sets.
    - class sizes: every class has |ker K| members, which must be |G|^k.
    - edge-disjointness: two members of a class differ by some d in ker K
      and share their color-i edge iff d vanishes on window i, so K cut to
      the m - k - 1 columns outside window i must have trivial kernel.

    Kernel orders come from ``kernel_order``, and the solutions are
    counted by ``count_solutions`` under the budget.  Every class is a
    coset of the same kernel, so a size or edge problem names the least
    solution, the class a listing reports first; only then are the
    solutions listed.  With no solutions there is no class and both facts
    hold, as in the listing.  The one product A K is checked modulo n, as
    in ``verify_copy_classes``, and modulo the exponent for the labels, so
    a forged kernel is reported, not trusted.  Unless labels_match holds
    the classes are not the solutions, and the counts are None: only a
    listing could count them.
    """
    problems: list[str] = []
    group = host.group
    n, e, moduli = group.order, group.exponent, group.moduli
    k, m = host.arity_base, host.positions

    kernel = host.kernel_matrix.data
    # the host's circular system: its solutions in its sets label the classes
    circular = host.system
    product = circular.matrix @ host.kernel_matrix
    kernel_ok = all(v % n == 0 for row in product.data for v in row)
    if not kernel_ok:
        problems.append("kernel matrix does not annihilate the system matrix")

    bad = next(
        (j for j in range(m) if any(row[j] % e for row in product.data)), None
    )
    label_problems = []
    if bad is not None:
        label_problems.append(
            f"labels from windowed kernel column {bad} fail the system"
        )
    problems += label_problems
    class_size = kernel_order(kernel, moduli)
    image = n**m // class_size
    solved = kernel_order(circular.matrix.data, moduli)
    if image != solved:
        problems.append(
            f"the windowed kernel has {image} label vectors, "
            f"the unrestricted system {solved} solutions"
        )
    labels_match = not label_problems and image == solved

    expected = n**k
    solution_count = count_solutions(circular, budget)
    class_sizes_ok = disjoint_ok = True
    if solution_count:
        class_sizes_ok = class_size == expected
        for i in range(m):
            outside = [(i + t) % m for t in range(k + 1, m)]
            block = [[row[j] for j in outside] for row in kernel]
            if kernel_order(block, moduli) != 1:
                disjoint_ok = False
                break
    if not (class_sizes_ok and disjoint_ok):
        first = enumerate_solutions(circular, budget)[0]
        if not class_sizes_ok:
            problems.append(
                f"class {first} has {class_size} copies, expected {expected}"
            )
        if not disjoint_ok:
            problems.append(f"class {first} repeats a color-{i} edge")

    classes = ClassReport(
        ok=kernel_ok and labels_match and class_sizes_ok and disjoint_ok,
        kernel_ok=kernel_ok,
        labels_match=labels_match,
        class_sizes_ok=class_sizes_ok,
        disjoint_ok=disjoint_ok,
        copy_count=solution_count * class_size if labels_match else None,
        class_count=solution_count if labels_match else None,
        expected_class_size=expected,
        solution_count=solution_count,
        problems=problems,
    )
    return classes, LabelReport(ok=not label_problems, problems=label_problems)


def verify_copy_classes(
    host: HostHypergraph,
    copies: list[tuple[Element, ...]],
    solutions,
) -> ClassReport:
    """Check the class structure of the copy set against the solution list.

    Classes collect copies sharing a label vector.  The distinct label
    vectors must be exactly the given solutions, every class must have
    exactly |G|^k members, and within a class no two copies may share an
    edge (same color with the same window): per class and color, the
    members' windows, read off each copy by one itemgetter, must all be
    distinct.  A copy c has assignment ``c[:m]`` and labels ``c[m:]``.  The
    kernel product is re-checked here so a corrupted kernel matrix is
    reported, not trusted.
    """
    problems: list[str] = []
    n = host.group.order
    k, m = host.arity_base, host.positions

    prod_rows = (host.system.matrix @ host.kernel_matrix).data
    kernel_ok = all(v % n == 0 for row in prod_rows for v in row)
    if not kernel_ok:
        problems.append("kernel matrix does not annihilate the system matrix")

    classes: dict[tuple[Element, ...], list[tuple[Element, ...]]] = {}
    for copy in copies:
        classes.setdefault(copy[m:], []).append(copy)

    expected = n**k
    labels_match = set(classes) == set(solutions)
    if not labels_match:
        extra = sorted(set(classes) - set(solutions))
        missing = sorted(set(solutions) - set(classes))
        if extra:
            problems.append(f"label vectors that are not solutions: {extra[:3]}")
        if missing:
            problems.append(f"solutions with no copies: {missing[:3]}")

    ordered = sorted(classes.items())
    class_sizes_ok = True
    for label, members in ordered:
        if len(members) != expected:
            class_sizes_ok = False
            problems.append(
                f"class {label} has {len(members)} copies, expected {expected}"
            )

    windows = [itemgetter(*[(i + t) % m for t in range(k + 1)]) for i in range(m)]
    disjoint_ok = True
    for label, members in ordered:
        for i, window in enumerate(windows):
            if len(set(map(window, members))) != len(members):
                disjoint_ok = False
                problems.append(f"class {label} repeats a color-{i} edge")
                break
        if not disjoint_ok:
            break

    return ClassReport(
        ok=kernel_ok and labels_match and class_sizes_ok and disjoint_ok,
        kernel_ok=kernel_ok,
        labels_match=labels_match,
        class_sizes_ok=class_sizes_ok,
        disjoint_ok=disjoint_ok,
        copy_count=len(copies),
        class_count=len(classes),
        expected_class_size=expected,
        solution_count=len(solutions),
        problems=problems,
    )


def verify_copy_labels(
    host: HostHypergraph, copies: list[tuple[Element, ...]]
) -> LabelReport:
    """Check that every copy's label vector ``c[m:]`` solves the homogeneous
    system.

    Each distinct label vector is evaluated once; the copies are still read
    in order, so the first failing copy is the one reported.
    """
    m = host.positions
    group = host.group
    zero = group.zero
    rows = host.system.matrix.data
    problems: list[str] = []
    verdicts: dict[tuple[Element, ...], bool] = {}
    for copy in copies:
        labels = copy[m:]
        if labels not in verdicts:
            verdicts[labels] = all(group.combine(row, labels) == zero for row in rows)
        if not verdicts[labels]:
            problems.append(
                f"labels {labels} fail the system at assignment "
                f"{copy[:m]}"
            )
            break
    return LabelReport(ok=not problems, problems=problems)

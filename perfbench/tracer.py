"""Spans around linremoval's public functions, installed from outside.

The modules import each other with ``from .x import y``, so a function is
replaced in every linremoval module namespace that holds it; methods and
constructors are replaced on their class.  Each call records one span:
name, CPU start and end, parent span and op id.  Counters are derived from
each call's arguments and result.  Spans stay in memory; the runner writes
them out when the run ends.  Standard library only.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# Layer metric names, and where each callable lives: (module, attribute)
# for functions, (module, class, method) for methods and constructors.
TARGETS = {
    "intmat.smith_normal_form": ("intmat", "smith_normal_form"),
    "intmat.complete_to_square": ("intmat", "complete_to_square"),
    "intmat.n_good_padding": ("intmat", "n_good_padding"),
    "intmat.matmul": ("intmat", "IntMatrix", "__matmul__"),
    "intmat.determinantal_divisor": ("intmat", "determinantal_divisor"),
    "system.enumerate_solutions": ("system", "enumerate_solutions"),
    "system.verify_extension": ("system", "verify_extension"),
    "system.RestrictedSystem": ("system", "RestrictedSystem", "__init__"),
    "system.pull_back_removal": ("system", "pull_back_removal"),
    "pipeline.full_extension": ("pipeline", "full_extension"),
    "pipeline.is_circular": ("pipeline", "is_circular"),
    "pipeline.build_kernel_matrix": ("pipeline", "build_kernel_matrix"),
    "pipeline.CircularSystem": ("pipeline", "CircularSystem", "__init__"),
    "pipeline.circularize": ("pipeline", "circularize"),
    "removal.min_removal_exact": ("removal", "min_removal_exact"),
    "removal.greedy_removal": ("removal", "greedy_removal"),
    "hypergraph.enumerate_copies": ("hypergraph", "enumerate_copies"),
    "hypergraph.verify_copy_classes": ("hypergraph", "verify_copy_classes"),
    "hypergraph.verify_copy_labels": ("hypergraph", "verify_copy_labels"),
    "jsonio.decode_system": ("jsonio", "decode_system"),
    "jsonio.dump": ("jsonio", "dump"),
    "cli.main": ("cli", "main"),
}


def _candidates(system) -> int:
    """Candidates enumerate_solutions walks: the free coordinates' product
    under an identity left block, the whole restriction product otherwise."""
    sets = system.restrictions
    if any(not xs for xs in sets):
        return 0
    k = len(system.matrix.data)
    data = system.matrix.data
    identity = all(data[i][j] == int(i == j) for i in range(k) for j in range(k))
    return math.prod(len(xs) for xs in (sets[k:] if identity else sets))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self._child_solutions: dict[int, list] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.process_time
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(idx, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every loaded linremoval module."""
        modules = [
            mod for key, mod in sys.modules.items()
            if key.split(".")[0] == "linremoval"
        ]
        for name, where in TARGETS.items():
            home = sys.modules[f"linremoval.{where[0]}"]
            if len(where) == 3:
                cls = getattr(home, where[1])
                setattr(cls, where[2], self.wrap(name, cls.__dict__[where[2]]))
                continue
            original = getattr(home, where[1])
            traced = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    # Counters, named after the span they belong to.

    def _count_system_enumerate_solutions(self, idx, args, kwargs, result):
        self.counts["system.enumerate_solutions.candidates"] += _candidates(args[0])
        self.counts["system.enumerate_solutions.solutions"] += len(result)
        parent = self.spans[idx][3]
        if parent >= 0 and self.spans[parent][0] == "removal.min_removal_exact":
            self._child_solutions.setdefault(parent, result)

    def _count_removal_min_removal_exact(self, idx, args, kwargs, result):
        system = args[0]
        protected = set(args[1] if len(args) > 1 else kwargs.get("protected", ()))
        sols = self._child_solutions.pop(idx, [])
        free = [j for j in range(system.matrix.cols) if j not in protected]
        atoms = {(j, x[j]) for x in sols for j in free}
        self.counts["removal.min_removal_exact.atoms"] += len(atoms)

    def _count_pipeline_is_circular(self, idx, args, kwargs, result):
        self.counts["pipeline.is_circular.windows"] += args[0].cols

    def _count_pipeline_full_extension(self, idx, args, kwargs, result):
        if result.circular is not None:
            self.counts["pipeline.target_cols"] += result.circular.variables

    def _count_hypergraph_enumerate_copies(self, idx, args, kwargs, result):
        host = args[0]
        self.counts["hypergraph.enumerate_copies.assignments"] += (
            host.group.order ** host.positions
        )
        self.counts["hypergraph.enumerate_copies.copies"] += len(result)

    def _count_jsonio_dump(self, idx, args, kwargs, result):
        self.counts["jsonio.dump.bytes"] += len(result)

    def self_times(self) -> dict[str, float]:
        """Per-name totals of span duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

"""Checks each op's report against the independent oracle.

``check_op`` returns None when the report is right, ``FAULT`` when a
default ``remove`` returned a feasible removal larger than the minimum
(the known pull-back fault, counted as a failed op), and a message for
anything else, which makes the run incorrect.
"""

from __future__ import annotations

import json
from collections import defaultdict

import oracle

FAULT = "remove is feasible but larger than the minimum"


def _elem(v) -> tuple[int, ...]:
    return tuple(int(x) for x in v)


def _matrix(obj) -> list[list[int]]:
    return [[int(v) for v in row] for row in obj["data"]]


def check_pipeline(system, sols, argv, rep) -> str | None:
    count = len(sols)
    if rep["outcome"] != "circular":
        return f"outcome {rep['outcome']!r}, expected 'circular'"
    if rep["solutions"] != count:
        return f"solutions {rep['solutions']} != brute force {count}"
    for stage in rep["stages"]:
        if stage["solutions"] != count:
            return f"stage {stage['stage']} counts {stage['solutions']}, not {count}"
    ver = rep["verification"]
    if not ver["ok"]:
        return f"verification failed: {ver['problems'][:2]}"
    if ver["source_count"] != count or ver["target_count"] != count:
        return "verification counts differ from brute force"
    target = rep["target"]
    if target["variables"] - target["equations"] != system.m - system.k:
        return "target variables minus equations is not m - k"
    if not rep["target_circular"]:
        return "target is not circular"
    if "--trace" in argv:
        circ = _matrix(rep["matrices"]["circular"])
        kernel = _matrix(rep["matrices"]["kernel"])
        n = target["modulus"]
        for p in oracle.primes_dividing(n):
            if not oracle.windows_nonsingular_mod(circ, p):
                return f"a cyclic window of the circular matrix is singular mod {p}"
        if not oracle.annihilates(circ, kernel, n):
            return "circular . kernel is not 0 mod n"
    return None


def check_remove(system, sols, argv, rep) -> str | None:
    removed = [{_elem(v) for v in xs} for xs in rep["removed"]]
    if len(removed) != system.m:
        return "removal has the wrong number of coordinates"
    if rep["post_count"] != 0:
        return f"post_count {rep['post_count']}"
    if rep["total_size"] != sum(len(xs) for xs in removed):
        return "total_size does not match the removed sets"
    for j, gone in enumerate(removed):
        if not gone <= set(system.X[j]):
            return f"coordinate {j + 1} removes values outside its restriction set"
    for x in sols:
        if not any(x[j] in removed[j] for j in range(system.m)):
            return f"solution {x} survives the removal"
    minimum = oracle.min_hitting_set(sols, system.m)
    total = rep["total_size"]
    if total < minimum:
        return f"total {total} is below the MILP minimum {minimum}"
    if "--greedy" not in argv and total != minimum:
        return FAULT
    return None


def check_copies(system, sols, argv, rep) -> str | None:
    n, k, m = system.order, system.k, system.m
    if rep.get("route") != "direct":
        return f"route {rep.get('route')!r}, expected 'direct'"
    expected = len(sols) * n**k
    if rep["count"] != expected:
        return f"count {rep['count']} != solutions * |G|^k = {expected}"
    if "--full" not in argv:
        return None
    copies = rep["copies"]
    if len(copies) != expected:
        return f"{len(copies)} copies listed, count is {expected}"
    solset = set(sols)
    classes = defaultdict(list)
    seen = set()
    for c in copies:
        labels = tuple(_elem(v) for v in c["labels"])
        assignment = tuple(_elem(v) for v in c["assignment"])
        if labels not in solset:
            return f"labels {labels} do not solve the system inside its sets"
        if assignment in seen:
            return f"assignment {assignment} is listed twice"
        seen.add(assignment)
        classes[labels].append(assignment)
    if set(classes) != solset:
        return "some solution has no copies"
    for labels, members in classes.items():
        if len(members) != n**k:
            return f"class {labels} has {len(members)} copies, not {n**k}"
        for i in range(m):
            windows = {tuple(a[(i + t) % m] for t in range(k + 1)) for a in members}
            if len(windows) != len(members):
                return f"class {labels} shares a colour-{i + 1} window"
    return None


def check_verify(system, sols, argv, rep) -> str | None:
    count = len(sols)
    if rep.get("verdict") != "PASS":
        return f"verdict {rep.get('verdict')!r}"
    if rep["solutions"] != count or rep["classes"] != count:
        return f"solutions/classes {rep['solutions']}/{rep['classes']} != {count}"
    if rep["copies"] != count * system.order**system.k:
        return "copy count is not solutions * |G|^k"
    return None


CHECKS = {
    "pipeline": check_pipeline,
    "remove": check_remove,
    "copies": check_copies,
    "verify": check_verify,
}


class Checker:
    """Caches each input's parsed system and brute-force solutions."""

    def __init__(self):
        self._cache: dict[str, tuple] = {}

    def system(self, path: str):
        if path not in self._cache:
            with open(path, encoding="utf-8") as fh:
                system = oracle.parse_system(json.load(fh))
            self._cache[path] = (system, oracle.solutions(system))
        return self._cache[path]

    def check_op(self, op: dict, report: dict) -> str | None:
        system, sols = self.system(op["input"])
        return CHECKS[op["argv"][0]](system, sols, op["argv"], report)

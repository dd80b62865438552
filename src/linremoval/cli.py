"""Batch command-line front end.

Subcommands: snf, dk, complete (integer normal forms); ngood, circular,
cmatrix (padding, circularity, kernel matrix); solve, pipeline, copies,
verify, remove (restricted systems end to end).  Input is one JSON file
in the package wire format; the report is JSON on stdout, pretty with
--human.  Exit codes: 0 success (thin included), 2 parse or an unreadable
input or unwritable --output file, 3 precondition, 4 budget, 5 infeasible
protection.

Coordinates in reports are 1-based, as is --protect.  Commands are
deterministic: the same input file always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import (
    BudgetExceededError,
    InfeasibleRemovalError,
    PreconditionError,
    SchemaError,
)
from .hypergraph import _copy_solutions, build_host, copy_class_structure
from .intmat import (
    complete_to_square,
    det,
    determinantal_divisors,
    n_good_padding,
    smith_normal_form,
)
from .jsonio import (
    decode_matrix,
    decode_system,
    dump,
    encode_element,
    encode_int,
    encode_matrix,
    encode_rows,
    load_file,
    parse_decimal,
)
from .pipeline import (
    CircularSystem,
    _standard_form,
    build_kernel_matrix,
    full_extension,
)
from .removal import greedy_removal, min_removal_exact
from .system import (
    DEFAULT_BUDGET,
    count_solutions,
    enumerate_solutions,
    remove_elements,
)

BUDGET_ENV = "LINREMOVAL_BUDGET"


def cmd_snf(args, budget) -> dict:
    matrix = decode_matrix(load_file(args.input))
    res = smith_normal_form(matrix)
    if (res.U @ matrix) @ res.V != res.S:
        raise AssertionError("normal form product check failed")
    return {
        "U": encode_matrix(res.U),
        "S": encode_matrix(res.S),
        "V": encode_matrix(res.V),
    }


def cmd_dk(args, budget) -> dict:
    matrix = decode_matrix(load_file(args.input))
    return {"divisors": [encode_int(d) for d in determinantal_divisors(matrix)]}


def cmd_complete(args, budget) -> dict:
    matrix = decode_matrix(load_file(args.input))
    completed = complete_to_square(matrix)
    return {
        "completed": encode_matrix(completed),
        "det": encode_int(det(completed)),
    }


def cmd_ngood(args, budget) -> dict:
    matrix = decode_matrix(load_file(args.input))
    padded = n_good_padding(matrix, args.n)
    return {
        "padded": encode_matrix(padded),
        "rows": padded.rows,
        "n": encode_int(args.n),
        # n_good_padding returns only a padding it has checked n-good
        "n_good": True,
    }


def cmd_circular(args, budget) -> dict:
    matrix = decode_matrix(load_file(args.input))
    standard = _standard_form(matrix, args.n)
    return {
        "circular": standard is not None,
        "n": encode_int(args.n),
        "standard": None if standard is None else encode_matrix(standard),
    }


def cmd_cmatrix(args, budget) -> dict:
    matrix = decode_matrix(load_file(args.input))
    kernel = build_kernel_matrix(matrix, args.n)
    return {"kernel": encode_matrix(kernel), "n": encode_int(args.n)}


def cmd_solve(args, budget) -> dict:
    system = decode_system(load_file(args.input))
    sols = enumerate_solutions(system, budget)
    return {
        "count": len(sols),
        "solutions": encode_rows(sols, system.group),
    }


def _thin_payload(witness) -> dict:
    return {
        "coordinate": witness.coordinate + 1,
        "value": None if witness.value is None else encode_element(witness.value),
        "vacuous": witness.value is None,
    }


def _report_payload(report) -> dict:
    return {
        "ok": report.ok,
        "dimensions": report.dimension_ok,
        "free_coordinates": report.full_group_ok,
        "structure": report.structure_ok,
        "bijection": report.bijection_ok,
        "source_count": report.source_count,
        "target_count": report.target_count,
        "problems": report.problems,
    }


def _encode_stages(stages) -> list:
    out = []
    for st in stages:
        enc = dict(st)
        if "row_divisors" in enc:
            enc["row_divisors"] = [encode_int(v) for v in enc["row_divisors"]]
        if "column_order" in enc:
            enc["column_order"] = [j + 1 for j in enc["column_order"]]
        if "modulus" in enc:
            enc["modulus"] = encode_int(enc["modulus"])
        out.append(enc)
    return out


def cmd_pipeline(args, budget) -> dict:
    system = decode_system(load_file(args.input))
    res = full_extension(system, budget)
    payload = {
        "outcome": res.outcome,
        "stages": _encode_stages(res.stages),
        "solutions": res.stages[0]["solutions"],
    }
    if res.outcome == "thin":
        payload["thin"] = _thin_payload(res.thin)
        return payload
    if res.outcome == "small-system":
        payload["note"] = (
            "at most one free column; the remove command handles this directly"
        )
        return payload
    payload["target"] = {
        "equations": res.circular.equations,
        "variables": res.circular.variables,
        "modulus": encode_int(res.circular.modulus),
    }
    payload["mapped_coords"] = [j + 1 for j in sorted(res.composed.coord_map)]
    # res.circular is a CircularSystem, whose construction checked circularity
    payload["target_circular"] = True
    payload["verification"] = _report_payload(res.verification)
    if args.trace:
        # stages after the input pair up with the chain's extensions
        targets = {
            st["stage"]: ext.target.matrix
            for st, ext in zip(res.stages[1:], res.chain)
        }
        payload["matrices"] = {
            "translate": encode_matrix(targets["translate"]),
            "circular": encode_matrix(res.circular.matrix),
            "kernel": encode_matrix(res.circular.kernel_matrix),
        }
        if "identity-form" in targets:
            payload["matrices"]["identity_form"] = encode_matrix(
                targets["identity-form"]
            )
    return payload


def _route_host(system, budget):
    """Direct host when the input is already standard circular homogeneous;
    otherwise run the full reduction and host its target.  CircularSystem
    decides: it raises exactly on input that is not standard circular."""
    group = system.group
    n = group.order
    if system.is_homogeneous():
        try:
            circ = CircularSystem(system.matrix.mod(n), n)
        except PreconditionError:
            pass  # not standard circular: the full reduction handles it
        else:
            host = build_host(group, circ, system.restrictions)
            return "direct", host, None
    res = full_extension(system, budget)
    if res.outcome != "circular":
        return "pipeline", None, res
    host = build_host(group, res.circular, res.composed.target.restrictions)
    return "pipeline", host, res


def cmd_copies(args, budget) -> dict:
    system = decode_system(load_file(args.input))
    route, host, res = _route_host(system, budget)
    if host is None:
        return {
            "route": route,
            "outcome": res.outcome,
            "note": "no circular target to enumerate copies on",
        }
    payload = {
        "route": route,
        "positions": host.positions,
        "arity": host.arity_base + 1,
    }
    if not args.full:
        classes, _ = copy_class_structure(host, budget)
        if not classes.ok:
            raise AssertionError(
                "copy class structure fails: " + "; ".join(classes.problems)
            )
        payload["count"] = encode_int(classes.copy_count)
        return payload
    m = host.positions
    copies = encode_rows(_copy_solutions(host, budget), host.group)
    payload["count"] = len(copies)
    payload["copies"] = [{"assignment": s[:m], "labels": s[m:]} for s in copies]
    return payload


def _count(v):
    """A count in wire form, or None where only a listing could count."""
    return None if v is None else encode_int(v)


def cmd_verify(args, budget) -> dict:
    system = decode_system(load_file(args.input))
    route, host, res = _route_host(system, budget)
    if host is None:
        return {
            "route": route,
            "outcome": res.outcome,
            "note": "no circular target to verify",
        }
    classes, labels = copy_class_structure(host, budget)
    return {
        "route": route,
        "copies": _count(classes.copy_count),
        "classes": _count(classes.class_count),
        "expected_class_size": encode_int(classes.expected_class_size),
        "solutions": encode_int(classes.solution_count),
        "class_report": {
            "ok": classes.ok,
            "kernel": classes.kernel_ok,
            "labels_match": classes.labels_match,
            "class_sizes": classes.class_sizes_ok,
            "edge_disjoint": classes.disjoint_ok,
            "problems": classes.problems,
        },
        "label_report": {
            "ok": labels.ok,
            "problems": labels.problems,
        },
        "verdict": "PASS" if classes.ok and labels.ok else "FAIL",
    }


def _parse_protect(raw, variables) -> frozenset[int]:
    if not raw:
        return frozenset()
    out = set()
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        j = parse_decimal(tok, "--protect")
        if j is None or j < 1:
            raise SchemaError(
                f"--protect expects 1-based coordinates, got {tok!r}"
            )
        if j > variables:
            raise PreconditionError(
                f"protected coordinate {tok} exceeds the variable count"
            )
        out.add(j - 1)
    return frozenset(out)


def cmd_remove(args, budget) -> dict:
    system = decode_system(load_file(args.input))
    protected = _parse_protect(args.protect, system.variables)
    if not system.coprime:
        raise PreconditionError(
            "determinantal divisor shares a factor with the group order"
        )
    solver = greedy_removal if args.greedy else min_removal_exact
    sol = solver(system, protected, budget)
    post = count_solutions(remove_elements(system, sol.removed), budget)
    if post != 0:
        raise AssertionError("reported removal leaves solutions alive")
    return {
        "removed": encode_rows(sol.removed, system.group),
        "total_size": sol.total_size,
        "certificate": {"optimal": sol.optimal, "lower_bound": sol.lower_bound},
        "post_count": post,
    }


def _resolve_budget(args) -> int:
    if args.budget is not None:
        value = args.budget
    else:
        raw = os.environ.get(BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        value = parse_decimal(raw, BUDGET_ENV)
        if value is None:
            raise SchemaError(f"{BUDGET_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise SchemaError("budget must be at least 1")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="path to the JSON input file")
    common.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"enumeration budget (default {DEFAULT_BUDGET}, env {BUDGET_ENV})",
    )
    common.add_argument(
        "--human", action="store_true", help="pretty-print the JSON report"
    )
    common.add_argument(
        "-o", "--output", default=None, help="write the report to a file"
    )

    parser = argparse.ArgumentParser(
        prog="linremoval",
        description="restricted linear systems over finite abelian groups: "
        "normal forms, circular reduction, hypergraph copies, removal sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", parents=[common], help="Smith normal form U, S, V")
    p.set_defaults(handler=cmd_snf)
    p = sub.add_parser("dk", parents=[common], help="determinantal divisors")
    p.set_defaults(handler=cmd_dk)
    p = sub.add_parser(
        "complete", parents=[common], help="complete to a square matrix"
    )
    p.set_defaults(handler=cmd_complete)

    p = sub.add_parser("ngood", parents=[common], help="pad until all row windows are coprime to n")
    p.add_argument("--n", type=int, required=True, help="modulus")
    p.set_defaults(handler=cmd_ngood)
    p = sub.add_parser("circular", parents=[common], help="circularity check and standard form")
    p.add_argument("--n", type=int, required=True, help="modulus")
    p.set_defaults(handler=cmd_circular)
    p = sub.add_parser("cmatrix", parents=[common], help="kernel matrix of a standard circular matrix")
    p.add_argument("--n", type=int, required=True, help="modulus")
    p.set_defaults(handler=cmd_cmatrix)

    p = sub.add_parser("solve", parents=[common], help="enumerate all solutions")
    p.set_defaults(handler=cmd_solve)
    p = sub.add_parser("pipeline", parents=[common], help="reduce to circular form")
    p.add_argument(
        "--trace", action="store_true", help="include intermediate matrices"
    )
    p.set_defaults(handler=cmd_pipeline)
    p = sub.add_parser(
        "copies",
        parents=[common],
        help="count hypergraph copies (list them with --full)",
    )
    p.add_argument(
        "--full", action="store_true", help="list assignments and labels"
    )
    p.set_defaults(handler=cmd_copies)
    p = sub.add_parser("verify", parents=[common], help="verify copy classes and labels")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("remove", parents=[common], help="minimum removal sets")
    p.add_argument(
        "--greedy", action="store_true", help="greedy heuristic instead of the exact minimum"
    )
    p.add_argument(
        "--protect",
        default=None,
        help="comma-separated 1-based coordinates that must stay untouched",
    )
    p.set_defaults(handler=cmd_remove)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2

    try:
        budget = _resolve_budget(args)
        text = dump(args.handler(args, budget), human=args.human)
    except SchemaError as e:
        _emit_error("schema", e)
        return 2
    except PreconditionError as e:
        _emit_error("precondition", e)
        return 3
    except BudgetExceededError as e:
        _emit_error("budget", e)
        return 4
    except InfeasibleRemovalError as e:
        _emit_error("infeasible", e)
        return 5

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            _emit_error(
                "schema", SchemaError(f"cannot write {args.output}: {e.strerror}")
            )
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _emit_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(dump({"error": {"kind": kind, "message": str(exc)}}))


def run() -> None:
    sys.exit(main())

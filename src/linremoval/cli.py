"""Batch command-line front end.

Subcommands: snf, dk, complete (integer normal forms); ngood, circular,
cmatrix (padding, circularity, kernel matrix); solve, pipeline, copies,
verify, remove (restricted systems end to end).  Input is one JSON file
in the package wire format; the report is JSON on stdout, pretty with
--human.  Exit codes: 0 success (thin included), 2 usage, parse or an
unreadable input or unwritable --output file, 3 precondition, 4 budget,
5 infeasible protection, 6 a result that failed the program's own check
of it (a fault in the program); every failure writes a JSON error to
stderr.

The command line is read against one table, COMMANDS: the command, then
its options and its input in any order, option names matched exactly,
integers by the decimal rule of ``jsonio.parse_decimal``.  -h or --help
prints help generated from the table and exits 0.

Coordinates in reports are 1-based, as is --protect.  Commands are
deterministic: the same input file always produces byte-identical output.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .errors import (
    BudgetExceededError,
    InfeasibleRemovalError,
    InvariantError,
    PreconditionError,
    SchemaError,
)
from .hypergraph import HostHypergraph, copy_class_structure, enumerate_copies
from .intmat import (
    complete_to_square,
    determinantal_divisors,
    n_good_padding,
    smith_normal_form,
)
from .jsonio import (
    decode_matrix,
    decode_system,
    dump,
    encode_copies,
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
    _require_coprime,
    count_solutions,
    enumerate_solutions,
    remove_elements,
)

BUDGET_ENV = "LINREMOVAL_BUDGET"


def cmd_snf(args, budget) -> dict:
    matrix = decode_matrix(load_file(args.input))
    res = smith_normal_form(matrix)
    if (res.U @ matrix) @ res.V != res.S:
        raise InvariantError("normal form product check failed")
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
    completed, d = complete_to_square(matrix)
    return {"completed": encode_matrix(completed), "det": encode_int(d)}


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
    decides: it raises exactly on input that is not standard circular.  The
    direct host keeps the input's matrix, unreduced: reduced mod n it has
    the same solutions, Smith invariants mod q and products with the
    kernel mod q.  A target whose extension check failed is no host:
    InvariantError."""
    n = system.group.order
    if system.is_homogeneous():
        try:
            circ = CircularSystem(system.matrix.mod(n), n)
        except PreconditionError:
            pass  # not standard circular: the full reduction handles it
        else:
            return "direct", HostHypergraph(system, circ.kernel_matrix), None
    res = full_extension(system, budget)
    if res.outcome != "circular":
        return "pipeline", None, res
    if not res.verification.ok:
        raise InvariantError(
            "reduction check fails: " + "; ".join(res.verification.problems)
        )
    host = HostHypergraph(res.composed.target, res.circular.kernel_matrix)
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
            raise InvariantError(
                "copy class structure fails: " + "; ".join(classes.problems)
            )
        payload["count"] = encode_int(classes.copy_count)
        return payload
    copies = enumerate_copies(host, budget)
    payload["count"] = len(copies)
    payload["copies"] = encode_copies(copies, host.positions)
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
    _require_coprime(system)
    solver = greedy_removal if args.greedy else min_removal_exact
    sol = solver(system, protected, budget)
    post = count_solutions(remove_elements(system, sol.removed), budget)
    if post != 0:
        raise InvariantError("reported removal leaves solutions alive")
    return {
        "removed": encode_rows(sol.removed, system.group),
        "total_size": sol.total_size,
        "certificate": {"optimal": sol.optimal, "lower_bound": sol.lower_bound},
        "post_count": post,
    }


def _parse_int(name: str, text: str) -> int:
    value = parse_decimal(text, name)
    if value is None:
        raise SchemaError(f"{name} must be an integer, got {text!r}")
    return value


def _resolve_budget(args) -> int:
    if args.budget is not None:
        value = args.budget
    else:
        raw = os.environ.get(BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        value = _parse_int(BUDGET_ENV, raw)
    if value < 1:
        raise SchemaError("budget must be at least 1")
    return value


# an option's kind is None for a flag, int or str for one that takes a value
Option = namedtuple("Option", "names dest kind help required", defaults=(False,))
# a subcommand: its handler(args, budget), its help line, its own options
Command = namedtuple("Command", "handler help options", defaults=((),))


# every command takes these and one input file
COMMON_OPTIONS = (
    Option(
        ("--budget",),
        "budget",
        int,
        f"enumeration budget (default {DEFAULT_BUDGET}, env {BUDGET_ENV})",
    ),
    Option(("--human",), "human", None, "pretty-print the JSON report"),
    Option(("-o", "--output"), "output", str, "write the report to a file"),
)
MODULUS = Option(("--n",), "n", int, "modulus", required=True)

COMMANDS = {
    "snf": Command(cmd_snf, "Smith normal form U, S, V"),
    "dk": Command(cmd_dk, "determinantal divisors"),
    "complete": Command(cmd_complete, "complete to a square matrix"),
    "ngood": Command(
        cmd_ngood, "pad until all row windows are coprime to n", (MODULUS,)
    ),
    "circular": Command(
        cmd_circular, "circularity check and standard form", (MODULUS,)
    ),
    "cmatrix": Command(
        cmd_cmatrix, "kernel matrix of a standard circular matrix", (MODULUS,)
    ),
    "solve": Command(cmd_solve, "enumerate all solutions"),
    "pipeline": Command(
        cmd_pipeline,
        "reduce to circular form",
        (Option(("--trace",), "trace", None, "include intermediate matrices"),),
    ),
    "copies": Command(
        cmd_copies,
        "count hypergraph copies (list them with --full)",
        (Option(("--full",), "full", None, "list assignments and labels"),),
    ),
    "verify": Command(cmd_verify, "verify copy classes and labels"),
    "remove": Command(
        cmd_remove,
        "minimum removal sets",
        (
            Option(
                ("--greedy",),
                "greedy",
                None,
                "greedy heuristic instead of the exact minimum",
            ),
            Option(
                ("--protect",),
                "protect",
                str,
                "comma-separated 1-based coordinates that must stay untouched",
            ),
        ),
    ),
}

# per command: each option name it accepts, its own and the common ones,
# and the value of each option it is not given
_OPTION_NAMES = {
    name: {n: opt for opt in cmd.options + COMMON_OPTIONS for n in opt.names}
    for name, cmd in COMMANDS.items()
}
_DEFAULTS = {
    name: {opt.dest: None if opt.kind else False for opt in accepted.values()}
    for name, accepted in _OPTION_NAMES.items()
}
HELP = ("-h", "--help")


def parse_args(argv) -> SimpleNamespace | str:
    """Read argv against COMMANDS in one pass: the command, then its options
    and its one input in any order.  An option's value is the next argument
    or follows '='; a repeated option keeps its last value; after '--' every
    argument is an input.  Returns the help text when -h or --help comes
    first or after the command.  Every usage error is a SchemaError."""
    if not argv:
        raise SchemaError(f"no command given; expected one of {', '.join(COMMANDS)}")
    name = argv[0]
    cmd = COMMANDS.get(name)
    if cmd is None:
        if name in HELP:
            return _help()
        raise SchemaError(
            f"unknown command {name!r}; expected one of {', '.join(COMMANDS)}"
        )
    accepted = _OPTION_NAMES[name]
    values = _DEFAULTS[name].copy()
    inputs = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg[:1] != "-" or arg == "-":
            inputs.append(arg)
            continue
        opt = accepted.get(arg)
        if opt is None:
            if arg == "--":
                inputs.extend(rest)
                break
            if arg in HELP:
                return _help(name)
            arg, eq, value = arg.partition("=")
            opt = accepted.get(arg)
            if opt is None:
                raise SchemaError(f"{name}: unknown option {arg!r}")
            if opt.kind is None:
                raise SchemaError(f"{name}: {arg} takes no value")
        elif opt.kind is None:
            values[opt.dest] = True
            continue
        else:
            value = next(rest, None)
            if value is None:
                raise SchemaError(f"{name}: {arg} expects a value")
        values[opt.dest] = value if opt.kind is str else _parse_int(arg, value)
    if len(inputs) != 1:
        got = ", ".join(map(repr, inputs)) or "none"
        raise SchemaError(f"{name}: expected one input file, got {got}")
    for opt in cmd.options:
        if opt.required and values[opt.dest] is None:
            raise SchemaError(f"{name}: {opt.names[0]} is required")
    return SimpleNamespace(handler=cmd.handler, input=inputs[0], **values)


def _columns(rows) -> list[str]:
    width = max(len(left) for left, _ in rows)
    return [f"  {left.ljust(width)}  {right}" for left, right in rows]


def _help(name: str | None = None) -> str:
    """The help text of the whole program, or of one command."""
    if name is None:
        lines = [
            "usage: linremoval COMMAND [options] INPUT",
            "",
            "restricted linear systems over finite abelian groups: normal "
            "forms, circular reduction, hypergraph copies, removal sets",
            "",
            "commands:",
            *_columns([(n, cmd.help) for n, cmd in COMMANDS.items()]),
            "",
            "Run 'linremoval COMMAND --help' for the options of one command.",
            "Exit codes: 0 success, 2 usage or input, 3 precondition, "
            "4 budget, 5 infeasible protection, 6 internal check; errors are "
            "JSON on stderr.",
        ]
    else:
        cmd = COMMANDS[name]
        options = cmd.options + COMMON_OPTIONS
        usage = [f"{o.names[0]} {o.dest.upper()}" for o in options if o.required]
        rows = [("INPUT", "path to the JSON input file")]
        for o in options:
            value = "" if o.kind is None else f" {o.dest.upper()}"
            rows.append((", ".join(o.names) + value, o.help))
        rows.append((", ".join(HELP), "show this help"))
        lines = [
            f"usage: linremoval {' '.join([name, *usage])} [options] INPUT",
            "",
            cmd.help,
            "",
            "arguments:",
            *_columns(rows),
        ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return 0
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
    except InvariantError as e:
        _emit_error("invariant", e)
        return 6

    if args.output:
        try:
            # the report's bytes as they are, "\n" line ends included
            with open(args.output, "wb") as fh:
                fh.write(text.encode("utf-8"))
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

"""Command-line front end.

Exit codes: 0 when every requested verdict holds, 1 when a verification
fails, 2 for usage, validation, or resource errors, a stdout closed by its
reader among them.  ``--json`` switches the output to stable
machine-readable JSON (keys sorted, canonical row order).
The enumeration cap may be overridden globally with the CYCLOSIEVE_CAP
environment variable or per run with ``--cap``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .klcells import (
    kl_table,
    mu_promotion_invariance,
    vanishing_criterion_check,
    verify_promotion_identity,
)
from .ribbons import count_ribbon_cst, kf_root_of_unity_check
from .sieving import (
    bn_csp_report,
    cst_csp_report,
    content_csp_report,
    dihedral_report,
    handshake_csp_report,
    noncrossing_csp_report,
    syt_csp_report,
)
from .tableaux import (
    CapExceeded,
    Composition,
    Partition,
    enumerate_cst,
    enumerate_rst,
    enumerate_syt,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def parse_shape(text: str) -> Partition:
    """Accept comma-separated parts, allowing exponential tokens like 2^3."""
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "^" in token:
            base, _, exponent = token.partition("^")
            base, exponent = int(base), int(exponent)
            if exponent < 0:
                raise ValueError(f"negative exponent in shape token {token!r}")
            parts.extend([base] * exponent)
        else:
            parts.append(int(token))
    return Partition(sorted(parts, reverse=True) if parts else ())


def parse_content(text: str) -> Composition:
    return Composition(int(tok) for tok in text.split(",") if tok.strip() != "")


def _family(args: argparse.Namespace) -> str:
    """The subcommand path joined by hyphens, e.g. ``csp-cst``."""
    path = (getattr(args, dest, None) for dest in ("command", "family", "action", "kind"))
    return "-".join(name for name in path if name)


def _needs(args: argparse.Namespace, name: str):
    """The value of the optional ``--name``, which this subcommand requires."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"{_family(args)} needs --{name}")
    return value


def _emit_csp(report: dict, as_json: bool) -> int:
    if as_json:
        return _emit_dict(report, as_json)
    label = "|eval|" if report["modulus_comparison"] else "eval"
    print(f"family: {report['family']}  parameters: {report['parameters']}  m={report['m']}")
    print(f"{'d':>4} {'fixed':>8} {label:>12} {'match':>6}")
    for row in report["rows"]:
        shown = row["eval"] if row["eval"] is not None else row["eval_repr"]
        print(f"{row['d']:>4} {row['fixed']:>8} {str(shown):>12} {'ok' if row['match'] else 'FAIL':>6}")
    print("verdict:", "PASS" if report["verdict"] else "FAIL")
    return EXIT_PASS if report["verdict"] else EXIT_FAIL


def _emit_dict(payload: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_PASS if payload.get("verdict", True) else EXIT_FAIL


def _csp(report):
    """A handler that prints the CSP table ``report(args)``."""
    return lambda args: _emit_csp(report(args), args.json)


def _check(report):
    """A handler that prints the payload ``report(args)`` key by key."""
    return lambda args: _emit_dict(report(args), args.json)


def _enumerate(args: argparse.Namespace) -> int:
    shape, content = args.shape, args.content
    if args.kind == "syt":
        if args.bound is not None or content is not None:
            raise ValueError(f"{_family(args)} takes no --bound or --content")
        items = enumerate_syt(shape, cap=args.cap)
    else:
        fill = enumerate_cst if args.kind == "cst" else enumerate_rst
        items = fill(shape, _needs(args, "bound"), content, cap=args.cap)
    if args.json:
        print(json.dumps(
            {
                "family": _family(args),
                "parameters": {
                    "shape": list(shape),
                    "bound": args.bound,
                    "content": list(content) if content is not None else None,
                },
                "count": len(items),
                "tableaux": [[list(row) for row in t.rows] for t in items],
            },
            sort_keys=True,
        ))
    else:
        for t in items:
            print(t.pretty())
            print()
        print("count:", len(items))
    return EXIT_PASS


def _kl_table(args: argparse.Namespace) -> int:
    table = kl_table(args.rank, args.cap)
    pairs = table.dump_triples(sys.stdout, args.json)
    if not args.json:
        print("pairs:", pairs)
    return EXIT_PASS


def _ribbon_count(args: argparse.Namespace) -> int:
    content = _needs(args, "content")
    value = count_ribbon_cst(args.shape, args.power, content)
    if args.json:
        print(json.dumps({
            "family": _family(args),
            "parameters": {"shape": list(args.shape), "ribbon": args.power,
                           "content": list(content)},
            "count": value,
        }, sort_keys=True))
    else:
        print(value)
    return EXIT_PASS


# Every argument a subcommand may take: (flags, add_argument options).
ARGUMENTS = {
    "kind": (["kind"], dict(choices=["syt", "cst", "rst"])),
    "shape": (["--shape"], dict(required=True, help="partition, e.g. 3,3,1 or 2^3")),
    "bound": (["--bound"], dict(type=int, default=None, help="entry bound k")),
    "content": (["--content"], dict(default=None, help="composition, e.g. 1,2,0,1")),
    "power": (["--power"], dict(type=int, default=1, help="promotion power / ribbon size")),
    "modulus": (["--modulus"], dict(type=int, default=None, help="root-of-unity order")),
    "rank": (["--rank"], dict(type=int, required=True, help="symmetric group rank")),
    "n": (["n"], dict(type=int, help="size parameter")),
    "json": (["--json"], dict(action="store_true", help="machine-readable output")),
    "cap": (["--cap"], dict(type=int, default=None, help="enumeration cap override")),
}

# Commands: name -> (help, dest of the subcommand name, or None for a leaf).
COMMANDS = {
    "enumerate": ("list tableaux", None),
    "csp": ("cyclic sieving verification", "family"),
    "dihedral": ("evacuation / promotion dihedral fixed points", None),
    "kl": ("Kazhdan-Lusztig checks", "action"),
    "ribbon": ("ribbon tableau counts and KF checks", "action"),
}

# Leaf subcommands: (command, name or None, arguments in usage order, handler).
# Each handler takes the parsed arguments, with --shape and --content parsed
# and the cap resolved, and returns the exit code.
LEAVES = [
    ("enumerate", None, "kind shape bound content json cap", _enumerate),
    ("csp", "syt", "shape modulus json cap",
     _csp(lambda a: syt_csp_report(a.shape, modulus=a.modulus, cap=a.cap))),
    ("csp", "cst", "shape bound json cap",
     _csp(lambda a: cst_csp_report(a.shape, _needs(a, "bound"), cap=a.cap))),
    ("csp", "content", "shape content power json cap",
     _csp(lambda a: content_csp_report(a.shape, _needs(a, "content"), a.power, cap=a.cap))),
    ("csp", "handshake", "n json cap", _csp(lambda a: handshake_csp_report(a.n, cap=a.cap))),
    ("csp", "noncrossing", "n json cap", _csp(lambda a: noncrossing_csp_report(a.n, cap=a.cap))),
    ("csp", "bnwords", "n json cap", _csp(lambda a: bn_csp_report(a.n, cap=a.cap))),
    ("dihedral", None, "shape bound json cap",
     _check(lambda a: dihedral_report(a.shape, _needs(a, "bound"), cap=a.cap))),
    ("kl", "table", "rank json cap", _kl_table),
    ("kl", "verify-promotion", "shape json cap",
     _check(lambda a: verify_promotion_identity(a.shape, cap=a.cap))),
    ("kl", "mu-invariance", "shape json cap",
     _check(lambda a: mu_promotion_invariance(a.shape, cap=a.cap))),
    ("kl", "immanants", "rank json cap",
     _check(lambda a: vanishing_criterion_check(a.rank, cap=a.cap))),
    ("ribbon", "count", "shape content power json cap", _ribbon_count),
    ("ribbon", "kf-check", "shape content power json cap",
     _check(lambda a: kf_root_of_unity_check(
         a.shape, _needs(a, "content"), a.power, cap=a.cap))),
]


def build_parser() -> argparse.ArgumentParser:
    """The one parse tree.  Its ``leaves`` attribute maps each leaf's command
    path, such as ``("csp", "cst")`` or ``("dihedral",)``, to the leaf parser
    and the dests that the subparser actions above it set on the way down."""
    parser = argparse.ArgumentParser(
        prog="cyclosieve",
        description="Exact cyclic-sieving and dihedral fixed-point verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parents = {}
    for command, (help_text, dest) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        parents[command] = p.add_subparsers(dest=dest, required=True) if dest else p
    parser.leaves = {}
    for command, name, arguments, handler in LEAVES:
        p = parents[command].add_parser(name) if name else parents[command]
        for key in arguments.split():
            flags, options = ARGUMENTS[key]
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
        path = (command, name) if name else (command,)
        parser.leaves[path] = (p, dict(zip(("command", COMMANDS[command][1]), path)))
    return parser


def parse_args(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, entered at the leaf that argv names.

    The root and middle parsers would only pass the arguments after the
    command path down to that leaf, so the leaf parses them itself and the
    dests those parsers set are filled in; left-over arguments fail as
    ``parse_args`` fails them.  Any other argv goes through the whole tree.
    """
    for depth in (2, 1):
        path = tuple(argv[:depth])
        if path in parser.leaves:
            leaf, dests = parser.leaves[path]
            args, extra = leaf.parse_known_args(argv[depth:])
            vars(args).update(dests)
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            return args
    return parser.parse_args(argv)


# One parser serves every call in a process: built on the first call, so that
# importing this module stays cheap, and reused, since argparse keeps no state
# between parses.  Environment reads such as CYCLOSIEVE_CAP stay per call.
_parser: Optional[argparse.ArgumentParser] = None


def _env_cap() -> Optional[int]:
    env = os.environ.get("CYCLOSIEVE_CAP")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"CYCLOSIEVE_CAP must be an integer, got {env!r}") from None


def run(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = parse_args(_parser, sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        if getattr(args, "shape", None) is not None:
            args.shape = parse_shape(args.shape)
        if getattr(args, "content", None) is not None:
            args.content = parse_content(args.content)
        if args.cap is None:
            args.cap = _env_cap()
        return args.func(args)
    except (CapExceeded, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader closed stdout, as ``| head`` does
        return EXIT_USAGE


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at os.devnull, so that the interpreter's final flush of
        # what is still buffered prints nothing (the SIGPIPE note in the
        # documentation of Python's signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()

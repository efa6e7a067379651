"""Command-line front end.

Exit codes: 0 when every requested verdict holds, 1 when a verification
fails, 2 for usage, validation, or resource errors.  ``--json`` switches the
output to stable machine-readable JSON (keys sorted, canonical row order).
The enumeration cap may be overridden globally with the CYCLOSIEVE_CAP
environment variable or per run with ``--cap``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .klcells import (
    kl_table,
    mu_promotion_invariance,
    vanishing_criterion_check,
    verify_promotion_identity,
)
from .ribbons import count_ribbon_cst, kf_root_of_unity_check
from .sieving import (
    CSPReport,
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


@dataclass
class RunConfig:
    """A validated request: family name, parsed parameters, output mode, caps.

    All string parameters are parsed before dispatch, so malformed shapes or
    contents are rejected before any enumeration starts.
    """

    family: str
    parameters: dict = field(default_factory=dict)
    as_json: bool = False
    cap: Optional[int] = None

    def shape(self) -> Partition:
        return self.parameters["shape"]

    def content(self, required: bool = True) -> Optional[Composition]:
        value = self.parameters.get("content")
        if value is None and required:
            raise ValueError(f"{self.family} needs --content")
        return value

    def bound(self, required: bool = True) -> Optional[int]:
        value = self.parameters.get("bound")
        if value is None and required:
            raise ValueError(f"{self.family} needs --bound")
        return value


def parse_shape(text: str) -> Partition:
    """Accept comma-separated parts, allowing exponential tokens like 2^3."""
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "^" in token:
            base, _, exponent = token.partition("^")
            parts.extend([int(base)] * int(exponent))
        else:
            parts.append(int(token))
    return Partition(sorted(parts, reverse=True) if parts else ())


def parse_content(text: str) -> Composition:
    return Composition(int(tok) for tok in text.split(",") if tok.strip() != "")


def build_config(args: argparse.Namespace) -> RunConfig:
    family = args.command
    for extra in ("family", "action", "kind"):
        if getattr(args, extra, None):
            family += f"-{getattr(args, extra)}"
    parameters: dict = {}
    if getattr(args, "shape", None) is not None:
        parameters["shape"] = parse_shape(args.shape)
    if getattr(args, "content", None) is not None:
        parameters["content"] = parse_content(args.content)
    for name in ("kind", "bound", "power", "modulus", "rank", "n", "allow_large"):
        if hasattr(args, name):
            parameters[name] = getattr(args, name)
    cap = getattr(args, "cap", None)
    if cap is None:
        env = os.environ.get("CYCLOSIEVE_CAP")
        cap = int(env) if env else None
    return RunConfig(
        family=family,
        parameters=parameters,
        as_json=getattr(args, "json", False),
        cap=cap,
    )


def _emit_csp(report: CSPReport, as_json: bool) -> int:
    if as_json:
        print(report.to_json())
    else:
        label = "|eval|" if report.modulus_comparison else "eval"
        print(f"family: {report.family}  parameters: {report.parameters}  m={report.modulus}")
        print(f"{'d':>4} {'fixed':>8} {label:>12} {'match':>6}")
        for row in report.rows:
            shown = row.evaluation if row.evaluation is not None else row.evaluation_repr
            print(f"{row.power:>4} {row.fixed:>8} {str(shown):>12} {'ok' if row.match else 'FAIL':>6}")
        print("verdict:", "PASS" if report.verdict else "FAIL")
    return EXIT_PASS if report.verdict else EXIT_FAIL


def _emit_dict(payload: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_PASS if payload.get("verdict", True) else EXIT_FAIL


def _cmd_enumerate(config: RunConfig) -> int:
    shape = config.shape()
    kind = config.parameters["kind"]
    content = config.content(required=False)
    if kind == "syt":
        items = enumerate_syt(shape, cap=config.cap)
    elif kind == "cst":
        items = enumerate_cst(shape, config.bound(), content, cap=config.cap)
    else:
        items = enumerate_rst(shape, config.bound(), content, cap=config.cap)
    if config.as_json:
        print(json.dumps(
            {
                "family": config.family,
                "parameters": {
                    "shape": list(shape),
                    "bound": config.parameters.get("bound"),
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


def _cmd_csp(config: RunConfig) -> int:
    if config.family == "csp-syt":
        report = syt_csp_report(
            config.shape(), modulus=config.parameters.get("modulus"), cap=config.cap
        )
    elif config.family == "csp-cst":
        report = cst_csp_report(config.shape(), config.bound(), cap=config.cap)
    elif config.family == "csp-content":
        report = content_csp_report(
            config.shape(), config.content(), config.parameters.get("power", 1),
            cap=config.cap,
        )
    elif config.family == "csp-handshake":
        report = handshake_csp_report(config.parameters["n"], cap=config.cap)
    elif config.family == "csp-noncrossing":
        report = noncrossing_csp_report(config.parameters["n"], cap=config.cap)
    else:
        report = bn_csp_report(config.parameters["n"], cap=config.cap)
    return _emit_csp(report, config.as_json)


def _cmd_dihedral(config: RunConfig) -> int:
    report = dihedral_report(config.shape(), config.bound(), cap=config.cap)
    return _emit_dict(report.to_dict(), config.as_json)


def _cmd_kl(config: RunConfig) -> int:
    allow_large = config.parameters.get("allow_large", False)
    if config.family == "kl-table":
        table = kl_table(config.parameters["rank"], allow_large=allow_large)
        pairs = table.dump_triples(sys.stdout, config.as_json)
        if not config.as_json:
            print("pairs:", pairs)
        return EXIT_PASS
    if config.family == "kl-verify-promotion":
        report = verify_promotion_identity(
            config.shape(), allow_large=allow_large, cap=config.cap
        )
        return _emit_dict(report.to_dict(), config.as_json)
    if config.family == "kl-mu-invariance":
        report = mu_promotion_invariance(
            config.shape(), allow_large=allow_large, cap=config.cap
        )
        return _emit_dict(report.to_dict(), config.as_json)
    report = vanishing_criterion_check(config.parameters["rank"], allow_large=allow_large)
    return _emit_dict(report.to_dict(), config.as_json)


def _cmd_ribbon(config: RunConfig) -> int:
    shape = config.shape()
    size = config.parameters.get("power", 1)
    if config.family == "ribbon-count":
        value = count_ribbon_cst(shape, size, config.content())
        if config.as_json:
            print(json.dumps({
                "family": config.family,
                "parameters": {"shape": list(shape), "ribbon": size,
                               "content": list(config.content())},
                "count": value,
            }, sort_keys=True))
        else:
            print(value)
        return EXIT_PASS
    report = kf_root_of_unity_check(shape, config.content(), size, cap=config.cap)
    return _emit_dict(report.to_dict(), config.as_json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosieve",
        description="Exact cyclic-sieving and dihedral fixed-point verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, shape=False, bound=False, content=False, power=False,
                   modulus=False, rank=False, n=False):
        if shape:
            p.add_argument("--shape", required=True, help="partition, e.g. 3,3,1 or 2^3")
        if bound:
            p.add_argument("--bound", type=int, default=None, help="entry bound k")
        if content:
            p.add_argument("--content", default=None, help="composition, e.g. 1,2,0,1")
        if power:
            p.add_argument("--power", type=int, default=1, help="promotion power / ribbon size")
        if modulus:
            p.add_argument("--modulus", type=int, default=None, help="root-of-unity order")
        if rank:
            p.add_argument("--rank", type=int, required=True, help="symmetric group rank")
        if n:
            p.add_argument("n", type=int, help="size parameter")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--cap", type=int, default=None, help="enumeration cap override")

    p_enum = sub.add_parser("enumerate", help="list tableaux")
    p_enum.add_argument("kind", choices=["syt", "cst", "rst"])
    add_common(p_enum, shape=True, bound=True, content=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_csp = sub.add_parser("csp", help="cyclic sieving verification")
    csp_sub = p_csp.add_subparsers(dest="family", required=True)
    p = csp_sub.add_parser("syt")
    add_common(p, shape=True, modulus=True)
    p.set_defaults(func=_cmd_csp)
    p = csp_sub.add_parser("cst")
    add_common(p, shape=True, bound=True)
    p.set_defaults(func=_cmd_csp)
    p = csp_sub.add_parser("content")
    add_common(p, shape=True, content=True, power=True)
    p.set_defaults(func=_cmd_csp)
    for family in ("handshake", "noncrossing", "bnwords"):
        p = csp_sub.add_parser(family)
        add_common(p, n=True)
        p.set_defaults(func=_cmd_csp)

    p_di = sub.add_parser("dihedral", help="evacuation / promotion dihedral fixed points")
    add_common(p_di, shape=True, bound=True)
    p_di.set_defaults(func=_cmd_dihedral)

    p_kl = sub.add_parser("kl", help="Kazhdan-Lusztig checks")
    kl_sub = p_kl.add_subparsers(dest="action", required=True)
    p = kl_sub.add_parser("table")
    add_common(p, rank=True)
    p.add_argument("--allow-large", action="store_true", help="permit rank 7")
    p.set_defaults(func=_cmd_kl)
    p = kl_sub.add_parser("verify-promotion")
    add_common(p, shape=True)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_kl)
    p = kl_sub.add_parser("mu-invariance")
    add_common(p, shape=True)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_kl)
    p = kl_sub.add_parser("immanants")
    add_common(p, rank=True)
    p.add_argument("--allow-large", action="store_true", help="permit rank 7")
    p.set_defaults(func=_cmd_kl)

    p_rib = sub.add_parser("ribbon", help="ribbon tableau counts and KF checks")
    rib_sub = p_rib.add_subparsers(dest="action", required=True)
    p = rib_sub.add_parser("count")
    add_common(p, shape=True, content=True, power=True)
    p.set_defaults(func=_cmd_ribbon)
    p = rib_sub.add_parser("kf-check")
    add_common(p, shape=True, content=True, power=True)
    p.set_defaults(func=_cmd_ribbon)

    return parser


# One parser serves every call in a process: built on the first call, so that
# importing this module stays cheap, and reused, since argparse keeps no state
# between parses.  Environment reads such as CYCLOSIEVE_CAP stay per call.
_parser: Optional[argparse.ArgumentParser] = None


def run(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        config = build_config(args)
        return args.func(config)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

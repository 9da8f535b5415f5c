"""Command-line interface.

Subcommands
-----------

build-code        materialize an inline code spec as a code-spec JSON file
min-distance      exact minimum distance of a code
encode            encode a message
membership        code or Tanner-product membership of a word
robustness        exact (or sampled) robustness report for one word
sweep             certify a seeded corpus at a robustness constant
compose-check     exact two-level identity for a composed tester
expansion-check   boundary-expansion scan of a test graph
query-account     query bookkeeping for the degree-n^2 tester family

Exit codes: 0 success, 1 property-check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .code import Word
from .errors import LtcLabError
from .harness import (
    ExperimentConfig,
    code_to_json_dict,
    instance_from_specs,
    parse_code_spec,
    parse_graph_spec,
    parse_word_file,
    query_account,
    run_compose_check,
    run_expansion_check,
    run_sweep,
)
from .reports import json_bytes, parse_fraction, parse_int, write_csv
from .tanner import TannerCode
from .tester import positive_alpha, unit_tau


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose own usage errors print one ``error:`` line, like every other usage error."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ltclab",
        description="Product-code construction and exact local-tester robustness measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (default: stdout)")
    tester = argparse.ArgumentParser(add_help=False)
    tester.add_argument("--graph", required=True)
    tester.add_argument("--small", required=True)
    tester.add_argument("--code", help="reference full code for delta (optional)")
    tester.add_argument("--alpha", default="1/65536")
    tester.add_argument("--tau")
    tester.add_argument("--samples", type=int, help="estimate from this many seeded sampled views (default: exact)")
    tester.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("build-code", parents=[out], help="write a code-spec JSON document")
    p.add_argument("--code", required=True)

    p = sub.add_parser("min-distance", help="exact brute-force minimum distance")
    p.add_argument("--code", required=True)

    p = sub.add_parser("encode", parents=[out], help="encode a message with a code")
    p.add_argument("--code", required=True)
    p.add_argument("--message", required=True, help="comma-separated symbols")

    p = sub.add_parser("membership", help="membership of a word")
    p.add_argument("--code", help="plain code membership")
    p.add_argument("--graph", help="Tanner-product membership (with --small)")
    p.add_argument("--small")
    p.add_argument("--word", help="comma-separated symbols")
    p.add_argument("--word-file")

    p = sub.add_parser("robustness", parents=[tester, out], help="robustness report for one word")
    p.add_argument("--word")
    p.add_argument("--word-file")
    p.add_argument("--views", action="store_true", help="include per-view distances")

    p = sub.add_parser("sweep", parents=[tester, out], help="certify a seeded corpus")
    p.add_argument("--corpus", default="mixed:120")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("compose-check", parents=[out], help="two-level composition identity")
    p.add_argument("--graph", required=True, help="outer graph")
    p.add_argument("--graph2", required=True, help="inner graph")
    p.add_argument("--small", required=True, help="small code at the inner level")
    p.add_argument("--corpus", default="uniform:50")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("expansion-check", parents=[out], help="boundary-expansion scan")
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, help="check this many seeded random pairs (default: every pair)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("query-account", parents=[out], help="query bookkeeping for square:n,t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--alpha", default="1/4294967296", help="per-level robustness constant")

    return parser


def _emit(doc, out: Optional[str], fmt: str = "json") -> None:
    """Write a result document: its report rows as CSV, or its JSON, to ``out`` or to stdout."""
    if fmt == "csv":
        if out is None:
            raise ValueError("CSV output requires an output path")
        write_csv(out, doc["reports"])
        print(f"wrote {len(doc['reports'])} rows to {out}")
    elif out:
        with open(out, "wb") as fh:
            fh.write(json_bytes(doc))
        print(f"wrote {out}")
    else:
        print(json_bytes(doc).decode("utf-8"), end="")


def _load_word(args, field) -> Word:
    if args.word and args.word_file:
        raise ValueError("give either --word or --word-file, not both")
    if args.word:
        return Word(field, [parse_int(v, "--word must be comma-separated integers") for v in args.word.split(",")])
    if args.word_file:
        return parse_word_file(args.word_file, field)
    raise ValueError("a word is required (--word or --word-file)")


def _cmd_build_code(args) -> int:
    spec = args.code.strip()
    code = parse_code_spec(spec)
    kind = "reed_solomon" if spec.startswith("rs:") and "^" not in spec else "generator"
    _emit(code_to_json_dict(code, kind=kind), args.out)
    return 0


def _cmd_min_distance(args) -> int:
    code = parse_code_spec(args.code)
    print(code.min_distance())
    return 0


def _cmd_encode(args) -> int:
    code = parse_code_spec(args.code)
    message = [parse_int(v, "--message must be comma-separated integers") for v in args.message.split(",")]
    word = code.encode(message)
    # Emit the canonical word format (a bare JSON array) so the output can be
    # fed back through --word-file.
    _emit(word.to_list(), args.out)
    return 0


def _cmd_membership(args) -> int:
    if args.code and (args.graph or args.small):
        raise ValueError("give either --code or --graph with --small, not both")
    if args.code:
        code = parse_code_spec(args.code)
        word = _load_word(args, code.field)
    elif args.graph and args.small:
        graph, small = parse_graph_spec(args.graph), parse_code_spec(args.small)
        word, code = _load_word(args, small.field), TannerCode(graph, small)
    else:
        raise ValueError("membership needs --code, or --graph with --small")
    print("true" if code.contains(word) else "false")
    return 0


def _cmd_robustness(args) -> int:
    alpha = positive_alpha(parse_fraction(args.alpha))
    tau = unit_tau(parse_fraction(args.tau)) if args.tau else None
    instance = instance_from_specs(args.graph, args.small, full_spec=args.code)
    word = _load_word(args, instance.small.field)
    if args.samples is not None:
        est = instance.expected_robustness_sampled(word, args.seed, args.samples)
        _emit({"instance": instance.label, **est.to_json_dict(seed=args.seed)}, args.out)
        return 0
    report, _ = instance.certify(word, alpha, tau=tau, with_views=args.views)
    _emit(report.to_json_dict(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig(
        graph_spec=args.graph,
        small_spec=args.small,
        full_spec=args.code,
        corpus=args.corpus,
        seed=args.seed,
        alpha=parse_fraction(args.alpha),
        tau=parse_fraction(args.tau) if args.tau else None,
        samples=args.samples,
    )
    result = run_sweep(config)
    _emit(result.document(), args.out, args.format)
    print(
        f"# sweep: {result.summary['words']} words, "
        f"{result.violations} violations, {result.wall_time:.2f}s",
        file=sys.stderr,
    )
    return result.exit_code


def _cmd_compose_check(args) -> int:
    outer = parse_graph_spec(args.graph)
    inner = parse_graph_spec(args.graph2)
    small = parse_code_spec(args.small)
    result = run_compose_check(outer, inner, small, args.corpus, args.seed)
    _emit({"report": result["report"]}, args.out)
    print(f"# compose-check: {result['wall_time']:.2f}s", file=sys.stderr)
    return result["exit_code"]


def _cmd_expansion_check(args) -> int:
    graph = parse_graph_spec(args.graph)
    mode = "exhaustive" if args.samples is None else "sampled"
    result = run_expansion_check(graph, mode=mode, samples=args.samples, seed=args.seed)
    _emit({"report": result["report"]}, args.out)
    print(f"# expansion-check: {result['wall_time']:.2f}s", file=sys.stderr)
    return result["exit_code"]


def _cmd_query_account(args) -> int:
    _emit(query_account(args.n, args.t, parse_fraction(args.alpha)), args.out)
    return 0


_HANDLERS = {
    "build-code": _cmd_build_code,
    "min-distance": _cmd_min_distance,
    "encode": _cmd_encode,
    "membership": _cmd_membership,
    "robustness": _cmd_robustness,
    "sweep": _cmd_sweep,
    "compose-check": _cmd_compose_check,
    "expansion-check": _cmd_expansion_check,
    "query-account": _cmd_query_account,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option, low, kind in (("seed", 0, "non-negative"), ("samples", 1, "positive")):
            value = getattr(args, option, None)
            if value is not None and value < low:
                raise ValueError(f"--{option} must be a {kind} integer, got {value}")
        return _HANDLERS[args.command](args)
    except (LtcLabError, ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

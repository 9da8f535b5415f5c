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

from .code import Word
from .errors import LtcLabError
from .harness import (
    ExperimentConfig,
    code_to_json_dict,
    emit_document,
    instance_from_specs,
    parse_flat_code_spec,
    parse_graph_spec,
    parse_word_file,
    query_account,
    run_compose_check,
    run_expansion_check,
    run_sweep,
)
from .reports import parse_fraction
from .tanner import TannerCode


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltclab",
        description="Product-code construction and exact local-tester robustness measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-code", help="write a code-spec JSON document")
    p.add_argument("--code", required=True)
    _add_out(p)

    p = sub.add_parser("min-distance", help="exact brute-force minimum distance")
    p.add_argument("--code", required=True)

    p = sub.add_parser("encode", help="encode a message with a code")
    p.add_argument("--code", required=True)
    p.add_argument("--message", required=True, help="comma-separated symbols")
    _add_out(p)

    p = sub.add_parser("membership", help="membership of a word")
    p.add_argument("--code", help="plain code membership")
    p.add_argument("--graph", help="Tanner-product membership (with --small)")
    p.add_argument("--small")
    p.add_argument("--word", help="comma-separated symbols")
    p.add_argument("--word-file")

    p = sub.add_parser("robustness", help="robustness report for one word")
    p.add_argument("--graph", required=True)
    p.add_argument("--small", required=True)
    p.add_argument("--code", help="reference full code for delta (optional)")
    p.add_argument("--word")
    p.add_argument("--word-file")
    p.add_argument("--alpha", default="1/65536")
    p.add_argument("--tau")
    p.add_argument("--sampled", action="store_true")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--views", action="store_true", help="include per-view distances")
    _add_out(p)

    p = sub.add_parser("sweep", help="certify a seeded corpus")
    p.add_argument("--graph", required=True)
    p.add_argument("--small", required=True)
    p.add_argument("--code", help="reference full code for delta (optional)")
    p.add_argument("--corpus", default="mixed:120")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", default="1/65536")
    p.add_argument("--tau")
    p.add_argument("--sampled", action="store_true")
    p.add_argument("--samples", type=int, default=200)
    _add_out(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("compose-check", help="two-level composition identity")
    p.add_argument("--graph", required=True, help="outer graph")
    p.add_argument("--graph2", required=True, help="inner graph")
    p.add_argument("--small", required=True, help="small code at the inner level")
    p.add_argument("--corpus", default="uniform:50")
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)

    p = sub.add_parser("expansion-check", help="boundary-expansion scan")
    p.add_argument("--graph", required=True)
    p.add_argument("--sampled", action="store_true")
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)

    p = sub.add_parser("query-account", help="query bookkeeping for square:n,t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--alpha", default="1/4294967296", help="per-level robustness constant")
    _add_out(p)

    return parser


def _load_word(args, field) -> Word:
    if args.word and args.word_file:
        raise ValueError("give either --word or --word-file, not both")
    if args.word:
        return Word(field, [int(v) for v in args.word.split(",")])
    if args.word_file:
        return parse_word_file(args.word_file, field)
    raise ValueError("a word is required (--word or --word-file)")


def _cmd_build_code(args) -> int:
    spec = args.code.strip()
    code = parse_flat_code_spec(spec)
    kind = "reed_solomon" if spec.startswith("rs:") and "^" not in spec else "generator"
    doc = code_to_json_dict(code, kind=kind)
    print(emit_document(doc, args.out), end="")
    return 0


def _cmd_min_distance(args) -> int:
    code = parse_flat_code_spec(args.code)
    print(code.min_distance())
    return 0


def _cmd_encode(args) -> int:
    code = parse_flat_code_spec(args.code)
    message = [int(v) for v in args.message.split(",")]
    word = code.encode(message)
    # Emit the canonical word format (a bare JSON array) so the output can be
    # fed back through --word-file.
    print(emit_document(word.to_list(), args.out), end="")
    return 0


def _cmd_membership(args) -> int:
    if args.code and not args.graph:
        code = parse_flat_code_spec(args.code)
        word = _load_word(args, code.field)
        print("true" if code.contains(word) else "false")
        return 0
    if args.graph and args.small:
        graph = parse_graph_spec(args.graph)
        small = parse_flat_code_spec(args.small)
        word = _load_word(args, small.field)
        print("true" if TannerCode(graph, small).contains(word) else "false")
        return 0
    raise ValueError("membership needs --code, or --graph with --small")


def _cmd_robustness(args) -> int:
    instance = instance_from_specs(args.graph, args.small, full_spec=args.code)
    word = _load_word(args, instance.small.field)
    alpha = parse_fraction(args.alpha)
    tau = parse_fraction(args.tau) if args.tau else None
    if args.sampled:
        est = instance.expected_robustness_sampled(word, args.seed, args.samples)
        doc = {
            "instance": instance.label,
            "rho_estimate": str(est.value),
            "rho_stderr": f"{est.stderr:.6e}",
            "samples": est.samples,
            "seed": est.seed,
            "estimate": True,
        }
        print(emit_document(doc, args.out), end="")
        return 0
    report, _ = instance.certify(word, alpha, tau=tau, with_views=args.views)
    print(emit_document(report.to_json_dict(), args.out), end="")
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
        mode="sampled" if args.sampled else "exact",
        samples=args.samples,
    )
    result = run_sweep(config)
    msg = emit_document(result.document(), args.out, args.format)
    if args.out:
        print(msg)
    else:
        print(msg, end="")
    print(
        f"# sweep: {result.summary['words']} words, "
        f"{result.violations} violations, {result.wall_time:.2f}s",
        file=sys.stderr,
    )
    return result.exit_code


def _cmd_compose_check(args) -> int:
    outer = parse_graph_spec(args.graph)
    inner = parse_graph_spec(args.graph2)
    small = parse_flat_code_spec(args.small)
    result = run_compose_check(outer, inner, small, args.corpus, args.seed)
    msg = emit_document({"report": result["report"]}, args.out)
    print(msg, end="" if not args.out else "\n")
    print(f"# compose-check: {result['wall_time']:.2f}s", file=sys.stderr)
    return result["exit_code"]


def _cmd_expansion_check(args) -> int:
    graph = parse_graph_spec(args.graph)
    mode = "sampled" if args.sampled else "exhaustive"
    result = run_expansion_check(graph, mode=mode, samples=args.samples, seed=args.seed)
    msg = emit_document({"report": result["report"]}, args.out)
    print(msg, end="" if not args.out else "\n")
    print(f"# expansion-check: {result['wall_time']:.2f}s", file=sys.stderr)
    return result["exit_code"]


def _cmd_query_account(args) -> int:
    account = query_account(args.n, args.t, parse_fraction(args.alpha))
    print(emit_document(account.to_json_dict(), args.out), end="")
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

"""Command-line front end.

Subcommands: check, rewrite, forward, backward, flatten, injectivize,
invert, pipeline, bidir. Exit codes: 0 success, 1 domain failure (normal
form reached when a step was required, failed validation, failed update),
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import ParseError, RevrwError
from .reversible import (
    Pair,
    Trace,
    backward_run,
    format_trace,
    forward_run,
    parse_trace,
)
from .rewrite import DEFAULT_BOUNDS, STRATEGIES, Bounds, normalize
from .systems import RewriteSystem, format_system, parse_system, parse_term, parse_terms, validate
from .terms import format_term
from .transform import (
    injectivize,
    injectivize_improved,
    invert,
    is_injectivized,
    to_pcdctrs,
    view_update,
)

_PROPERTIES = ("3ctrs", "dctrs", "constructor", "pcdctrs")


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _add_bounds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-steps", type=_positive_int, default=DEFAULT_BOUNDS.max_steps, metavar="N")
    p.add_argument("--max-depth", type=_positive_int, default=DEFAULT_BOUNDS.max_depth, metavar="N")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="input .trs file")
    p.add_argument("--output", metavar="PATH", help="write the output here instead of stdout")


def _add_trace(p: argparse.ArgumentParser, required: bool) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--trace", default=None if required else "[]",
                       help="the trace" + ("" if required else " to resume from"))
    group.add_argument("--trace-file", metavar="PATH",
                       help="read the trace from this file ('-' for standard input)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revrw",
        description="Reversible term rewriting: run, trace, and transform conditional rewrite systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a system and validate a property")
    _add_common(p)
    p.add_argument("--property", choices=_PROPERTIES)

    p = sub.add_parser("rewrite", help="normalize a term (no trace)")
    _add_common(p)
    p.add_argument("--term", required=True)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--steps", default="normal", metavar="N|normal")
    _add_bounds(p)

    p = sub.add_parser("forward", help="reduce a term recording a trace")
    _add_common(p)
    p.add_argument("--term", required=True)
    _add_trace(p, required=False)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--steps", default="normal", metavar="N|normal")
    _add_bounds(p)

    p = sub.add_parser("backward", help="run a trace backwards")
    _add_common(p)
    p.add_argument("--term", required=True)
    _add_trace(p, required=True)
    _add_bounds(p)

    for name, help_text in (
        ("flatten", "transform to an equivalent pcDCTRS"),
        ("injectivize", "pcDCTRS with trace outputs (forward system)"),
        ("invert", "inverse of the injectivized system (backward system)"),
        ("pipeline", "print the systems of every transformation step"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--improved", action="store_true",
                       help="use the improved injectivization for injective rules")

    p = sub.add_parser("bidir", help="view-update: propagate a new view back to the source")
    _add_common(p)
    p.add_argument("--args", required=True, dest="view_args",
                   help="comma-separated view function arguments")
    p.add_argument("--new-view", required=True)
    p.add_argument("--function", help="view function name (default: first rule root)")
    p.add_argument("--improved", action="store_true")
    _add_bounds(p)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parsing leaves it
    unchanged, and help and usage text is formatted when printed."""
    return build_parser()


def _read_system(path: str, allow_reserved: bool) -> RewriteSystem:
    with open(path, encoding="utf-8") as handle:
        return parse_system(handle.read(), allow_reserved=allow_reserved)


def _read_trace(args: argparse.Namespace) -> Trace:
    if args.trace_file is None:
        return parse_trace(args.trace)
    if args.trace_file == "-":
        return parse_trace(sys.stdin.read())
    with open(args.trace_file, encoding="utf-8") as handle:
        return parse_trace(handle.read())


def _parse_steps(text: str) -> int | None:
    if text == "normal":
        return None
    try:
        n = int(text)
    except ValueError:
        raise ParseError(f"--steps expects a number or 'normal', got {text!r}") from None
    if n < 0:
        raise ParseError("--steps must be non-negative")
    return n


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _default_strategy(system: RewriteSystem, chosen: str | None) -> str:
    if chosen:
        return chosen
    return "constructor" if system.is_pcdctrs else "innermost"


def _run(args: argparse.Namespace) -> int:
    if args.command == "check":
        system = _read_system(args.file, allow_reserved=True)
        if args.property:
            report = validate(system, args.property)
            _emit(str(report) + "\n", args.output)
            return 0 if report.ok else 1
        flags = {
            "rules": len(system.rules),
            "trs": system.is_trs,
            "3ctrs": system.is_3ctrs,
            "dctrs": system.is_dctrs,
            "constructor": system.is_constructor_system,
            "pcdctrs": system.is_pcdctrs,
        }
        _emit("".join(f"{k}: {v}\n" for k, v in flags.items()), args.output)
        return 0

    if args.command == "rewrite":
        system = _read_system(args.file, allow_reserved=True)
        bounds = Bounds(args.max_steps, args.max_depth)
        strategy = _default_strategy(system, args.strategy)
        term = parse_term(args.term, system, allow_reserved=True)
        steps = _parse_steps(args.steps)
        if steps is None:
            result = normalize(system, term, strategy, bounds)
        else:
            pair = forward_run(system, Pair(term), strategy, steps, bounds)
            result = pair.term
        _emit(format_term(result) + "\n", args.output)
        return 0

    if args.command == "forward":
        system = _read_system(args.file, allow_reserved=True)
        bounds = Bounds(args.max_steps, args.max_depth)
        strategy = _default_strategy(system, args.strategy)
        term = parse_term(args.term, system, allow_reserved=True)
        pair = Pair(term, _read_trace(args))
        result = forward_run(system, pair, strategy, _parse_steps(args.steps), bounds)
        _emit(format_term(result.term) + "\n" + format_trace(result.trace) + "\n", args.output)
        return 0

    if args.command == "backward":
        system = _read_system(args.file, allow_reserved=True)
        term = parse_term(args.term, system, allow_reserved=True)
        pair = Pair(term, _read_trace(args))
        result = backward_run(system, pair)
        _emit(format_term(result.term) + "\n", args.output)
        return 0

    if args.command in ("flatten", "injectivize", "invert", "pipeline"):
        if args.command == "invert":
            system = _read_system(args.file, allow_reserved=True)
            if is_injectivized(system):
                _emit(format_system(invert(system)), args.output)
                return 0
        # Transforming commands generate reserved names, so their input must
        # not use any; the strict parse enforces that.
        system = _read_system(args.file, allow_reserved=False)
        # Each system is built only if the command prints it.
        pc, _ = to_pcdctrs(system)
        blocks = [("input system", system), ("pcDCTRS (flattening + condition simplification)", pc)]
        if args.command != "flatten":
            forward = injectivize_improved(pc, system) if args.improved else injectivize(pc)
            blocks.append(("injectivized system", forward))
            if args.command != "injectivize":
                blocks.append(("inverted system", invert(forward)))
        if args.command == "pipeline":
            text = "\n".join(f"== {title} ==\n{format_system(s)}" for title, s in blocks)
        else:
            text = format_system(blocks[-1][1])
        _emit(text, args.output)
        return 0

    if args.command == "bidir":
        system = _read_system(args.file, allow_reserved=False)
        bounds = Bounds(args.max_steps, args.max_depth)
        pc, _ = to_pcdctrs(system)
        view_args = parse_terms(args.view_args, pc)
        new_view = parse_term(args.new_view, pc)
        updated = view_update(
            pc,
            view_args,
            new_view,
            bounds,
            function=args.function,
            improved_origin=system if args.improved else None,
        )
        _emit("(" + ", ".join(format_term(t, sugar=True) for t in updated) + ")\n", args.output)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        print(f"revrw: parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"revrw: {exc}", file=sys.stderr)
        return 2
    except RevrwError as exc:
        print(f"revrw: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

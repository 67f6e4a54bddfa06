"""Command-line interface.

Exit codes: 0 success/compliant/property holds; 1 violations found, comparison
not equal, or property not derivable; 2 usage, parse or input errors (a trace
or architecture the semantics reject, events the mapping cannot derive from),
each reported as one ``error:`` line; 3 internal limits (state-space guard).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import architecture as arch_mod
from .architecture import (
    ArchSemanticsError,
    Architecture,
    EnumerationLimit,
    Universe,
    is_pattern,
    schema_of,
)
from .compliance import check_trace
from .dsl import (
    ParseError,
    parse_architecture,
    parse_arch_trace,
    parse_has_query,
    parse_policy,
    parse_trace,
    serialize_architecture,
    sniff_kind,
)
from .logic import And, conclusions, deduce, eval_semantic
from .mapping import (
    MappingContext,
    MappingError,
    check_correspondence,
    compare_architectures,
    compare_policies,
    derive_architecture,
)
from .model import SP
from .semantics import SemanticsError

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_UNSOUND = 4

DEFAULT_MAX_STATES = 10**6
DEFAULT_MAX_LEN = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise SystemExit2(f"cannot read {path}: {err.strerror}")
    except UnicodeDecodeError as err:
        raise SystemExit2(f"cannot read {path}: byte {err.start} is not UTF-8")


class SystemExit2(Exception):
    """Usage-level failure carrying a message for standard error."""


def _load_policy(path: str):
    return parse_policy(_read(path), file=path)


def _load_trace(path: str, model):
    return parse_trace(_read(path), model, file=path)


def _load_architecture(path: str) -> Architecture:
    return parse_architecture(_read(path), file=path)


def _concrete_users(pa: Architecture) -> frozenset[str]:
    """The users the tables and the activities' index slots name, patterns
    and the provider aside: the universe the search ranges over."""
    tokens = set(pa.perms.users())
    for act in pa.activities:
        tokens.update(getattr(act, slot) for slot in schema_of(act).index)
    return frozenset(u for u in tokens if not is_pattern(u)) - {SP}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    text = _read(args.file)
    kind = sniff_kind(text)
    if kind == "policy":
        parse_policy(text, file=args.file)
    elif kind == "architecture":
        parse_architecture(text, file=args.file)
    elif kind == "query":
        parse_has_query(text, file=args.file)
    elif not args.policy:
        raise SystemExit2(f"validating {'an arch' if kind == 'arch-trace' else 'a'} trace"
                          " requires --policy")
    elif kind == "trace":
        parse_trace(text, _load_policy(args.policy), file=args.file)
    else:
        parse_arch_trace(text, _load_policy(args.policy).sets, file=args.file)
    if args.policy and kind not in ("trace", "arch-trace"):
        raise SystemExit2(f"--policy applies to traces and arch traces, not to {kind} documents")
    print(f"{args.file}: valid {kind} document")
    return EXIT_OK


def cmd_check_trace(args) -> int:
    model = _load_policy(args.policy)
    trace = _load_trace(args.trace, model)
    report = check_trace(trace, model.sets)
    if args.format == "tsv":
        print(report.render())
    else:
        for v in report.violations:
            print(f"{v.rule} at event {v.event_index} ({v.datum.ident}): {v.detail}")
        for w in report.warnings:
            print(f"warning: {w}")
        print("compliant" if report.compliant else
              f"non-compliant ({len(report.violations)} violations)")
    return EXIT_OK if report.compliant else EXIT_FINDINGS


def cmd_derive_arch(args) -> int:
    model = _load_policy(args.policy)
    events = _load_trace(args.events, model) if args.events else []
    ctx = MappingContext(model=model, simplify_friends=args.simplify_friends)
    pa = derive_architecture(events, ctx)
    rendered = serialize_architecture(pa)
    if args.output:
        try:
            Path(args.output).write_text(rendered, encoding="utf-8")
        except OSError as err:
            raise SystemExit2(f"cannot write {args.output}: {err.strerror}")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def cmd_eval_has(args) -> int:
    if args.archtrace and args.mode == "enumerate":
        raise SystemExit2("--archtrace feeds the deduction rules, which --mode enumerate does not run")
    if args.mode == "deduce" and (args.max_len, args.max_states) != (None, None):
        raise SystemExit2("--max-len and --max-states bound the search, which --mode deduce does not run")
    pa = _load_architecture(args.arch)
    prop = parse_has_query(_read(args.query), file=args.query)
    parts = prop.parts if isinstance(prop, And) else (prop,)
    users = _concrete_users(pa) | {p.user for p in parts} - {SP}

    holds_deduce = holds_semantic = None
    if args.mode in ("deduce", "both"):
        trace = (parse_arch_trace(_read(args.archtrace), pa.sets, file=args.archtrace)
                 if args.archtrace else [])
        index = arch_mod.is_compatible(trace, pa)[1]
        if index is not None:
            raise SystemExit2(
                f"{args.archtrace}: event {index} instantiates no activity of {args.arch}")
        derived = conclusions(deduce(pa, trace, users))
        holds_deduce = all(p in derived for p in parts)
        print(f"deduce: {'derivable' if holds_deduce else 'not derivable'}")
    if args.mode in ("enumerate", "both"):
        universe = Universe(users=tuple(sorted(users)))
        max_len = DEFAULT_MAX_LEN if args.max_len is None else args.max_len
        max_states = DEFAULT_MAX_STATES if args.max_states is None else args.max_states
        try:
            verdict = eval_semantic(pa, prop, universe, max_len=max_len, max_states=max_states)
        except EnumerationLimit as err:
            print(f"enumerate: limit reached ({err})", file=sys.stderr)
            return EXIT_LIMIT
        holds_semantic = verdict.holds
        print(f"enumerate: {verdict.render()}")
        if holds_deduce and not verdict.holds and not verdict.bounded:
            print("eval-has: the rules derive the query but the search refutes it"
                  " (an unsound deduction)", file=sys.stderr)
            return EXIT_UNSOUND
    ok = (holds_deduce or holds_semantic) is True
    return EXIT_OK if ok else EXIT_FINDINGS


def cmd_check_correspondence(args) -> int:
    if args.arch and args.simplify_friends:
        raise SystemExit2("--simplify-friends shapes the derived architecture, which --arch replaces")
    model = _load_policy(args.policy)
    ctx = MappingContext(model=model, simplify_friends=args.simplify_friends)
    trace = _load_trace(args.trace, model) if args.trace else None
    pa = _load_architecture(args.arch) if args.arch else None
    report = check_correspondence(ctx, pa=pa, trace=trace)
    if args.format == "tsv":
        print(report.render())
    else:
        for r in report.results:
            if r.status == "fails" or args.verbose:
                who = f" user={r.user}" if r.user else ""
                print(f"{r.prop}{who} datum={r.datum}: {r.status} ({r.detail})")
        print("correspondence holds" if report.holds else "correspondence fails")
    return EXIT_OK if report.holds else EXIT_FINDINGS


def cmd_compare_policies(args) -> int:
    m1 = _load_policy(args.first)
    m2 = _load_policy(args.second)
    if m1.sets != m2.sets:
        raise SystemExit2("the two models declare different activity sets")
    shared = sorted(set(m1.policies) & set(m2.policies))
    if not shared:
        raise SystemExit2("the two models govern no common datum")
    all_equal = True
    for ident in shared:
        cmp = compare_policies(m1.policies[ident], m2.policies[ident])
        if args.format == "tsv":
            for name, rel in sorted(cmp.components.items()):
                print(f"{ident}\t{name}\t{rel}")
            print(f"{ident}\toverall\t{cmp.overall}")
        else:
            print(f"{ident}: {cmp.overall}")
            for name, rel in sorted(cmp.components.items()):
                if rel != "equal" or args.verbose:
                    print(f"  {name}: {rel}")
        all_equal = all_equal and cmp.overall == "equal"
    return EXIT_OK if all_equal else EXIT_FINDINGS


def cmd_compare_archs(args) -> int:
    pa1 = _load_architecture(args.first)
    pa2 = _load_architecture(args.second)
    cmp = compare_architectures(pa1, pa2)
    print(cmp.render())
    return EXIT_OK if cmp.overall == "equal" else EXIT_FINDINGS


def cmd_enumerate(args) -> int:
    pa = _load_architecture(args.arch)
    universe = Universe(users=tuple(sorted(_concrete_users(pa))) or ("u1",))
    _, reached = arch_mod.search_states(pa, args.max_len, universe, max_states=args.max_states)
    try:
        count = sum(1 for _ in reached)
    except EnumerationLimit as err:
        print(f"limit reached: {err}", file=sys.stderr)
        return EXIT_LIMIT
    print(f"{count} reachable states within {args.max_len} events")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _bound(text: str) -> int:
    """A length or state bound: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: parsing reads it without changing it."""
    parser = argparse.ArgumentParser(
        prog="datactl",
        description="Define, audit, and derive data-control policies and architectures.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", allow_abbrev=False, help="parse a document and report errors")
    p.add_argument("file")
    p.add_argument("--policy", help="model file, required when validating a trace or an "
                   "arch trace, whose event names it declares")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-trace", allow_abbrev=False,
                       help="audit a trace against the compliance rules")
    p.add_argument("policy")
    p.add_argument("trace")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=cmd_check_trace)

    p = sub.add_parser("derive-arch", allow_abbrev=False,
                       help="derive an architecture from policy events")
    p.add_argument("policy")
    p.add_argument("--events", help="trace file driving the derivation")
    p.add_argument("--simplify-friends", action="store_true",
                   help="collapse group events into the declared alias pair")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_derive_arch)

    p = sub.add_parser("eval-has", allow_abbrev=False, help="evaluate a possession property")
    p.add_argument("arch")
    p.add_argument("query")
    p.add_argument("--mode", choices=("deduce", "enumerate", "both"), default="both")
    p.add_argument("--archtrace", help="architecture trace for the deduction rules")
    p.add_argument("--max-len", type=_bound)  # unset unless given: --mode deduce rejects them
    p.add_argument("--max-states", type=_bound)
    p.set_defaults(func=cmd_eval_has)

    p = sub.add_parser("check-correspondence", allow_abbrev=False,
                       help="check the policy/architecture correspondences")
    p.add_argument("policy")
    p.add_argument("--arch", help="explicit architecture (default: derived)")
    p.add_argument("--trace", help="policy trace widening the derived architecture")
    p.add_argument("--simplify-friends", action="store_true")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_check_correspondence)

    p = sub.add_parser("compare-policies", allow_abbrev=False, help="compare two policy models")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_compare_policies)

    p = sub.add_parser("compare-archs", allow_abbrev=False, help="compare two architectures")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare_archs)

    p = sub.add_parser("enumerate", allow_abbrev=False, help="count reachable architecture states")
    p.add_argument("arch")
    p.add_argument("--max-len", type=_bound, default=DEFAULT_MAX_LEN)
    p.add_argument("--max-states", type=_bound, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, SemanticsError, MappingError, ArchSemanticsError, SystemExit2) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

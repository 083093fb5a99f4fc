"""Command-line entry point wiring instances, sessions, and analyses
into reproducible experiments.

Subcommands: demo | run | analyze | check | search. Every artifact embeds
the schema version, tool version, effective config, and seed; a fixed
seed reproduces outputs byte for byte, independent of worker count.
Exit codes: 0 success/pass, 1 checked-property fail, 2 usage error,
3 resource cap, 4 internal error (an invariant of the program failed).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import random
import sys
from fractions import Fraction
try:  # json.encoder's own C escaper, without loading the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the accelerator
    from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Optional

# Modules beyond ``actions`` are imported by the commands that use them,
# which read a traced name through ``actions`` or ``analysis`` when run.
from . import __version__
from .actions import (
    ActionInstance,
    DEFAULT_WORK_CAP,
    INSTANCE_KINDS,
    build_instance,
    instance_from_descriptor,
    instance_to_descriptor,
    load_json,
    rational_demo_instance,
    trivial_instance,
)
from .errors import TriplePassError, WorkCapExceeded
from .fields import PrimeField, Scalar, parse_scalar, scalar_to_json
from .matrices import parse_matrix

if TYPE_CHECKING:
    from .analysis import LeakageReport
    from .census import SearchReport
    from .posterior import BayesStep, PosteriorPrior

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

_CLI_KINDS = tuple(k for k in INSTANCE_KINDS if k != "custom") + ("trivial", "rational")


class UsageError(Exception):
    pass


def _default_cap() -> int:
    env = os.environ.get("TRIPLEPASS_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"TRIPLEPASS_CAP must be an integer, got {env!r}") from None
    return DEFAULT_WORK_CAP


def _resolve_instance(
    args: argparse.Namespace,
    descriptor: Optional[dict] = None,
    missing: Optional[str] = "an instance is required (--instance KIND or a descriptor file)",
) -> Optional[ActionInstance]:
    """The one place a command gets its instance.

    The source is ``--instance`` (a kind, ``trivial``, ``rational`` or a
    descriptor file), else ``demo --rational``, else ``descriptor``, the
    one a transcript file carries. With no source, ``missing`` is raised,
    or None is returned when it is None (the scripted demo). Kinds take
    every instance flag and ``trivial`` takes --p alone, which means 5
    when not given; any other source, or none, refuses them all.
    """
    selector = args.instance
    if getattr(args, "rational", False):
        if selector is not None:
            raise UsageError("--rational cannot be used with --instance")
        selector = "rational"
    if selector is None and descriptor is None and missing is not None:
        raise UsageError(missing)
    is_file = selector is not None and (selector.endswith(".json") or "/" in selector)
    if not (selector is None or is_file or selector in INSTANCE_KINDS + ("trivial", "rational")):
        raise UsageError(f"unknown instance kind {selector!r} (expected one of {', '.join(_CLI_KINDS)})")
    flags = {"--p": args.p, "--generators": args.generators, "--secret-domain": args.secret_domain,
             "--t-domain": args.t_domain, "--name": args.name}
    takes = flags if selector in INSTANCE_KINDS else ("--p",) if selector == "trivial" else ()
    # Only what the source takes is read; any other flag would be dropped.
    refused = [flag for flag, value in flags.items() if value is not None and flag not in takes]
    if refused:
        source = (f"with --instance {selector}" if args.instance
                  else "with --rational" if selector else "without --instance")
        raise UsageError(f"{', '.join(refused)} cannot be used {source}")
    p = 5 if args.p is None else args.p
    if selector is None:
        return None if descriptor is None else instance_from_descriptor(descriptor, work_cap=args.cap)
    if is_file:
        return instance_from_descriptor(load_json(selector), work_cap=args.cap)
    if selector == "trivial":
        return trivial_instance(p, work_cap=args.cap)
    if selector == "rational":
        return rational_demo_instance()

    def domain(flag: str) -> Optional[list[Scalar]]:
        text = flags[flag]
        if text is None:
            return None
        field = PrimeField(p)
        return [_residue(item, field, f"{flag} value") for item in text.split(",")]

    return build_instance(
        selector, p, generators=args.generators, name=args.name, work_cap=args.cap,
        secret_domain=domain("--secret-domain"), t_domain=domain("--t-domain"),
    )


def _write(args: argparse.Namespace, schema: str, body: Callable[[], dict],
           lines: Callable[[], Iterable[str]], instance: Optional[ActionInstance] = None,
           **config) -> None:
    """The one place a command's result leaves: to ``--out``, else stdout.

    A text format writes the lines ``lines()`` gives. JSON writes the
    envelope (schema, tool, seed, then the config: command, seed, cap,
    format, the instance's name and descriptor when ``instance`` is given,
    then ``config``), followed by the keys of ``body()`` in order. Only the
    callable for the asked format is called. The worker count and output
    path are left out of the config on purpose: neither may influence the
    artifact bytes.
    """
    if args.format != "json":
        text = "\n".join(lines()) + "\n"
    else:
        if instance is not None:
            config = {"instance": instance.name, "descriptor": instance_to_descriptor(instance), **config}
        text = _json_text({
            "schema": schema,
            "tool": {"name": "triplepass", "version": __version__},
            "seed": args.seed,
            "config": {"command": args.command, "seed": args.seed, "cap": args.cap,
                       "format": args.format, **config},
            **body(),
        })
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


_NONFINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


class _Raw(str):
    """JSON text rendered at the depth where it is written, written verbatim."""


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2) + "\n"``, byte for byte, for the
    values artifacts hold: dicts with str keys, lists, tuples, str, int,
    float, bool and None, of exactly those types, and ``_Raw`` records,
    joined from fragments rendered once each at the depth where they are
    written (see ``_report_texts``) and written verbatim. Anything else,
    another ``str`` subclass too, raises TypeError. The stdlib encoder
    runs in pure Python once ``indent`` is set; this one is faster.
    """
    return _json_value(payload, "\n", {}) + "\n"


def _json_value(obj, nl: str, memo: dict[tuple[int, str], tuple[object, str]]) -> str:
    """The JSON text of ``obj`` with ``nl`` opening each of its lines; ``memo``
    maps a container's (id, nl) to the container, kept alive, and its text."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return repr(obj)
    if kind is float:
        return repr(obj) if math.isfinite(obj) else _NONFINITE.get(obj, "NaN")
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is _Raw:
        return obj
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    key = (id(obj), nl)
    done = memo.get(key)
    if done is not None:
        return done[1]
    brackets = "{}" if kind is dict else "[]"
    if not obj:
        text = brackets
    else:
        inner = nl + "  "
        if kind is dict:
            # _quote raises TypeError on a key that is not a str.
            items = [_quote(k) + ": " + _json_value(v, inner, memo) for k, v in obj.items()]
        else:
            items = [_json_value(v, inner, memo) for v in obj]
        text = f'{brackets[0]}{inner}{("," + inner).join(items)}{nl}{brackets[1]}'
    memo[key] = (obj, text)
    return text


def _prior_json(prior: dict) -> dict:
    return {str(s.value): str(mass) for s, mass in sorted(prior.items(), key=lambda kv: kv[0].value)}


def _residue(text: str, field: PrimeField, what: str) -> Scalar:
    # Only canonical residues, as on the wire: "7", "-3" or " 1" would alias a secret.
    if not (text.isascii() and text.isdigit() and str(int(text)) == text and int(text) < field.p):
        raise UsageError(f"{what} {text!r} is not a residue in [0, {field.p})")
    return field.scalar(int(text))


def _load_prior(path: Optional[str], instance: ActionInstance):
    if path is None:
        return None
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise UsageError("a prior file must hold a JSON object mapping secrets to masses")
    for mass in raw.values():
        if isinstance(mass, bool) or not isinstance(mass, (str, int)):
            raise UsageError(f"prior mass {mass!r} is not an integer or a fraction string")
    field = instance.field
    if not isinstance(field, PrimeField):
        raise UsageError("a prior needs an instance over a prime field")
    prior = {}
    for res, mass in raw.items():
        key = _residue(res, field, "prior key")
        try:
            prior[key] = Fraction(mass)
        except ZeroDivisionError:
            raise UsageError(f"prior mass {mass!r} has a zero denominator") from None
    return prior


def _leakage_dict(report: LeakageReport) -> dict:
    return {
        "instance": report.instance,
        "mutual_information_bits": report.mutual_information_bits,
        "zero_leakage": report.zero_leakage,
        "transcripts_examined": report.transcripts_examined,
        "prior": _prior_json(report.prior),
    }


def _posterior_reports(
    transcript_dicts: list, instance: ActionInstance, prior: PosteriorPrior, cap: int
) -> list[tuple[dict, BayesStep]]:
    """Each wire transcript, read into the instance's index, as its wire
    dict (one ``WireWriter`` writes all) and its shared ``BayesStep``;
    ``--format human`` prints these. ``_report_texts`` joins each JSON
    report from a fixed head, three point fragments (one per carrier
    point, p² in all) and its step's tail (one per distinct step: prior,
    posterior, posterior_float, support, uniform and witness_count)."""
    from .analysis import posterior_from_transcript
    from .protocol import WireWriter, transcript_from_dict

    writer = WireWriter(instance)
    reports = []
    for i, d in enumerate(transcript_dicts):
        wire = transcript_from_dict(d, i, index=prior.index)
        step = posterior_from_transcript(wire, instance, prior, cap=cap)
        reports.append((writer.transcript(wire.v1, wire.v2, wire.v3), step))
    return reports


def _report_texts(reports: list[tuple[dict, BayesStep]], prior: PosteriorPrior) -> list[_Raw]:
    """Each report's JSON text, as an item of the artifact's ``reports``."""
    inner = _ITEM + "  "
    prior_json = {str(s): str(mass) for s, mass in prior.by_residue.items()}
    memo: dict = {}
    tails = dict.fromkeys(step for _, step in reports)
    for step in tails:
        shared = {"prior": prior_json, "posterior": {str(s): str(m) for s, m in step.posterior},
                  "posterior_float": {str(s): float(m) for s, m in step.posterior},
                  "support": list(step.support), "uniform": step.uniform,
                  "witness_count": step.witness_count}
        # The fields that follow the transcript's: the "{" becomes a ",".
        tails[step] = "," + _json_value(shared, _ITEM, memo)[1:]
    texts = _wire_texts([wire for wire, _ in reports], inner, memo)
    return [_Raw(f'{{{inner}"transcript": {text}{tails[step]}')
            for text, (_, step) in zip(texts, reports)]


_ITEM = "\n    "  # opens each line of an item of a list that a body key holds (see ``_write``)
# The keys of a lab-view wire dict and of its truth, in order (see
# ``protocol.transcript_to_dict``); the adversary view stops at "v3".
_WIRE_KEYS, _TRUTH_KEYS = ("instance", "p", "v1", "v2", "v3", "truth"), ("s", "t", "A", "B")


def _wire_texts(wires: list[dict], nl: str, memo: dict) -> list[_Raw]:
    """``_json_value(wire, nl, memo)`` of each wire dict: a fragment per
    point (``WireWriter`` shares its points) and, in a lab view, a truth
    of residues and mask literals. A dict with other keys, or in another
    order, raises TypeError rather than be written without them."""
    inner, deeper = nl + "  ", nl + "    "
    texts = []
    for wire in wires:
        truth = wire.get("truth")
        if tuple(wire) != _WIRE_KEYS[:5 + (truth is not None)] or (
                truth is not None and tuple(truth) != _TRUTH_KEYS):
            raise TypeError(f"not a wire transcript: {wire!r}")
        v1, v2 = _json_value(wire["v1"], inner, memo), _json_value(wire["v2"], inner, memo)
        text = (f'{{{inner}"instance": {_quote(wire["instance"])},{inner}"p": '
                f'{_json_value(wire["p"], inner, memo)},{inner}"v1": {v1},{inner}"v2": {v2},'
                f'{inner}"v3": {_json_value(wire["v3"], inner, memo)}')
        if truth is not None:
            s, t = _json_value(truth["s"], deeper, memo), _json_value(truth["t"], deeper, memo)
            text += (f',{inner}"truth": {{{deeper}"s": {s},{deeper}"t": {t},{deeper}"A": '
                     f'{_quote(truth["A"])},{deeper}"B": {_quote(truth["B"])}{inner}}}')
        texts.append(_Raw(text + nl + "}"))
    return texts


def _search_dict(report: SearchReport) -> dict:
    entries = [{"descriptor": e.descriptor, "group_order": e.group_order, "abelian": e.abelian,
                "reports": [r.to_json_dict() for r in e.reports],
                "leakage": _leakage_dict(e.leakage) if e.leakage else None,
                "skipped": e.skipped, "candidate": e.candidate} for e in report.entries]
    return {
        "p": report.p,
        "max_generators": report.max_generators,
        "complete": report.complete,
        "subgroups_examined": report.subgroups_examined,
        "entries": entries,
        "candidates": list(report.candidates),
    }


def _session_lines(wire: dict, v4, success: bool) -> list[str]:
    """One session's human lines, from its lab-view wire dict and its v4
    (a point or a point literal): every value prints as its literal."""
    truth = wire["truth"]
    point = "[{},{}]@" + ("Q" if wire["p"] == "Q" else f"F{wire['p']}")
    return [
        f"  v  = (s={truth['s']}, t={truth['t']})",
        f"  A  = {truth['A']}",
        f"  B  = {truth['B']}",
        f"  pass 1  alice -> bob    v1 = {point.format(*wire['v1'])}",
        f"  pass 2  bob   -> alice  v2 = {point.format(*wire['v2'])}",
        f"  pass 3  alice -> bob    v3 = {point.format(*wire['v3'])}",
        f"  pass 4  bob unmasks     v4 = {v4}",
        "  round trip: OK (v4 = v)" if success
        else "  round trip: FAILED (v4 != v; the masks do not commute on v)",
    ]


# The scripted demo: (kind, p, title, s, t, A, B), a general-linear
# failure, then a commuting success.
_SCRIPT = (
    ("general-linear", 2, "general-linear masks over F2 (round trip breaks)",
     1, 0, "[[1,1],[0,1]]@F2", "[[1,0],[1,1]]@F2"),
    ("diagonal", 5, "diagonal masks over F5 (round trip holds)",
     2, 3, "[[2,0],[0,1]]@F5", "[[3,0],[0,4]]@F5"),
)


def cmd_demo(args: argparse.Namespace) -> int:
    from .protocol import WireWriter, wire_sessions

    instance = _resolve_instance(args, missing=None)
    rng = random.Random(args.seed)

    if instance is None and args.sessions is not None:
        raise UsageError("--sessions needs --instance or --rational; the scripted demo is fixed")
    if instance is not None:
        # Without --sessions: one finite session, shown without a session
        # line, or three rational ones. Commuting masks must round-trip.
        rational = not instance.is_finite
        if not rational:
            print(f"three-pass demo: {instance.name}")
        count = args.sessions if args.sessions is not None else 3 if rational else 1
        ok = True
        for i, (wire, v4, success) in enumerate(wire_sessions(instance, None, rng, count)):
            truth = wire["truth"]
            if rational:
                print(f"rational demo session {i}: secret s = {truth['s']}")
            elif args.sessions is not None:
                print(f"session {i}: secret s = {truth['s']}")
            print("\n".join(_session_lines(wire, v4, success)))
            if rational:
                commute = parse_matrix(truth["A"]).commutes_with(parse_matrix(truth["B"]))
                print(f"  masks commute: {'yes' if commute else 'no'}")
            ok = ok and (success or (rational and not commute))
        return EXIT_OK if ok else EXIT_FAIL

    successes = []
    for kind, p, title, s, t, mask_a, mask_b in _SCRIPT:
        writer = WireWriter(build_instance(kind, p))
        wire, v4, success = writer.session(s, t, writer.masks.index(mask_a), writer.masks.index(mask_b))
        print(f"three-pass demo: {title}")
        print("\n".join(_session_lines(wire, v4, success)))
        successes.append(success)
    return EXIT_OK if successes == [False, True] else EXIT_FAIL


def cmd_run(args: argparse.Namespace) -> int:
    from .protocol import wire_sessions

    instance = _resolve_instance(args)
    rng = random.Random(args.seed)
    if args.secret is None:
        fixed_secret = None
    elif isinstance(instance.field, PrimeField):
        fixed_secret = _residue(args.secret, instance.field, "secret")
    else:
        fixed_secret = parse_scalar(args.secret, instance.field)
    sessions = list(wire_sessions(instance, fixed_secret, rng, args.sessions))

    def lines():
        if args.format == "csv":
            yield from ("# schema: triplepass/run-success/v1", f"# tool: triplepass {__version__}",
                        f"# seed: {args.seed}", f"# instance: {instance.name}", "session,success")
            yield from (f"{i},{str(success).lower()}" for i, (_, _, success) in enumerate(sessions))
            return
        yield f"instance {instance.name}, seed {args.seed}"
        for i, session in enumerate(sessions):
            yield f"session {i}:"
            yield from _session_lines(*session)

    def body():
        if not args.lab_view:
            for wire, _, _ in sessions:
                del wire["truth"]
        return {"transcripts": _wire_texts([wire for wire, _, _ in sessions], _ITEM, {}),
                "successes": [success for _, _, success in sessions]}

    _write(args, "triplepass/run/v1", body, lines, instance, sessions=args.sessions,
           secret=None if fixed_secret is None else scalar_to_json(fixed_secret),
           lab_view=bool(args.lab_view))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    cap = args.cap
    if args.transcripts:
        from .posterior import posterior_prior

        data = load_json(args.transcripts)
        if isinstance(data, dict) and "transcripts" in data:
            transcript_dicts = data["transcripts"]
            config = data.get("config", {})
            if not isinstance(config, dict):
                raise UsageError("the config field of a transcript file must be an object")
            descriptor = config.get("descriptor")
        elif isinstance(data, list):
            transcript_dicts, descriptor = data, None
        else:
            transcript_dicts, descriptor = [data], None
        if not isinstance(transcript_dicts, list):
            raise UsageError("the transcripts field of a transcript file must be a list")
        instance = _resolve_instance(
            args, descriptor, "transcript file carries no instance descriptor; pass --instance"
        )
        validated = posterior_prior(instance, _load_prior(args.prior, instance))
        reports = _posterior_reports(transcript_dicts, instance, validated, cap)
        _write(args, "triplepass/posterior/v1", lambda: {"reports": _report_texts(reports, validated)},
               lambda: (f"transcript {wire}: support {{{','.join(map(str, step.support))}}},"
                        f" uniform={step.uniform}, witnesses={step.witness_count}"
                        for wire, step in reports), instance, transcripts=args.transcripts)
        return EXIT_OK

    from .analysis import exact_mutual_information

    instance = _resolve_instance(args)
    prior = _load_prior(args.prior, instance)
    report = exact_mutual_information(instance, prior, cap=cap)
    _write(args, "triplepass/leakage/v1", lambda: {"report": _leakage_dict(report)}, lambda: [
        f"instance {report.instance}: MI = {report.mutual_information_bits} bits,"
        f" zero_leakage={report.zero_leakage}, transcripts={report.transcripts_examined}"
    ], instance)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from . import actions, checks

    instance = _resolve_instance(args)
    if not instance.is_finite:
        raise UsageError("condition checks require a finite instance")
    square = checks.secret_square_points(instance)
    reports = [
        actions.is_commutator_fixed_set(square, instance.group, instance.name),
        actions.check_masking_coverage(instance, cap=args.cap),
        actions.check_transcript_equivalence(instance, cap=args.cap),
    ]
    _write(args, "triplepass/check/v1", lambda: {"reports": [r.to_json_dict() for r in reports]},
           lambda: (f"{r.condition}: {r.verdict} (work {r.work})" for r in reports), instance)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_search(args: argparse.Namespace) -> int:
    from .analysis import search_instances

    report = search_instances(
        args.p, args.max_generators, cap=args.cap, with_leakage=not args.no_leakage
    )

    def lines():
        yield (f"p={report.p}: {report.subgroups_examined} subgroups,"
               f" {len(report.entries)} instances, complete={report.complete}")
        for entry in report.entries:
            verdicts = ", ".join(f"{r.condition}={r.verdict}" for r in entry.reports)
            mi = entry.leakage.mutual_information_bits if entry.leakage else None
            yield f"  {entry.descriptor['name']} (order {entry.group_order}): {verdicts}, MI={mi}"
        yield f"candidates: {list(report.candidates)}"

    _write(args, "triplepass/search/v1", lambda: {"report": _search_dict(report)}, lines,
           p=args.p, max_generators=args.max_generators)
    return EXIT_OK if report.complete else EXIT_CAP


_COMMANDS = {
    "demo": ("scripted failure and success demonstrations", cmd_demo),
    "run": ("run seeded sessions and write transcripts", cmd_run),
    "analyze": ("posterior or whole-instance leakage", cmd_analyze),
    "check": ("run the action condition checkers", cmd_check),
    "search": ("census of instances from small generating sets", cmd_search),
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--cap", type=int, default=None, help="work cap (inner evaluations)")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv", "human"), default="json",
                        help="output format")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.set_defaults(func=_COMMANDS[command][1])
    if command == "search":
        parser.add_argument("--p", type=int, required=True)
        parser.add_argument("--max-generators", dest="max_generators", type=int, default=2)
        parser.add_argument("--no-leakage", dest="no_leakage", action="store_true")
        return
    parser.add_argument("--instance", type=str, default=None,
                        help=f"instance kind ({', '.join(_CLI_KINDS)}) or a descriptor .json path")
    parser.add_argument("--p", type=int, default=None,
                        help="prime modulus of a kind or trivial (default 5)")
    parser.add_argument("--generators", action="append", default=None,
                        help="matrix literal (repeatable, custom kind)")
    parser.add_argument("--secret-domain", dest="secret_domain", type=str, default=None)
    parser.add_argument("--t-domain", dest="t_domain", type=str, default=None)
    parser.add_argument("--name", type=str, default=None)
    if command == "demo":
        parser.add_argument("--rational", action="store_true", help="bounded rational matrix demo")
        parser.add_argument("--sessions", type=int, default=None,
                            help="session count of an --instance demo (default 1; rational 3)")
        parser.set_defaults(format="human")
    elif command == "run":
        parser.add_argument("--sessions", type=int, default=1)
        parser.add_argument("--secret", type=str, default=None, help="fixed secret literal")
        parser.add_argument("--lab-view", dest="lab_view", action="store_true",
                            help="include ground truth in transcripts")
    elif command == "analyze":
        parser.add_argument("--transcripts", type=str, default=None, help="transcript file to analyze")
        parser.add_argument("--prior", type=str, default=None, help="prior JSON path")


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its arguments once it is invoked."""

    def __init__(self, *, command: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self._command: Optional[str] = command

    def parse_known_args(self, args=None, namespace=None):
        if self._command is not None:
            _add_arguments(self, self._command)
            self._command = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplepass",
        description="Three-pass masking protocol lab: run it, break it, measure the leak.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for command, (text, _) in _COMMANDS.items():
        sub.add_parser(command, help=text, command=command)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        # The process runs this one command, so what start-up built lives as
        # long as it does; freezing it spares every collection a walk over it.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cap is None:
            args.cap = _default_cap()
        if args.cap <= 0:
            raise UsageError("work cap must be positive")
        if args.workers < 1:
            raise UsageError("--workers must be at least 1")
        if (getattr(args, "sessions", 0) or 0) < 0:
            raise UsageError("--sessions must not be negative")
        if args.command == "demo" and args.format != "human":
            raise UsageError("demo prints text only; --format json and csv are not available")
        if args.format == "csv" and args.command != "run":
            raise UsageError("csv output is only available for per-session run tables")
        if args.command == "demo" and args.out is not None:
            raise UsageError("demo writes no file; it prints to stdout")
        if getattr(args, "lab_view", False) and args.format != "json":
            raise UsageError("--lab-view is only available with --format json")
        return args.func(args)
    except WorkCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (UsageError, ValueError, OSError, TriplePassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {str(exc) or 'an internal invariant failed'}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end; exit codes: 0 ok, 1 analysis refusal, 2 input error."""

from __future__ import annotations

import argparse
import gc
import sys
import time
from fractions import Fraction

from . import exports
from .errors import (AnalysisTimeout, InputError, RefusalError, no_deadline,
                     read_text)
from .explicit import parse_explicit, serialize_explicit
from .games import FORWARD, MODES, OPTIMISTIC, PESSIMISTIC
from .generators import FAMILIES, generate
from .grouping import (BY_LABEL, BY_MODULE, EXPLICIT_LIST, GroupingSpec,
                       load_grouping_file, resolve_grouping)
from .model import (BUECHI, OBJECTIVE_KINDS, PARITY, REACHABILITY,
                    LassoRun, NoViolation, Objective, find_violating_run,
                    require_valid_run, violates)
from .modlang import DEFAULT_STATE_CAP, expand_program, parse_program
from .positivity import positivity_buechi_opt_all, positivity_reach_opt
from .refinement import (DEFAULT_BLOCK_CAP, HeuristicsConfig,
                         REFINE_HEURISTICS, SELECT_HEURISTICS, refine_loop,
                         responsibility_via_refinement)
from .shapley import (DEFAULT_ORACLE_CAP, DEFAULT_SHAPLEY_CAP, STATE_PLAYERS,
                      PayoffGame, PlayerSet, ResponsibilityReport,
                      oracle_shapley, oracle_shapley_and_minimal,
                      prune_dummies, shapley_exact)


def _non_negative(kind):
    """argparse type: a `kind` value that is at least 0; anything else is a
    usage error."""
    def parse(text):
        value = kind(text)
        if not value >= 0:  # also rejects nan
            raise argparse.ArgumentTypeError(
                f"must be a non-negative number: {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _add_model_flags(sub):
    sub.add_argument("model", help="model file (explicit document or program)")
    sub.add_argument("--mode", choices=MODES, default=PESSIMISTIC)
    sub.add_argument("--objective", choices=OBJECTIVE_KINDS,
                     help="override the document objective kind")
    sub.add_argument("--target", action="append", default=None,
                     metavar="STATE", help="objective target state (repeat)")
    sub.add_argument("--target-label", metavar="LABEL",
                     help="objective target via a program label")
    sub.add_argument("--colour", action="append", default=None,
                     metavar="LABEL=N",
                     help="parity colour for label states (repeat)")
    sub.add_argument("--run-prefix", metavar="S1,S2,...",
                     help="counterexample prefix override")
    sub.add_argument("--run-loop", metavar="S1,S2,...",
                     help="counterexample loop override")
    sub.add_argument("--find-run", action="store_true",
                     help="search a violating run instead of requiring one")
    sub.add_argument("--groups", metavar="FILE",
                     help="explicit-list grouping document")
    sub.add_argument("--group-by-module", action="store_true",
                     help="group by program owner declarations")
    sub.add_argument("--group-by-label", action="append", default=None,
                     metavar="LABEL", help="group by label truth (repeat)")
    sub.add_argument("--no-prune", action="store_true",
                     help="keep provably-null states as players")
    sub.add_argument("--state-cap", type=_non_negative(int),
                     default=DEFAULT_STATE_CAP,
                     help="program expansion state-space cap")
    sub.add_argument("--timeout-s", type=_non_negative(float), default=None)
    sub.add_argument("-o", "--output", metavar="FILE",
                     help="write the result here instead of stdout")


_HEURISTICS = HeuristicsConfig()

# flags beyond the model flags; each command gets only those it reads
_OWN_FLAGS = {
    "--player-cap": dict(type=_non_negative(int),
                         default=DEFAULT_SHAPLEY_CAP),
    "--block-cap": dict(type=_non_negative(int), default=DEFAULT_BLOCK_CAP),
    "--oracle-cap": dict(type=_non_negative(int),
                         default=DEFAULT_ORACLE_CAP),
    "--seed": dict(type=int, default=_HEURISTICS.rng_seed),
    "--format": dict(choices=("table", "records", "dot"), default="table"),
    "--initial-blocks": dict(type=int, default=_HEURISTICS.initial_blocks),
    "--select": dict(choices=SELECT_HEURISTICS, default=_HEURISTICS.select),
    "--refine": dict(choices=REFINE_HEURISTICS, default=_HEURISTICS.refine),
    "--explain": dict(action="store_true",
                      help="print the refinement trace (table format)"),
    "--no-values": dict(action="store_true",
                        help="stop after the positivity set (table format)"),
    "--minimal-coalitions": dict(
        action="store_true", help="also count minimal winning coalitions"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respgame",
        description="Backward responsibility values for lasso counterexamples "
                    "in finite transition systems.")
    subs = parser.add_subparsers(dest="command", required=True)
    # declared once and shared by the four commands that read a model
    model_flags = argparse.ArgumentParser(add_help=False)
    _add_model_flags(model_flags)
    for name, helptext, own in (
            ("analyze", "exact Shapley responsibility for every player",
             ("--player-cap", "--format")),
            ("positivity", "the set of players with positive responsibility",
             ("--block-cap", "--seed")),
            ("refine", "positivity (and values) via partition refinement",
             ("--player-cap", "--block-cap", "--seed", "--format",
              "--initial-blocks", "--select", "--refine", "--explain",
              "--no-values")),
            ("oracle", "brute-force reference computation",
             ("--oracle-cap", "--minimal-coalitions"))):
        sub = subs.add_parser(name, help=helptext, parents=[model_flags])
        for flag in own:
            sub.add_argument(flag, **_OWN_FLAGS[flag])
    gen = subs.add_parser("generate", help="emit a benchmark model document")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--size", type=int, default=0)
    gen.add_argument("--clean", action="store_true",
                     help="centrifuge-analog only: omit the injected bug")
    gen.add_argument("-o", "--output", metavar="FILE")
    return parser


class _Deadline:
    def __init__(self, seconds):
        self.t0 = time.monotonic()
        self.seconds = seconds

    def __call__(self):
        if time.monotonic() - self.t0 > self.seconds:
            raise AnalysisTimeout(f"timeout after {self.seconds} s")


def _split_names(text):
    return [part for part in (text or "").split(",") if part]


def _load_model(args, unpruned=()) -> PayoffGame:
    """The game of the model and flags; ungrouped state players are pruned
    unless `--no-prune` is given or the objective kind is in `unpruned`."""
    deadline = (no_deadline if args.timeout_s is None
                else _Deadline(args.timeout_s))
    labels = {}
    owners = {}
    doc_run = None
    group_doc = None
    # read once, so a pipe works too; an explicit document is a JSON
    # object, and no program starts with "{"
    text = read_text(args.model)
    if text.lstrip().startswith("{"):
        doc = parse_explicit(text)
        ts, objective, doc_run = doc.system
        group_doc = doc.groups
    else:
        expanded = expand_program(parse_program(text), args.state_cap,
                                  deadline)
        ts = expanded.ts
        labels = expanded.labels
        owners = expanded.owners
        objective = None
    objective = _objective_from_flags(args, ts, labels, objective)
    if objective is None:
        raise InputError("no objective: pass --objective/--target flags")
    run = _run_from_flags(args, ts, objective, doc_run, deadline)
    players = _players_from_flags(args, ts, objective, run, labels, owners,
                                  group_doc, deadline,
                                  objective.kind not in unpruned)
    return PayoffGame(ts, objective, run, args.mode, players, deadline)


def _objective_from_flags(args, ts, labels, fallback):
    kind = args.objective
    if kind is None and args.target is None and args.target_label is None \
            and args.colour is None:
        return fallback
    if kind is None:
        raise InputError("--target/--colour flags need --objective")
    if kind == PARITY:
        if args.target is not None or args.target_label is not None:
            raise InputError("--target and --target-label do not apply to "
                             "a parity objective; use --colour")
        colours = [0] * len(ts)
        for item in args.colour or []:
            if "=" not in item:
                raise InputError(f"bad --colour {item!r}; use LABEL=N")
            label, _, num = item.partition("=")
            if label not in labels:
                raise InputError(f"unknown label {label!r}")
            try:
                colour = int(num)
            except ValueError:
                colour = -1
            if colour < 0:
                raise InputError(f"bad --colour {item!r}; "
                                 f"N must be a non-negative integer")
            for s in labels[label]:
                colours[s] = max(colours[s], colour)
        return Objective(PARITY, colours=tuple(colours))
    if args.colour is not None:
        raise InputError(f"--colour applies to a parity objective only, "
                         f"not {kind}")
    target = set()
    for name in args.target or []:
        target.add(ts.index_of(name))
    if args.target_label:
        if args.target_label not in labels:
            raise InputError(f"unknown label {args.target_label!r}")
        target |= labels[args.target_label]
    return Objective(kind, target=frozenset(target))


def _run_from_flags(args, ts, objective, doc_run, deadline):
    if args.run_prefix is not None and args.run_loop is None:
        raise InputError("--run-prefix needs --run-loop")
    if args.run_loop is not None:
        prefix = tuple(ts.index_of(s) for s in _split_names(args.run_prefix))
        loop = tuple(ts.index_of(s) for s in _split_names(args.run_loop))
        run = LassoRun(prefix, loop)
        require_valid_run(ts, run)
    elif args.find_run:
        run = None
    else:
        run = doc_run  # build_system has validated it
    if run is None:
        if args.mode == FORWARD:
            return None
        return find_violating_run(ts, objective, deadline)
    if not violates(ts, objective, run):
        raise InputError("the given run does not violate the objective")
    return run


def _players_from_flags(args, ts, objective, run, labels, owners, group_doc,
                        deadline, prune):
    grouping = None
    if args.groups:
        grouping = load_grouping_file(args.groups)
    elif args.group_by_module:
        grouping = GroupingSpec(BY_MODULE)
    elif args.group_by_label:
        grouping = GroupingSpec(BY_LABEL,
                                label_names=tuple(args.group_by_label))
    elif group_doc:
        grouping = GroupingSpec(EXPLICIT_LIST, blocks=group_doc)
    if grouping is not None:
        return resolve_grouping(grouping, ts, labels=labels, owners=owners)
    if args.no_prune or not prune:
        return PlayerSet.of_states(ts, range(len(ts)))
    return prune_dummies(ts, objective, run, args.mode, deadline)


def _emit(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_text(args, pg, report, refinement=None, note=None) -> str:
    """The report in the command's `--format` (a table if it has none); a
    state-player report gets zero rows for the pruned states."""
    ts = pg.ts
    if report.player_kind == STATE_PLAYERS:
        have = dict(zip(report.names, report.values))
        zero = Fraction(0)
        values = tuple([have.get(name, zero) for name in ts.names])
        report = ResponsibilityReport(STATE_PLAYERS, report.mode, ts.names,
                                      values, report.games_solved,
                                      report.memo_hits)
    form = getattr(args, "format", "table")
    if form == "records":
        return exports.records_document(report, refinement=refinement)
    if form == "dot":
        return exports.dot_document(pg, report)
    return exports.render_table(report, note=note)


def _cmd_analyze(args) -> int:
    pg = _load_model(args)
    note = None
    report = shapley_exact(pg, cap=args.player_cap)
    if pg.gamma(pg.full_mask()) == 0:
        note = "objective unsatisfiable; all responsibilities 0"
    _emit(args, _report_text(args, pg, report, note=note))
    return 0


def _cmd_positivity(args) -> int:
    polynomial = {} if args.mode != OPTIMISTIC else {
        REACHABILITY: positivity_reach_opt, BUECHI: positivity_buechi_opt_all}
    # the polynomial searches read no players, so they need no pruning games
    pg = _load_model(args, unpruned=polynomial)
    search = polynomial.get(pg.objective.kind)
    if search and pg.players.kind == STATE_PLAYERS:
        positive = search(pg.ts, pg.objective.target, pg.run,
                          deadline=pg.deadline)
    else:
        config = HeuristicsConfig(rng_seed=args.seed)
        result = refine_loop(pg, config, cap=args.block_cap)
        positive = frozenset(pg.players.names[p] for p in result.responsible)
    names = ", ".join(sorted(positive))
    _emit(args, f"positive responsibility: {{{names}}}\n")
    return 0


def _cmd_refine(args) -> int:
    if (args.no_values or args.explain) and args.format != "table":
        raise InputError("--no-values and --explain need --format table")
    pg = _load_model(args)
    config = HeuristicsConfig(initial_blocks=args.initial_blocks,
                              select=args.select, refine=args.refine,
                              rng_seed=args.seed)
    if args.no_values:
        result = refine_loop(pg, config, cap=args.block_cap)
        names = sorted(pg.players.names[p] for p in result.responsible)
        text = (f"responsible ({len(names)} of {len(pg.players)} players, "
                f"{result.split_count} splits): {{{', '.join(names)}}}\n")
    else:
        report, result = responsibility_via_refinement(
            pg, config, block_cap=args.block_cap,
            shapley_cap=args.player_cap)
        text = _report_text(args, pg, report, refinement=result)
    if args.explain:
        text = exports.render_trace_text(result.trace) + text
    _emit(args, text)
    return 0


def _cmd_oracle(args) -> int:
    pg = _load_model(args)
    if pg.players.kind != STATE_PLAYERS:
        raise InputError("the oracle works on state players")
    indices = [pg.ts.index_of(n) for n in pg.players.names]
    problem = (pg.ts, pg.objective, pg.run, args.mode, indices)
    if args.minimal_coalitions:
        report, minimal = oracle_shapley_and_minimal(
            *problem, cap=args.oracle_cap, deadline=pg.deadline)
    else:
        report = oracle_shapley(*problem, cap=args.oracle_cap,
                                deadline=pg.deadline)
    text = _report_text(args, pg, report)
    if args.minimal_coalitions:
        text += f"minimal winning coalitions: {len(minimal)}\n"
    _emit(args, text)
    return 0


def _cmd_generate(args) -> int:
    doc = generate(args.family, args.size, bug=not args.clean)
    _emit(args, serialize_explicit(doc))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "positivity": _cmd_positivity,
    "refine": _cmd_refine,
    "oracle": _cmd_oracle,
    "generate": _cmd_generate,
}


def run_cli(argv=None) -> int:
    """Run one command; its exit code.

    The cyclic collector is paused for the command and the caller's setting
    restored after it: the program builds no reference cycles, so a
    collection would only re-walk the model's tuples and sets."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NoViolation as exc:
        sys.stdout.write(f"nothing to explain: {exc}\n")
        return 0
    except RefusalError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        if exc.guidance:
            sys.stderr.write(f"hint: {exc.guidance}\n")
        return 1
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

"""Command-line front end.

Every capability is a subcommand emitting CSV or JSON on stdout. Floats
are printed with 12 significant digits and exact probabilities also carry
their numerator and denominator, so output stays both spreadsheet-friendly
and exact. Sampling subcommands require an explicit --seed: identical
arguments always produce identical bytes.

A command line that starts with a command's exact name goes straight to that
command's own parser; any other goes through the top-level parser. A plain one,
exact ``--flag value`` pairs and switches only, is read first from a table of that
parser's own actions, with their types, choices, defaults and required flags; any
other shape (help, ``--``, ``=``, abbreviations, positionals, a value that looks like a
flag, a bad value, a missing flag) goes to argparse, which writes every help, usage
and error text.

Exit codes: 0 success (a fit's cautions as ``warning:`` lines on stderr),
1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from typing import Optional, Sequence

from . import compare, dice, evidence, logistic, resolve

# --mechanic name to family; each family's fields are its flags.
MECHANICS = {
    "roll-under": dice.UniformRollUnder,
    "roll-over": dice.UniformRollOver,
    "sum": dice.SumRollOver,
    "binomial": dice.BinomialPool,
    "pool": dice.GeneralPool,
    "step": dice.StepDie,
    "max": dice.MaxPool,
}

_fmt = compare._fmt
# -1e-5, -inf and -nan are values too; argparse's own (private) matcher takes -1 and -.5.
# Each command parser matches with it, and so does the plain reading of a command line.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(?i:inf|nan)")


def _add_mechanic_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("mechanic flags")
    group.add_argument("--mechanic", choices=MECHANICS, help="die mechanic family")
    group.add_argument("--dice", type=int, default=1, help="number of dice (default 1)")
    group.add_argument("--sides", type=int, help="faces per die")
    group.add_argument("--target", type=int, help="roll-under target")
    group.add_argument("--modifier", type=int, default=0, help="additive roll modifier")
    group.add_argument("--difficulty", type=int, default=0, help="difficulty to meet or beat")
    group.add_argument("--threshold", type=int, help="face value a pool die must reach")
    group.add_argument("--required", type=int, help="pool successes required")


def _build_mechanic(args, parser: argparse.ArgumentParser) -> dice.Mechanic:
    if args.mechanic is None:
        parser.error("--mechanic is required")
    if args.sides is None:
        parser.error("--sides is required")
    family = MECHANICS[args.mechanic]
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(family)}
    missing = [f"--{name}" for name, value in values.items() if value is None]
    if missing:
        verb = "is" if len(missing) == 1 else "are"
        parser.error(f"{' and '.join(missing)} {verb} required for {args.mechanic}")
    return family(**values)


def _build_target(args, parser: argparse.ArgumentParser) -> logistic.FourPL | dice.Mechanic:
    """The logistic model from --model, or the die mechanic from its flags."""
    if (args.model is None) == (args.mechanic is None):
        parser.error("give exactly one of --model or --mechanic")
    if args.model is not None:
        return logistic.FourPL.from_dict(json.loads(args.model))
    return _build_mechanic(args, parser)


def _cmd_dist(args, parser) -> None:
    mech = _build_mechanic(args, parser)
    exact = dice.success_probability(mech) if args.success else dice.outcome_distribution(mech)
    try:  # the whole text before any of it, so that an error leaves stdout empty
        if args.success:
            text = f"num,den,float\n{exact.numerator},{exact.denominator},{_fmt(float(exact))}\n"
        else:
            text = dice.dist_to_csv(exact)
    except ValueError:  # formatting raises only at the interpreter's int-to-str digit limit
        raise ValueError(
            f"exact {args.mechanic} masses of {mech.dice}d{mech.sides} need more than "
            f"{sys.get_int_max_str_digits()} decimal digits, past the limit for printing an integer"
        ) from None
    print(text, end="")


def _cmd_check(args, parser) -> None:
    target = _build_target(args, parser)
    rng = resolve.SplitMix64(args.seed)
    if isinstance(target, logistic.FourPL):
        result = resolve.resolve_model(target, rng)
    else:
        result = resolve.resolve_mechanic(target, rng)
    raw = "" if result.raw_roll is None else str(result.raw_roll)
    print("success,probability,raw_roll")
    print(f"{int(result.success)},{_fmt(result.probability_used)},{raw}")


# Opposed pairing flag stem to A's chance of winning (expected score for ratings), and what
# its --{stem}-a and --{stem}-b flags hold.
_PAIRINGS = {
    "skill": (resolve.opposed, "multiplicative skill"),
    "logit": (resolve.opposed_logit, "logit skill"),
    "rating": (resolve.elo_expected, "Elo rating"),
}


def _cmd_opposed(args, parser) -> None:
    pairs = {k: (getattr(args, f"{k}_a"), getattr(args, f"{k}_b")) for k in _PAIRINGS}
    given = [k for k, pair in pairs.items() if pair != (None, None)]
    if len(given) != 1:
        parser.error("give exactly one pairing: --skill-a/-b, --logit-a/-b or --rating-a/-b")
    kind = given[0]
    a, b = pairs[kind]
    if a is None or b is None:
        parser.error(f"both --{kind}-a and --{kind}-b are required")
    value = _PAIRINGS[kind][0](a, b)
    if kind != "rating":
        print("probability")
        print(_fmt(value))
    elif args.score is None:
        print("expected_a")
        print(_fmt(value))
    else:
        ra, rb = resolve.Rating(a, args.k), resolve.Rating(b, args.k)
        new_a, new_b = resolve.elo_update(ra, rb, args.score)
        print("expected_a,new_rating_a,new_rating_b")
        print(f"{_fmt(value)},{_fmt(new_a.value)},{_fmt(new_b.value)}")


def _cmd_grade(args, parser) -> None:
    g = evidence.jeffreys_grade(args.factor)
    w = evidence.weight_of_evidence(args.factor)
    print("grade,label,log10L")
    print(f"{g.grade},{g.label},{_fmt(w)}")


def _cmd_evidence(args, parser) -> None:
    factors = args.factor or []
    if args.reliability is not None:
        if len(factors) != 1:
            parser.error("--reliability needs exactly one --factor")
        odds = evidence.update_reliable(args.prior, factors[0], args.reliability)
    else:
        odds = evidence.update(args.prior, factors)
    print("odds,probability")
    print(f"{_fmt(odds)},{_fmt(logistic.odds_to_prob(odds))}")


def _cmd_compare(args, parser) -> None:
    if args.pair == "dice":
        mech = _build_mechanic(args, parser)
        report = compare.discrete_vs_logistic(dice.outcome_distribution(mech))
        result = (report.sup_distance, report.argmax_point) if args.summary else report
        names = ("x", "dice_cdf", "logistic_cdf")
    else:
        lp = compare.LogisticParams(mean=args.mean, scale=args.scale)
        curve = compare._CURVES[args.pair](lp)
        # A summary reads only the grid points that can hold the largest gap.
        result = compare._curve_summary(lp, curve) if args.summary else compare._curve_report(lp, curve)
        names = ("x", args.pair, "logistic")
    if args.summary:
        sup, argmax = result
        print("sup_distance,argmax")
        print(f"{_fmt(sup)},{_fmt(argmax)}")
    else:
        print(compare.report_csv(result, names), end="")


def _cmd_figure(args, parser) -> None:
    print(compare.figure_data(args.which), end="")


def _cmd_fit(args, parser) -> None:
    from . import estimate  # numpy loads here, not on import

    result = estimate._fit(  # no name holds the log, so _fit can drop it before the solve
        estimate._read_log(sys.stdin if args.input == "-" else args.input),
        slope=args.slope, ridge=args.ridge, max_iter=args.max_iter, tol=args.tol,
    )
    for text in estimate._warnings(result, args.ridge):
        print(f"warning: {text}", file=sys.stderr)
    print(result.to_json(digits=12))


def _cmd_simulate(args, parser) -> None:
    if args.mc_error and not args.aggregate:
        parser.error("--mc-error needs --aggregate")
    target = _build_target(args, parser)
    rng = resolve.SplitMix64(args.seed)
    if args.n < 0:
        raise ValueError(f"trial count must be nonnegative, got {args.n}")
    if args.aggregate:
        if args.mc_error and args.n == 0:
            raise ValueError("--mc-error needs at least one trial, got --n 0")
        if isinstance(target, logistic.FourPL):
            exact = target.probability()
        else:
            exact = float(dice.success_probability(target))
        successes = resolve.simulate_count(target, args.n, rng)
        rate = successes / args.n if args.n else 0.0
        header = "n,successes,rate,exact_probability"
        row = f"{args.n},{successes},{_fmt(rate)},{_fmt(exact)}"
        if args.mc_error:
            # sqrt(p(1 - p)/n), each root taken apart so that p(1 - p)/n cannot underflow to 0.
            # It is 0 only at p = 0 or 1, where every trial has the certain outcome: z is 0 there.
            std_error = math.sqrt(exact * (1 - exact)) / math.sqrt(args.n)
            z = (rate - exact) / std_error if std_error else 0.0
            header, row = f"{header},std_error,z", f"{row},{_fmt(std_error)},{_fmt(z)}"
        print(header)
        print(row)
        return
    blocks = resolve._successes(target, args.n, rng)  # raises before the header is written
    sys.stdout.write("trial,success\n")
    i = 1
    for flags in blocks:
        sys.stdout.write(_trial_rows(i, flags))
        i += len(flags)


def _trial_rows(start: int, flags) -> str:
    """The rows ``f"{t},{flag}\\n"`` of trials ``start, start + 1, ...``, one per bool flag.

    Each run of trials of one decimal width ``w`` is a ``(rows, w + 3)`` byte array of
    digit and flag values plus the row ``0...0,0\\n``, so no Python object is made per row.
    """
    import numpy as np

    stop = start + len(flags)
    text = []
    for w in range(len(str(start)), len(str(stop - 1)) + 1):
        lo, hi = max(start, 10 ** (w - 1)), min(stop, 10**w)
        rows = np.zeros((hi - lo, w + 3), np.uint8)
        # Only uint64 arrays and Python ints: numpy 1.x promotes uint64 with int64 to float64.
        t = np.arange(hi - lo, dtype=np.uint64) + lo
        for col in range(w - 1, -1, -1):
            q = t // 10  # t % 10 is t - q * 10: numpy vectorises // by a scalar, not %
            rows[:, col] = t - q * 10
            t = q
        rows[:, w + 1] = flags[lo - start : hi - start]
        rows += np.frombuffer(b"0" * w + b",0\n", np.uint8)
        text.append(rows.tobytes().decode("ascii"))
    return "".join(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skillcheck",
        description="Dice mechanics, logistic task resolution and skill estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="exact outcome distribution of a die mechanic")
    _add_mechanic_flags(p)
    p.add_argument("--success", action="store_true", help="print the success probability instead")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("check", help="resolve one seeded check")
    _add_mechanic_flags(p)
    p.add_argument("--model", help="logistic model as JSON")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("opposed", help="chance of one skill beating another, or an Elo update")
    for kind, (_, held) in _PAIRINGS.items():
        for side in "ab":
            p.add_argument(f"--{kind}-{side}", type=float, help=f"{held} of {side.upper()}")
    p.add_argument("--k", type=float, default=32.0, help="Elo k-factor (default 32)")
    p.add_argument("--score", type=float, choices=[0.0, 0.5, 1.0], help="game result for A")
    p.set_defaults(func=_cmd_opposed)

    p = sub.add_parser("grade", help="grade a likelihood ratio on the evidence scale")
    p.add_argument("--factor", type=float, required=True, help="likelihood ratio")
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("evidence", help="revise odds by likelihood ratios")
    p.add_argument("--prior", type=float, default=1.0, help="prior odds (default 1)")
    p.add_argument("--factor", type=float, action="append", help="likelihood ratio (repeatable)")
    p.add_argument("--reliability", type=float, help="discount exponent for a single factor")
    p.set_defaults(func=_cmd_evidence)

    p = sub.add_parser("compare", help="sup distance between matched chance curves")
    p.add_argument("--pair", choices=(*compare._CURVES, "dice"), required=True)
    p.add_argument("--mean", type=float, default=0.0, help="logistic mean (default 0)")
    p.add_argument("--scale", type=float, default=1.0, help="logistic scale (default 1)")
    p.add_argument("--summary", action="store_true", help="print only sup distance and argmax")
    _add_mechanic_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("figure", help="CSV series behind the reference figures")
    p.add_argument("which", choices=compare.FIGURE_IDS)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("fit", help="fit ability and difficulty logits from outcomes CSV")
    p.add_argument("--input", required=True, help="CSV path with header person,task,success, or -")
    p.add_argument("--ridge", type=float, default=0.01, help="ridge penalty (default 0.01)")
    p.add_argument("--slope", type=float, default=1.0, help="fixed discrimination (default 1)")
    p.add_argument("--max-iter", type=int, default=500, help="iteration cap (default 500)")
    p.add_argument("--tol", type=float, default=1e-8, help="gradient tolerance (default 1e-8)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="run many seeded checks")
    _add_mechanic_flags(p)
    p.add_argument("--model", help="logistic model as JSON")
    p.add_argument("--n", type=int, required=True, help="number of trials")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--aggregate", action="store_true", help="print one summary row")
    p.add_argument("--mc-error", action="store_true",
                   help="with --aggregate, add the Monte Carlo std_error and z of the rate")
    p.set_defaults(func=_cmd_simulate)

    # Each command gets its own parser, so an error found after parsing prints its usage.
    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(parser=p)
    parser.set_defaults(commands=sub.choices)  # read by main, to skip the top-level pass
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses; ``build_parser`` still returns a fresh one."""
    return build_parser()


@functools.cache
def _plain_flags(parser: argparse.ArgumentParser):
    """``parser``'s flags to their actions, its defaults in argparse's order and its required
    actions. None if it has an action other than a ``--`` flag that stores one value, appends
    one or is a switch (help aside), a string default argparse would convert, a mutually
    exclusive group, or a negative-number matcher other than the one values are tested with."""
    if parser._mutually_exclusive_groups or parser._negative_number_matcher is not _NEGATIVE_NUMBER:
        return None
    flags, defaults = {}, {}
    for action in parser._actions:
        kind = type(action)
        if kind is argparse._HelpAction:
            continue  # -h and --help are not in the table, so help goes to argparse
        one_value = kind in (argparse._StoreAction, argparse._AppendAction) and action.nargs is None
        if not (
            (one_value or kind is argparse._StoreTrueAction)
            and action.option_strings and all(s.startswith("--") for s in action.option_strings)
            and not isinstance(action.default, str)
        ):
            return None
        flags.update(dict.fromkeys(action.option_strings, action))
        defaults.setdefault(action.dest, action.default)
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    return flags, defaults, {a for a in flags.values() if a.required}


def _parse_plain(parser: argparse.ArgumentParser, args: Sequence[str]) -> Optional[argparse.Namespace]:
    """What ``parser.parse_known_args(args)`` returns when it parses ``args`` with no error and
    no leftovers, for a command line of exact ``--flag value`` pairs and switches; else None."""
    plain = _plain_flags(parser)
    if plain is None:
        return None
    flags, defaults, required = plain
    namespace, seen, i = argparse.Namespace(**defaults), set(), 0
    while i < len(args):
        action = flags.get(args[i])
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:  # a switch
            setattr(namespace, action.dest, action.const)
            i += 1
            continue
        if i + 1 == len(args):
            return None
        value = args[i + 1]
        if value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
            return None  # argparse reads it as a flag: a missing value
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        if type(action) is argparse._AppendAction:
            value = [*(getattr(namespace, action.dest) or []), value]
        setattr(namespace, action.dest, value)
        i += 2
    return namespace if required <= seen else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None); return its exit code.

    A known command goes straight to its own parser, to which the top-level parser would
    hand every argument after the name; the top-level parser reports what is left over.
    A plain command line is read from the command's flag table instead, with the same result.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    commands = parser.get_default("commands")
    try:  # argparse turns a flag type's ValueError into a usage error (exit 2) itself
        if argv and argv[0] in commands:
            command = commands[argv[0]]
            args = _parse_plain(command, argv[1:])
            if args is None:
                args, extras = command.parse_known_args(argv[1:])
                if extras:
                    parser.error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            args = parser.parse_args(argv)
        args.func(args, args.parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

"""Command-line interface.

One binary, batch-oriented subcommands, JSON on stdout by default. The
``verify`` subcommand runs a randomized campaign and exits nonzero if any
instance violates a bound, so it can gate CI jobs directly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import campaign as campaign_mod
from . import serialize
from .bounds import t_min_bounded, t_min_onesided, t_perfect
from .builder import optimize_protocol
from .errors import NumericalError
from .geometry import fidelity_closed_form, fidelity_hull_oracle, smallest_arc
from .linalg import UnitaryPair, relative_spectrum
from .protocol import run_protocol
from .tolerances import CEILING_GUARD, CEILING_ROUNDING

_MODES = {"bounded": t_min_bounded, "onesided": t_min_onesided}


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    _write(args.output, json.dumps(obj, indent=2) + "\n")


def _load_config(args, from_obj):
    """The config read by ``from_obj``; a --seed goes in by replace(), which checks it again."""
    cfg = from_obj(serialize.load_json(args.config))
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def _load_unitary_pair(args) -> UnitaryPair:
    """The pair of --u1 and --u2, checked; an error names the flag of the bad matrix."""
    u1 = serialize.matrix_from_obj(serialize.load_json(args.u1), "u1")
    u2 = serialize.matrix_from_obj(serialize.load_json(args.u2), "u2")
    return UnitaryPair.of(u1, u2)


def _cmd_theta(args) -> int:
    arc = smallest_arc(relative_spectrum(_load_unitary_pair(args)))
    _emit_json(
        args,
        {"theta": arc.theta, "start_phase": arc.start_phase, "end_phase": arc.end_phase},
    )
    return 0


def _cmd_fidelity(args) -> int:
    spectrum = relative_spectrum(_load_unitary_pair(args))
    value = fidelity_closed_form(smallest_arc(spectrum).theta)
    out = {"fidelity": value}
    if args.oracle:
        oracle = fidelity_hull_oracle(spectrum.points())
        out["oracle"] = oracle
        out["difference"] = value - oracle
    _emit_json(args, out)
    return 0


def _cmd_bound(args) -> int:
    report = _MODES[args.mode](args.theta, args.epsilon)
    _emit_json(
        args,
        {
            "theta": report.theta,
            "epsilon": report.epsilon,
            "mode": report.mode.value,
            "raw_value": report.raw_value,
            "t_lower": report.t_lower,
        },
    )
    return 0


def _cmd_perfect(args) -> int:
    _emit_json(args, {"theta": args.theta, "t_perfect": t_perfect(args.theta)})
    return 0


def _cmd_simulate(args) -> int:
    pair = _load_unitary_pair(args)
    protocol = serialize.protocol_from_obj(serialize.load_json(args.protocol))
    trace = run_protocol(pair, protocol)
    error, inconclusive = campaign_mod.measure_pair(trace.final)
    _emit_json(
        args,
        {
            "distances": trace.distances,
            "final_overlap": trace.final_overlap,
            "helstrom_error": error,
            "unambiguous_inconclusive": inconclusive,
        },
    )
    return 0


def _cmd_search(args) -> int:
    pair = _load_unitary_pair(args)
    cfg = _load_config(args, serialize.search_config_from_obj)
    result = optimize_protocol(pair, cfg)
    _emit_json(
        args,
        {
            "protocol": serialize.protocol_to_obj(result.protocol),
            "achieved_overlap": result.overlap,
            "budget_exhausted": result.budget_exhausted,
            "best_restart": result.best_restart,
        },
    )
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args, campaign_mod.config_from_obj)
    report = campaign_mod.run_campaign(cfg)
    _write(args.output, campaign_mod.render_report(report, args.format))
    summary = report.summary
    print(
        f"instances={summary.instances} violations={summary.violation_count} "
        f"min_theorem1_slack={summary.min_theorem1_slack:.3e} "
        f"min_lemma2_slack="
        + ("n/a" if summary.min_lemma2_slack is None else f"{summary.min_lemma2_slack:.3e}"),
        file=sys.stderr,
    )
    bad = campaign_mod.violating_indices(report)
    if bad:
        print(
            f"violating instances (replay with seed={cfg.seed}, index): {bad}",
            file=sys.stderr,
        )
    return 0 if summary.violation_count == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write the result to this path")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--u1", required=True, help="matrix JSON file")
    pair.add_argument("--u2", required=True, help="matrix JSON file")
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True, help="config JSON file")
    configured.add_argument("--seed", type=int, default=None,
                            help="override the config seed, in [0, 2**64)")

    parser = argparse.ArgumentParser(
        prog="qudisc",
        description=(
            "Query-count bounds, protocol simulation, and optimal measurements "
            "for discriminating two unitary operations. Equal priors are assumed "
            "for every measurement this tool constructs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "theta", parents=[common, pair],
        help="eigenphase spread of u1-dagger u2 with arc endpoints",
    )
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("fidelity", parents=[common, pair], help="fidelity of a unitary pair")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also compute the convex-hull distance oracle and the difference",
    )
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser(
        "bound",
        parents=[common],
        help="minimum query count at a given phase spread and error budget",
        epilog=(
            "t_lower = ceil(raw_value - guard), with the guard max(CEILING_GUARD, "
            "CEILING_ROUNDING*u*raw_value), u = 2**-53, and CEILING_GUARD = "
            f"{CEILING_GUARD:g} and CEILING_ROUNDING = {CEILING_ROUNDING} from "
            "qudisc.tolerances: the small subtraction keeps analytically exact integer "
            "bounds from being bumped up by floating-point noise, the quotient's own "
            "rounding included."
        ),
    )
    p.add_argument("--theta", type=float, required=True, help="phase spread in (0, 2*pi)")
    p.add_argument("--epsilon", type=float, required=True, help="error budget")
    p.add_argument("--mode", choices=tuple(_MODES), required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser(
        "perfect",
        parents=[common],
        help="query count for perfect discrimination",
        epilog=(
            "t_perfect = ceil(pi/theta - guard), with the guard max(CEILING_GUARD, "
            f"CEILING_ROUNDING*u*pi/theta), u = 2**-53, CEILING_GUARD = {CEILING_GUARD:g} "
            f"and CEILING_ROUNDING = {CEILING_ROUNDING}: exact up to the guard, it lies "
            "between ceil(pi/theta - 2*guard) and ceil(pi/theta), so the best final overlap "
            "at t_perfect is at most max(theta*CEILING_GUARD/2, 1.5u*pi) plus the "
            "rounding, not 0, where pi/theta lies just above an integer."
        ),
    )
    p.add_argument("--theta", type=float, required=True, help="phase spread in (0, 2*pi)")
    p.set_defaults(func=_cmd_perfect)

    p = sub.add_parser(
        "simulate",
        parents=[common, pair],
        help="run a protocol file against both candidates and measure the outcome",
    )
    p.add_argument("--protocol", required=True, help="protocol JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "search",
        parents=[common, pair, configured],
        help="Gauss-Newton search for a low-overlap protocol at fixed queries",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "verify",
        parents=[common, configured],
        help="run a randomized verification campaign; nonzero exit on any violation",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

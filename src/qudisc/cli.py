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
from .bounds import ErrorMode, t_min_bounded, t_min_onesided, t_perfect
from .builder import optimize_protocol
from .errors import NumericalError, UsageError
from .geometry import fidelity_closed_form, fidelity_hull_oracle, smallest_arc
from .linalg import relative_spectrum
from .protocol import run_protocol
from .tolerances import CEILING_GUARD

_MODES = {"bounded": ErrorMode.BOUNDED, "onesided": ErrorMode.ONE_SIDED}


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    if args.format == "csv":
        raise UsageError("csv output is only available for the verify subcommand")
    _write(args.output, json.dumps(obj, indent=2) + "\n")


def _load_unitary_pair(args):
    u1 = serialize.matrix_from_obj(serialize.load_json(args.u1), "u1")
    u2 = serialize.matrix_from_obj(serialize.load_json(args.u2), "u2")
    return u1, u2


def _cmd_theta(args) -> int:
    u1, u2 = _load_unitary_pair(args)
    arc = smallest_arc(relative_spectrum(u1, u2))
    _emit_json(
        args,
        {"theta": arc.theta, "start_phase": arc.start_phase, "end_phase": arc.end_phase},
    )
    return 0


def _cmd_fidelity(args) -> int:
    u1, u2 = _load_unitary_pair(args)
    spectrum = relative_spectrum(u1, u2)
    value = fidelity_closed_form(smallest_arc(spectrum).theta)
    out = {"fidelity": value}
    if args.oracle:
        oracle = fidelity_hull_oracle(spectrum.points())
        out["oracle"] = oracle
        out["difference"] = value - oracle
    _emit_json(args, out)
    return 0


def _cmd_bound(args) -> int:
    mode = _MODES[args.mode]
    if mode is ErrorMode.BOUNDED:
        report = t_min_bounded(args.theta, args.epsilon)
    else:
        report = t_min_onesided(args.theta, args.epsilon)
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
    u1, u2 = _load_unitary_pair(args)
    protocol = serialize.protocol_from_obj(serialize.load_json(args.protocol))
    trace = run_protocol(u1, u2, protocol)
    error, inconclusive = campaign_mod.measure_pair(trace.states_1[-1], trace.states_2[-1])
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
    u1, u2 = _load_unitary_pair(args)
    cfg = serialize.search_config_from_obj(serialize.load_json(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    result = optimize_protocol(u1, u2, cfg)
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
    cfg = campaign_mod.config_from_obj(serialize.load_json(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = campaign_mod.run_campaign(cfg)
    _write(args.output or cfg.output_path, campaign_mod.render_report(report, args.format))
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
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--output", default=None, help="write the result to this path")
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (csv applies to verify only)",
    )

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
        "theta", parents=[common], help="eigenphase spread of u1-dagger u2 with arc endpoints"
    )
    p.add_argument("--u1", required=True, help="matrix JSON file")
    p.add_argument("--u2", required=True, help="matrix JSON file")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("fidelity", parents=[common], help="fidelity of a unitary pair")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
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
            "t_lower = ceil(raw_value - CEILING_GUARD), with CEILING_GUARD = "
            f"{CEILING_GUARD:g} from qudisc.tolerances: the small subtraction keeps "
            "analytically exact integer bounds from being bumped up by "
            "floating-point noise."
        ),
    )
    p.add_argument("--theta", type=float, required=True, help="phase spread in (0, 2*pi)")
    p.add_argument("--epsilon", type=float, required=True, help="error budget")
    p.add_argument("--mode", choices=tuple(_MODES), required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser(
        "perfect", parents=[common], help="query count for perfect discrimination"
    )
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(func=_cmd_perfect)

    p = sub.add_parser(
        "simulate",
        parents=[common],
        help="run a protocol file against both candidates and measure the outcome",
    )
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--protocol", required=True, help="protocol JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "search",
        parents=[common],
        help="Gauss-Newton search for a low-overlap protocol at fixed queries",
    )
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--config", required=True, help="search config JSON file")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="run a randomized verification campaign; nonzero exit on any violation",
    )
    p.add_argument("--config", required=True, help="campaign config JSON file")
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

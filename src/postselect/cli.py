"""Command-line interface.

Exit codes: 0 success / feasible, 1 domain-negative result (infeasible
scenario, failed verification, fuzz violations), 2 invalid input.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .core import OutcomeDistribution, ScenarioTriple
from .construct import construct_generalized, construct_projective
from .errors import (
    DegeneratePostselection,
    InfeasibleScenario,
    InvalidWitness,
    PostselectError,
)
from .feasibility import check_generalized, check_projective_raw
from .stats import diversity, diversity_profile, evaluate_witness

# oracle, regions and witness_io are imported by the commands that run them, so the
# other commands do not pay for them.


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_probs(text: str) -> OutcomeDistribution:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse probabilities {text!r}: {exc}") from exc
    if not values:
        raise ValueError("empty probability list")
    # fsum rounds once, so the order cannot decide; it raises only past an entry above 1 in size.
    total = math.fsum(values) if max(map(abs, values)) <= 1.0 else sum(values)
    if not abs(total - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"probabilities {text!r} sum to {total!r}, more than 1e-9 away from 1")
    return OutcomeDistribution([v / total for v in values])


def _parse_scenario(args) -> ScenarioTriple:
    return ScenarioTriple(args.t, args.s, _parse_probs(args.p))


def cmd_check(args) -> int:
    sc = _parse_scenario(args)
    verdict = check_generalized(sc) if args.generalized else check_projective_raw(sc)
    kind = "generalized" if args.generalized else "projective"
    print(f"scenario: T={_fmt(sc.t)} S={_fmt(sc.s)} P=({','.join(_fmt(p) for p in sc.dist)})")
    print(f"{kind}: {'feasible' if verdict.feasible else 'infeasible'}")
    for tag, slack in verdict.slack.items():
        marker = "VIOLATED" if tag in verdict.violated else "ok"
        print(f"  {tag}: slack {_fmt(slack)} [{marker}]")
    prof = diversity_profile(sc.dist)
    print(
        f"diversity: D_1/2={_fmt(prof.d_half)} D_inf={_fmt(prof.d_inf)} "
        f"H_1/2={_fmt(prof.h_half)} H_inf={_fmt(prof.h_inf)}"
    )
    return 0 if verdict.feasible else 1


def cmd_construct(args) -> int:
    from .witness_io import _write_witness, save_witness

    sc = _parse_scenario(args)
    if args.kind == "projective":
        witness = construct_projective(sc)
    else:
        witness = construct_generalized(sc)
    metadata = {"target": {"t": sc.t, "s": sc.s, "p": list(sc.dist.probs)}}
    if args.out:
        save_witness(witness, args.out, metadata)
    else:
        _write_witness(witness, sys.stdout, metadata)
    return 0


def cmd_verify(args) -> int:
    from .witness_io import load_witness_with_metadata

    witness, metadata = load_witness_with_metadata(args.witness)
    sc = evaluate_witness(witness)
    print(f"kind: {witness.kind}")
    print(f"dimension: {witness.dimension}  outcomes: {witness.n_outcomes}")
    print("invariants: ok")
    print(f"T = {_fmt(sc.t)}")
    print(f"S = {_fmt(sc.s)}")
    print(f"P = ({','.join(_fmt(p) for p in sc.dist)})")
    target = metadata.get("target")
    if target is not None:
        dev = max(
            abs(sc.t - target["t"]),
            abs(sc.s - target["s"]),
            max(abs(a - b) for a, b in zip(sc.dist.probs, target["p"])),
        )
        print(f"deviation from target: {_fmt(dev)}")
        if dev > 1e-9:
            print("verification FAILED (deviation exceeds 1e-9)")
            return 1
        print("verification passed")
    return 0


def cmd_region(args) -> int:
    from .regions import emit_ps_region, emit_pt_sections, emit_ternary, emit_ts_region
    from .regions import write_region_csv, write_region_svg

    if args.which == "ternary":
        grid = emit_ternary(args.resolution)
    elif args.which == "ps":
        grid = emit_ps_region(args.resolution)
    elif args.which == "pt":
        if args.s is None:
            raise ValueError("region --which pt requires --s")
        grid = emit_pt_sections(args.s, args.resolution)
    else:
        if args.n is None:
            raise ValueError("region --which ts requires --n")
        grid = emit_ts_region(args.n, args.resolution)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_region_csv(grid, fh)
    else:
        write_region_csv(grid, sys.stdout)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            write_region_svg(grid, fh)
    return 0


def _thread_count(text: str) -> int:
    """The POSTSELECT_THREADS worker cap; an integer >= 1 or an input error."""
    if text.strip().lstrip("+").isdecimal() and int(text) >= 1:
        return int(text)
    raise ValueError(f"POSTSELECT_THREADS must be an integer >= 1, got {text!r}")


def cmd_fuzz(args) -> int:
    from .oracle import run_campaign

    if args.outcomes > args.dim:
        raise ValueError(
            f"--outcomes {args.outcomes} exceeds --dim {args.dim} for projective fuzz"
        )
    workers = os.environ.get("POSTSELECT_THREADS")
    max_workers = _thread_count(workers) if workers else None
    report = run_campaign(
        args.dim, args.outcomes, args.samples, args.seed, max_workers=max_workers
    )
    print(f"samples: {report.samples}")
    print(f"violations: {len(report.violations)}")
    print(f"coverage cells (T,S): {(report.counts[0] > 0).sum()}")
    if report.counts[1].any():
        print(f"coverage cells (ternary, T~0): {(report.counts[1] > 0).sum()}")
    print(f"digest: {report.digest()}")
    for v in report.violations[:20]:
        print(
            f"  VIOLATION {v.witness_digest[:16]} T={_fmt(v.t)} S={_fmt(v.s)} "
            f"P=({','.join(_fmt(p) for p in v.probs)}) tags={';'.join(v.violated)}"
        )
    return 1 if report.violations else 0


def cmd_entropy(args) -> int:
    dist = _parse_probs(args.p)
    qs = [0.0, 0.5, 1.0, 2.0, math.inf] if args.q is None else [float(args.q)]
    # Every row is computed before any is printed, so an input error leaves stdout empty.
    rows = [(q, diversity(dist, q)) for q in qs]
    print("q D_q H_q")
    for q, d in rows:
        print(f"{_fmt(q)} {_fmt(d)} {_fmt(math.log(d))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postselect",
        description="Feasibility, witnesses and region maps for postselected measurement statistics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_flags(p):
        p.add_argument("--t", type=float, required=True, help="transition probability T")
        p.add_argument("--s", type=float, required=True, help="success probability S")
        p.add_argument("--p", required=True, help="comma-separated outcome probabilities")

    p = sub.add_parser("check", help="decide feasibility of a (T, S, P) triple")
    scenario_flags(p)
    p.add_argument("--generalized", action="store_true", help="allow generalized measurements")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build an explicit witness for a triple")
    scenario_flags(p)
    p.add_argument("--kind", choices=["projective", "generalized"], required=True)
    p.add_argument("--out", help="write witness JSON here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="evaluate a witness file and check its invariants")
    p.add_argument("witness", help="path to witness JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("region", help="emit a feasible-region grid as CSV (+ optional SVG)")
    p.add_argument("--which", choices=["ternary", "ps", "pt", "ts"], required=True)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--n", type=int, help="number of outcomes (ts region)")
    p.add_argument("--s", type=float, help="success probability (pt sections)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--svg", help="also write an SVG rasterization here")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("fuzz", help="random-witness campaign against the analytic checker")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--outcomes", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("entropy", help="diversity / Renyi entropy table of a distribution")
    p.add_argument("--p", required=True, help="comma-separated outcome probabilities")
    p.add_argument("--q", help="single order q (number or 'inf'); default: standard table")
    p.set_defaults(func=cmd_entropy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleScenario as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except DegeneratePostselection as exc:
        print(f"degenerate postselection: {exc}", file=sys.stderr)
        return 1
    except InvalidWitness as exc:
        print(f"invalid witness: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PostselectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: one-shot payoffs, repeated-game values under four
computation modes, meta matrices with verdicts, region scans with CSV and
SVG output, environment period reports, and canned figure reproductions.

Exit codes: 0 success, 1 computation error, 2 flag error.  Identical
invocations (including the seed) produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import nash, repeated, stochastic
from .actions import ActionTriple, parse_action, parse_angle
from .game import GamePayoffs, one_shot_payoffs
from .nash import ScanGrid, Verdict, classify_strict_ne, scan_region
from .repeated import (PeriodNotFoundError, Strategy, StrategyKind,
                       UnsupportedPairError, closed_form_meta_matrix,
                       detect_period, meta_pair, parse_strategy,
                       periodic_payoff, truncated_payoff)
from .stochastic import MCConfig, markov_value, monte_carlo_payoff, propagator_matrix

_KNOWN_NAMES = ("C", "D", "Q", "H", "R3")

FIGURE_PAIRS = {
    "1": "classical-tft-alld",
    "3a": "ctft-alld",
    "3b": "ctft-allh",
    "4a": "qtft-alld",
    "4b": "qtft-allh",
    "5": "allq-alld",
    "6a": "allh-alld",
    "6b": "allh-allc",
}

SVG_COLORS = {
    Verdict.FIRST: "yellow",
    Verdict.SECOND: "blue",
    Verdict.BOTH: "green",
    Verdict.NEITHER: "white",
}


def _parse_action_pair(text: str) -> Tuple[ActionTriple, ActionTriple]:
    """Two comma-separated action specs; each is a name or a raw
    theta,alpha,phi triple, so token counts of 2, 4 or 6 are accepted."""
    tokens = [t.strip() for t in str(text).split(",")]
    actions: List[ActionTriple] = []
    i = 0
    while i < len(tokens) and len(actions) < 2:
        if tokens[i].upper() in _KNOWN_NAMES:
            actions.append(parse_action(tokens[i]))
            i += 1
        else:
            if i + 3 > len(tokens):
                raise ValueError(f"cannot parse actions from {text!r}")
            actions.append(parse_action(",".join(tokens[i:i + 3])))
            i += 3
    if len(actions) != 2 or i != len(tokens):
        raise ValueError(f"expected exactly two actions in {text!r}")
    return actions[0], actions[1]


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"), allow_nan=False)


def _matrix_payload(pair: str, w: float, eps: float, g: GamePayoffs) -> dict:
    spec = meta_pair(pair)
    try:
        m = closed_form_meta_matrix(pair, w, eps, g)
    except UnsupportedPairError:
        m = repeated.engine_meta_matrix(pair, w, eps, g)
    cls = classify_strict_ne(m)
    return {
        "pair": spec.key,
        "row": spec.row.label(),
        "col": spec.col.label(),
        "w": w,
        "epsilon": eps,
        "matrix": [[m[0, 0], m[0, 1]], [m[1, 0], m[1, 1]]],
        "verdict": cls.verdict.value,
        "margins": list(cls.margins),
    }


def write_svg(grid: ScanGrid, stream) -> None:
    """Dependency-free heatmap: one rectangle per same-verdict run along the
    entanglement axis, w rightward and eps upward, plus axis labels."""
    n_w, n_e = grid.codes.shape
    cell_w, cell_h = 640.0 / n_w, 480.0 / n_e
    left, top = 60.0, 20.0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="760" height="560" '
        'viewBox="0 0 760 560">',
        f'<rect x="{left}" y="{top}" width="640" height="480" fill="white" '
        'stroke="black"/>',
    ]
    verdicts = [v.value for v in (Verdict.NEITHER, Verdict.FIRST,
                                  Verdict.SECOND, Verdict.BOTH)]
    colors = [SVG_COLORS[Verdict(v)] for v in verdicts]
    for i in range(n_w):
        row = grid.codes[i]
        bounds = [0, *(np.flatnonzero(np.diff(row)) + 1).tolist(), n_e]
        for j, k in zip(bounds[:-1], bounds[1:]):
            color = colors[int(row[j])]
            if color != "white":
                x = left + i * cell_w
                y = top + (n_e - k) * cell_h
                lines.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                    f'height="{(k - j) * cell_h:.2f}" fill="{color}"/>')
    w_lo, w_hi = grid.w_axis[0], grid.w_axis[-1]
    e_lo, e_hi = grid.eps_axis[0], grid.eps_axis[-1]
    lines += [
        f'<text x="380" y="545" text-anchor="middle">w</text>',
        f'<text x="{left:.0f}" y="530">{w_lo:.3g}</text>',
        f'<text x="690" y="530">{w_hi:.3g}</text>',
        f'<text x="20" y="260" transform="rotate(-90 20 260)" '
        'text-anchor="middle">epsilon</text>',
        f'<text x="30" y="505">{e_lo:.3g}</text>',
        f'<text x="30" y="35">{e_hi:.3g}</text>',
        "</svg>",
    ]
    stream.write("\n".join(lines) + "\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--payoffs", default="3,0,5,1",
                   help="R,S,T,P values or a JSON object (default 3,0,5,1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrpd",
        description="Discounted repeated games on an entangled two-qubit "
                    "environment")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oneshot", help="expected payoffs of a single round")
    p.add_argument("--actions", required=True,
                   help="two actions, e.g. H,H or D,pi/2,pi/4,0")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--json", action="store_true")
    _add_common(p)

    p = sub.add_parser("repeated", help="discounted cumulative payoffs")
    p.add_argument("--a", required=True, help="row strategy")
    p.add_argument("--b", required=True, help="column strategy")
    p.add_argument("--w", required=True, type=float)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--mode", choices=("truncated", "periodic", "markov", "mc"),
                   default="truncated")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("matrix", help="2x2 meta matrix and strict-NE verdict")
    p.add_argument("--pair", required=True)
    p.add_argument("--w", required=True, type=float)
    p.add_argument("--epsilon", required=True)
    _add_common(p)

    p = sub.add_parser("scan", help="classify a pair over the (w, eps) grid")
    p.add_argument("--pair", required=True)
    p.add_argument("--w-steps", type=int, default=nash.DEFAULT_STEPS)
    p.add_argument("--eps-steps", type=int, default=nash.DEFAULT_STEPS)
    p.add_argument("--w-max", type=float, default=nash.DEFAULT_W_MAX)
    p.add_argument("--tie-tol", type=float, default=nash.DEFAULT_TIE_TOL)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.add_argument("--svg", help="optional SVG heatmap path")
    _add_common(p)

    p = sub.add_parser("stochastic", help="transition matrix and chain values")
    p.add_argument("--actions", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--w", required=True, type=float)
    p.add_argument("--samples", type=int, default=0,
                   help="add a Monte Carlo estimate when > 0")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("period", help="environment cycle of a strategy pair")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--limit", type=int, default=repeated.DEFAULT_PERIOD_LIMIT)

    p = sub.add_parser("reproduce",
                       help="region scan for a numbered benchmark figure "
                            "at payoffs 3,0,5,1")
    p.add_argument("--figure", required=True, choices=sorted(FIGURE_PAIRS))
    p.add_argument("--w-steps", type=int, default=nash.DEFAULT_STEPS)
    p.add_argument("--eps-steps", type=int, default=nash.DEFAULT_STEPS)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.add_argument("--svg", help="optional SVG heatmap path")
    return parser


def _emit_scan(grid: ScanGrid, out: Optional[str], svg: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            grid.write_csv(fh)
    else:
        grid.write_csv(sys.stdout)
    if svg:
        with open(svg, "w", encoding="utf-8") as fh:
            write_svg(grid, fh)


def _run(args: argparse.Namespace) -> int:
    if args.command == "oneshot":
        g = GamePayoffs.parse(args.payoffs)
        eps = parse_angle(args.epsilon)
        a, b = _parse_action_pair(args.actions)
        alice, bob = one_shot_payoffs(a, b, eps, g)
        if args.json:
            print(_dump({"alice": alice, "bob": bob, "epsilon": eps}))
        else:
            print(f"{alice:.12g} {bob:.12g}")
        return 0

    if args.command == "repeated":
        g = GamePayoffs.parse(args.payoffs)
        eps = parse_angle(args.epsilon)
        sa, sb = parse_strategy(args.a), parse_strategy(args.b)
        meta = {"mode": args.mode, "a": sa.label(), "b": sb.label(),
                "w": args.w, "epsilon": eps}
        if args.mode == "truncated":
            alice, bob, rounds = truncated_payoff(sa, sb, eps, g, args.w, args.tol)
            meta.update(alice=alice, bob=bob, tol=args.tol, rounds_used=rounds)
        elif args.mode == "periodic":
            alice, bob = periodic_payoff(sa, sb, eps, g, args.w)
            meta.update(alice=alice, bob=bob)
        elif args.mode == "markov":
            for s in (sa, sb):
                if s.kind is not StrategyKind.CONSTANT:
                    raise ValueError("markov mode needs constant strategies")
            alice, bob = markov_value(sa.action, sb.action, eps, g, args.w)
            meta.update(alice=alice, bob=bob)
        else:
            res = monte_carlo_payoff(sa, sb, eps, g, args.w,
                                     MCConfig(args.samples, args.seed))
            alice, bob = res.mean
            meta.update(alice=alice, bob=bob, stderr=list(res.stderr),
                        samples=res.samples, seed=args.seed,
                        rounds_used=res.rounds)
        print(_dump(meta))
        return 0

    if args.command == "matrix":
        g = GamePayoffs.parse(args.payoffs)
        eps = parse_angle(args.epsilon)
        print(_dump(_matrix_payload(args.pair, args.w, eps, g)))
        return 0

    if args.command == "scan":
        g = GamePayoffs.parse(args.payoffs)
        grid = scan_region(args.pair, g, args.w_steps, args.eps_steps,
                           args.w_max, args.tie_tol)
        _emit_scan(grid, args.out, args.svg)
        return 0

    if args.command == "stochastic":
        g = GamePayoffs.parse(args.payoffs)
        eps = parse_angle(args.epsilon)
        a, b = _parse_action_pair(args.actions)
        prop = propagator_matrix(a, b, eps)
        alice, bob = markov_value(a, b, eps, g, args.w)
        payload = {
            "epsilon": eps,
            "w": args.w,
            "transition": [[float(v) for v in row] for row in prop.transition],
            "markov": {"alice": alice, "bob": bob},
        }
        if args.samples > 0:
            res = monte_carlo_payoff(repeated.constant(a), repeated.constant(b),
                                     eps, g, args.w,
                                     MCConfig(args.samples, args.seed))
            payload["monte_carlo"] = {
                "alice": res.mean[0], "bob": res.mean[1],
                "stderr": list(res.stderr), "samples": res.samples,
                "seed": args.seed,
            }
        print(_dump(payload))
        return 0

    if args.command == "period":
        eps = parse_angle(args.epsilon)
        sa, sb = parse_strategy(args.a), parse_strategy(args.b)
        info = detect_period(sa, sb, eps, args.limit)
        if info.is_periodic:
            print(_dump({"preperiod": info.preperiod, "period": info.period}))
        else:
            print(_dump({"aperiodic": True,
                         "rounds_searched": info.rounds_searched}))
        return 0

    if args.command == "reproduce":
        g = GamePayoffs(3, 0, 5, 1)
        grid = scan_region(FIGURE_PAIRS[args.figure], g,
                           args.w_steps, args.eps_steps)
        _emit_scan(grid, args.out, args.svg)
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, KeyError, PeriodNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: seeded inputs, the operations of one pass, and the
checks of their outputs against the reference evaluator.

Every workload repeats whole passes of the same operations, so the share of
failed operations is fixed by the pass.  Each operation returns
(result, units of work); a workload's failed(index, result), where present,
says whether the operation at that index of the pass failed.  check()
takes the results of every pass; it compares later passes with the first
and the first with the reference.
qrpd functions are looked up through their modules at call time, so a
traced run sees the wrapped versions.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

from qrpd import cli, nash, stochastic
from qrpd.game import GamePayoffs
from qrpd.repeated import STRATEGIES
from qrpd.stochastic import MCConfig

import reference as ref

PD = (3.0, 0.0, 5.0, 1.0)
NUMERIC_TOL = 1e-9       # relative to the value's size, at least 1
MARGIN_SKIP = 1e-6       # verdicts are compared only away from ties


def _fmt(x: float) -> str:
    return repr(float(x))


def _matrix_errors(label, got, want, verdict=None):
    errors = []
    got = np.asarray(got, dtype=float)
    for (i, j), value in np.ndenumerate(got):
        if not ref.close(value, want[i, j], NUMERIC_TOL):
            errors.append(f"{label}: a{i + 1}{j + 1} = {float(value)!r}, "
                          f"reference {float(want[i, j])!r}")
    if verdict is not None and not errors:
        margins = (want[0, 0] - want[1, 0], want[1, 1] - want[0, 1])
        if min(abs(m - 1e-9) for m in margins) > MARGIN_SKIP:
            expected = ref.verdict(want)
            if verdict != expected:
                errors.append(f"{label}: verdict {verdict}, reference {expected}")
    return errors


def _rng(seed, stream):
    """The input generator of one workload; any integer seed is accepted."""
    return np.random.default_rng([seed % 2 ** 64, stream])


def _payoffs(rng):
    """Seeded (R, S, T, P) with T > R > P > S, three decimals."""
    s = round(float(rng.uniform(0.0, 1.0)), 3)
    p = round(s + float(rng.uniform(0.5, 1.5)), 3)
    r = round(p + float(rng.uniform(0.5, 2.0)), 3)
    t = round(r + float(rng.uniform(0.5, 2.0)), 3)
    return r, s, t, p


def _same_as_first(name, passes, same):
    errors = []
    for k, results in enumerate(passes[1:], start=2):
        for i, (a, b) in enumerate(zip(passes[0], results)):
            if not same(a, b):
                errors.append(f"{name}: pass {k} operation {i} differs from pass 1")
    return errors


# ---------------------------------------------------------------------------

class EngineScan:
    """nash.scan_region over pairs with no closed form, default thread pool."""

    name = "engine_scan"
    PAIRS = (
        ("allr3-allq", "ALLR3", "ALLQ"),     # six-round environment cycle
        ("ctft-allr3", "CTFT", "ALLR3"),     # tit-for-tat opening
        ("allh-allr3", "ALLH", "ALLR3"),
    )
    STEPS = 4

    def __init__(self, seed: int, out_dir) -> None:
        rng = _rng(seed, 1)
        self.g = _payoffs(rng)
        self.w_max = float(rng.uniform(0.6, 0.95))
        self.eps_max = float(rng.uniform(0.3, math.pi / 4))
        self.order = [self.PAIRS[i] for i in rng.permutation(len(self.PAIRS))]

    def ops(self):
        g = GamePayoffs(*self.g)

        def scan(pair):
            grid = nash.scan_region(pair, g, self.STEPS, self.STEPS, self.w_max,
                                    eps_max=self.eps_max)
            return grid, grid.codes.size

        return [(pair, (lambda p=pair: scan(p))) for pair, _, _ in self.order]

    def check(self, passes):
        same = (lambda a, b: all(np.array_equal(getattr(a, k), getattr(b, k))
                                 for k in ("a11", "a12", "a21", "a22", "codes")))
        errors = _same_as_first(self.name, passes, same)
        w_axis = np.linspace(0.0, self.w_max, self.STEPS)
        e_axis = np.linspace(0.0, self.eps_max, self.STEPS)
        cells, got = [], []
        for (pair, row, col), grid in zip(self.order, passes[0]):
            if not (np.allclose(grid.w_axis, w_axis, rtol=0, atol=1e-15)
                    and np.allclose(grid.eps_axis, e_axis, rtol=0, atol=1e-15)):
                errors.append(f"{pair}: grid axes differ from the request")
            for i, w in enumerate(w_axis):
                for j, e in enumerate(e_axis):
                    cells.append((ref.PRESETS[row], ref.PRESETS[col], w, e))
                    got.append((pair, i, j, grid))
        want = ref.meta_matrices(cells, self.g)
        for (pair, i, j, grid), m in zip(got, want):
            entries = [[grid.a11[i, j], grid.a12[i, j]],
                       [grid.a21[i, j], grid.a22[i, j]]]
            errors += _matrix_errors(f"{pair} cell ({i},{j})", entries, m,
                                     grid.verdict_at(i, j).value)
        return errors


# ---------------------------------------------------------------------------

class Figures:
    """All eight paper figures at 512x512 and payoffs (3,0,5,1), written as
    CSV and SVG the way scripts/reproduce_figures.py writes them."""

    name = "figures"
    STEPS = 512
    HEADER = "w,epsilon,a11,a12,a21,a22,class"
    # Strategies of each figure pair, row first; "classical" marks the plain
    # repeated dilemma.
    STRATS = {
        "classical-tft-alld": ("CTFT", "ALLD"),
        "ctft-alld": ("CTFT", "ALLD"),
        "ctft-allh": ("CTFT", "ALLH"),
        "qtft-alld": ("QTFT", "ALLD"),
        "qtft-allh": ("QTFT", "ALLH"),
        "allq-alld": ("ALLQ", "ALLD"),
        "allh-alld": ("ALLH", "ALLD"),
        "allh-allc": ("ALLH", "ALLC"),
    }
    SAMPLES = 6

    def __init__(self, seed: int, out_dir) -> None:
        rng = _rng(seed, 2)
        self.out_dir = out_dir
        figures = sorted(cli.FIGURE_PAIRS.items())
        self.order = [figures[i] for i in rng.permutation(len(figures))]
        n = self.STEPS
        corners = [(0, 0), (n - 1, n - 1)]
        self.samples = {fig: corners + [tuple(int(v) for v in rng.integers(0, n, 2))
                                        for _ in range(self.SAMPLES)]
                        for fig, _ in figures}

    def paths(self, fig, pair):
        stem = self.out_dir / f"figure_{fig}_{pair}"
        return stem.with_suffix(".csv"), stem.with_suffix(".svg")

    def ops(self):
        g = GamePayoffs(*PD)

        def figure(fig, pair):
            grid = nash.scan_region(pair, g, w_steps=self.STEPS,
                                    eps_steps=self.STEPS)
            csv_path, svg_path = self.paths(fig, pair)
            with open(csv_path, "w", encoding="utf-8") as fh:
                grid.write_csv(fh)
                csv_bytes = fh.tell()
            with open(svg_path, "w", encoding="utf-8") as fh:
                cli.write_svg(grid, fh)
                svg_bytes = fh.tell()
            return (csv_bytes, svg_bytes), grid.codes.size

        return [(f"figure {fig}", (lambda f=fig, p=pair: figure(f, p)))
                for fig, pair in self.order]

    def check(self, passes):
        errors = _same_as_first(self.name, passes, lambda a, b: a == b)
        n = self.STEPS
        w_axis = np.linspace(0.0, 0.99, n)
        e_axis = np.linspace(0.0, math.pi / 4, n)
        quantum_cells, quantum_rows, classical = [], [], []
        for fig, pair in self.order:
            csv_path, svg_path = self.paths(fig, pair)
            with open(csv_path, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            if lines[0] != self.HEADER or lines[-1] != "" or len(lines) != n * n + 2:
                errors.append(f"figure {fig}: CSV has a wrong header or "
                              f"{len(lines) - 2} rows instead of {n * n}")
                continue
            try:
                root = ET.parse(svg_path).getroot()
            except ET.ParseError as exc:
                errors.append(f"figure {fig}: SVG does not parse: {exc}")
            else:
                if root.tag != "{http://www.w3.org/2000/svg}svg":
                    errors.append(f"figure {fig}: SVG root is {root.tag}")
            errors += self._paper_property(fig, lines)
            row, col = (ref.PRESETS[s] for s in self.STRATS[pair])
            for i, j in self.samples[fig]:
                fields = lines[1 + i * n + j].split(",")
                w, e = float(fields[0]), float(fields[1])
                if not (ref.close(w, w_axis[i], 1e-11) and ref.close(e, e_axis[j], 1e-11)):
                    errors.append(f"figure {fig}: row ({i},{j}) has w={w}, eps={e}")
                entries = [[float(fields[2]), float(fields[3])],
                           [float(fields[4]), float(fields[5])]]
                label = f"figure {fig} cell ({i},{j})"
                if pair.startswith("classical"):
                    classical.append((label, entries, fields[6], (row, col, w, e)))
                else:
                    quantum_cells.append((row, col, w, e))
                    quantum_rows.append((label, entries, fields[6]))
        for (label, entries, verdict), m in zip(
                quantum_rows, ref.meta_matrices(quantum_cells, PD)):
            errors += _matrix_errors(label, entries, m, verdict)
        for label, entries, verdict, cell in classical:
            m = ref.meta_matrices([cell], PD, classical=True)[0]
            errors += _matrix_errors(label, entries, m, verdict)
        return errors

    @staticmethod
    def _paper_property(fig, lines):
        """Figure 1: ALLD strict NE at every w, TFT exactly for w > 1/2.
        Figure 3a: CTFT exactly for w > 2/3, ALLD exactly for w < 1/2."""
        R, S, T, P = PD
        if fig == "1":
            def expected(w):
                return "BOTH" if w > (T - R) / (T - P) else "SECOND"
        elif fig == "3a":
            def expected(w):
                if w > (T - R) / (R - S):
                    return "FIRST"
                return "SECOND" if w < (P - S) / (T - R) else "NEITHER"
        else:
            return []
        bad = 0
        for line in lines[1:-1]:
            w_text, _, rest = line.partition(",")
            if rest.rsplit(",", 1)[1] != expected(float(w_text)):
                bad += 1
        return [f"figure {fig}: {bad} cells break the paper's region"] if bad else []


# ---------------------------------------------------------------------------

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


_CONST = ("ALLC", "ALLD", "ALLQ", "ALLH", "ALLR3")
_CLOSED_PAIRS = (
    "classical-tft-alld", "ctft-allq", "ctft-alld", "ctft-allh", "qtft-allc",
    "qtft-alld", "qtft-allh", "allc-allr3", "alld-allr3", "allq-ctft",
    "alld-ctft", "allh-qtft", "allr3-alld", "allc-allq", "alld-allq",
    "allh-allc", "allh-alld", "allq-allh", "alld-alld", "allc-allh",
)
_ENGINE_PAIRS = ("allr3-allq", "allq-allr3", "ctft-allr3", "qtft-allr3",
                 "allh-allr3", "allr3-allh", "qtft-allq", "ctft-allc")
_PAIR_STRATS = {"classical-tft-alld": ("CTFT", "ALLD")}
# The two failing queries; their inputs do not depend on the seed.
# An irrational rotation (theta = 1 rad) has no environment cycle, and
# engine_meta_matrix raises instead of summing the convergent series.
FAILING_QUERY = ["matrix", "--pair", "all:1,0,0-alld", "--w", "0.5",
                 "--epsilon", "0.3"]
FAILING_REF = (("ALL", (1.0, 0.0, 0.0)), ref.PRESETS["ALLD"])
# make_unitary folds alpha mod pi, but n(alpha + pi) = -n(alpha), so an
# alpha in [pi, 2pi) gives the inverse rotation.  The query exits 0; it
# counts as failed while it prints the values that fold gives.
ALPHA_QUERY = ["oneshot", "--actions", "1,3.5,0.3,H", "--epsilon", "0.3"]
ALPHA_REF = ((1.0, 3.5, 0.3), ref.NAMED["H"], 0.3)
ALPHA_FOLDED = (2.11908317172, 2.96433892764)


def _prints_folded(out) -> bool:
    try:
        got = [float(v) for v in out.split()]
    except ValueError:
        return False
    return (len(got) == 2
            and all(ref.close(x, y, NUMERIC_TOL) for x, y in zip(got, ALPHA_FOLDED)))


class CellQueries:
    """A closed loop of single-cell qrpd commands through cli.main in-process.

    One block holds 40 queries in fixed slots, so every pass does the same
    kinds of work: 20 matrix queries (the fixed irrational-pair one, 17
    closed-form pairs, 2 engine-only pairs), 2 truncated (one at w = 0.999,
    about 36,000 rounds, the slowest query of the block), 2 periodic and 2
    markov repeated queries, 4 period queries and 10 one-shot queries (the
    fixed alpha query and 9 seeded ones).  A pass is 25 blocks.
    """

    name = "cell_queries"
    BLOCKS = 25

    def __init__(self, seed: int, out_dir) -> None:
        self.rng = _rng(seed, 3)
        self.queries = []          # (kind, argv, reference spec)
        for _ in range(self.BLOCKS):
            self._block()

    # -- seeded inputs ------------------------------------------------------
    def _w(self, hi=0.99):
        return float(self.rng.uniform(0.0, hi))

    def _eps(self):
        return float(self.rng.uniform(0.0, math.pi / 4))

    def _angles_text(self, rational):
        rng = self.rng
        if rational:
            q = int(rng.choice([1, 2, 3, 4, 6]))
            p = int(rng.integers(0, q))
            theta_text = f"{2 * p}pi/{q}"
            theta = float(2 * p) * math.pi / float(q)
        else:
            theta_text = f"{rng.uniform(0.1, 2 * math.pi - 0.1):.6f}"
            theta = float(theta_text)
        # Fixed-point text: an exponent's '-' would split a pair name.
        # Seeded alpha stays in [0, pi): in [pi, 2pi) the make_unitary fold
        # would fail some seeds' queries and not others; ALPHA_QUERY shows
        # that fault on fixed inputs instead.
        alpha_text = f"{rng.uniform(0.0, math.pi):.6f}"
        phi_text = f"{rng.uniform(0.0, 2 * math.pi):.6f}"
        return (f"{theta_text},{alpha_text},{phi_text}",
                (theta, float(alpha_text), float(phi_text)))

    def _strategy(self, pool):
        """(CLI text, reference spec) drawn from the named pools."""
        kind = pool[int(self.rng.integers(0, len(pool)))]
        if kind == "const":
            name = _CONST[int(self.rng.integers(0, len(_CONST)))]
            return name, ref.PRESETS[name]
        if kind == "tft":
            name = ("CTFT", "QTFT")[int(self.rng.integers(0, 2))]
            return name, ref.PRESETS[name]
        if kind == "tft_named":
            name = tuple(ref.NAMED)[int(self.rng.integers(0, len(ref.NAMED)))]
            return f"TFT:{name}", ("TFT", ref.NAMED[name])
        text, angles = self._angles_text(rational=(kind == "rational"))
        return f"ALL:{text}", ("ALL", angles)

    def _periodic_play(self):
        """A play with a guaranteed environment cycle: a constant with a
        rational angle against any strategy with rational angles, at most
        one of them tit-for-tat."""
        a = self._strategy(("const", "rational"))
        b = self._strategy(("const", "rational", "tft", "tft_named"))
        return (a, b) if self.rng.random() < 0.5 else (b, a)

    def _block(self):
        rng, add = self.rng, self.queries.append
        add(("matrix", FAILING_QUERY, (FAILING_REF, 0.5, 0.3, PD, False)))
        for _ in range(17):
            pair = _CLOSED_PAIRS[int(rng.integers(0, len(_CLOSED_PAIRS)))]
            g = _payoffs(rng)
            w, e = self._w(), self._eps()
            row, col = _PAIR_STRATS.get(pair, pair.upper().split("-"))
            add(("matrix", ["matrix", "--pair", pair, "--w", _fmt(w),
                            "--epsilon", _fmt(e), "--payoffs", ",".join(map(str, g))],
                 ((ref.PRESETS[row], ref.PRESETS[col]), w, e, g,
                  pair.startswith("classical"))))
        for k in range(2):
            if k == 0:
                pair = _ENGINE_PAIRS[int(rng.integers(0, len(_ENGINE_PAIRS)))]
                row, col = (ref.PRESETS[x] for x in pair.upper().split("-"))
            else:
                # A custom rational constant keeps the pair off the closed
                # forms and every play of the meta matrix periodic.
                ta, row = self._strategy(("rational",))
                tb, col = self._strategy(("const", "tft", "tft_named"))
                pair = f"{ta}-{tb}".lower()
            w, e = self._w(), self._eps()
            add(("matrix", ["matrix", "--pair", pair, "--w", _fmt(w),
                            "--epsilon", _fmt(e)], ((row, col), w, e, PD, False)))
        any_pool = ("const", "tft", "tft_named", "rational", "irrational")
        for w in (0.999, self._w(0.95)):
            (ta, sa), (tb, sb) = self._strategy(any_pool), self._strategy(
                ("const", "rational", "irrational"))
            if rng.random() < 0.5:
                (ta, sa), (tb, sb) = (tb, sb), (ta, sa)
            e = self._eps()
            add(("truncated", ["repeated", "--a", ta, "--b", tb, "--w", _fmt(w),
                               "--epsilon", _fmt(e), "--mode", "truncated"],
                 (sa, sb, w, e)))
        for _ in range(2):
            (ta, sa), (tb, sb) = self._periodic_play()
            w, e = self._w(), self._eps()
            add(("periodic", ["repeated", "--a", ta, "--b", tb, "--w", _fmt(w),
                              "--epsilon", _fmt(e), "--mode", "periodic"],
                 (sa, sb, w, e)))
        for _ in range(2):
            pool = ("const", "rational", "irrational")
            (ta, sa), (tb, sb) = self._strategy(pool), self._strategy(pool)
            w, e = self._w(), self._eps()
            add(("markov", ["repeated", "--a", ta, "--b", tb, "--w", _fmt(w),
                            "--epsilon", _fmt(e), "--mode", "markov"],
                 (sa, sb, w, e)))
        for _ in range(4):
            (ta, sa), (tb, sb) = self._periodic_play()
            e = self._eps()
            add(("period", ["period", "--a", ta, "--b", tb, "--epsilon", _fmt(e)],
                 (sa, sb, e)))
        add(("oneshot", ALPHA_QUERY, ALPHA_REF))
        for _ in range(9):
            texts, angles = [], []
            for _ in range(2):
                if rng.random() < 0.5:
                    name = tuple(ref.NAMED)[int(rng.integers(0, len(ref.NAMED)))]
                    texts.append(name)
                    angles.append(ref.NAMED[name])
                else:
                    text, a = self._angles_text(rational=False)
                    texts.append(text)
                    angles.append(a)
            e = self._eps()
            add(("oneshot", ["oneshot", "--actions", ",".join(texts),
                             "--epsilon", _fmt(e)], (angles[0], angles[1], e)))

    # -- operations and checks ---------------------------------------------
    def ops(self):
        return [(" ".join(argv), (lambda a=argv: (run_cli(a), 1)))
                for _, argv, _ in self.queries]

    def failed(self, index, result) -> bool:
        rc, out, _ = result
        if self.queries[index][1] is ALPHA_QUERY:
            return rc == 0 and _prints_folded(out)
        return rc != 0

    def check(self, passes):
        errors = _same_as_first(self.name, passes, lambda a, b: a == b)
        quantum, collapse, after = [], [], []
        for (kind, argv, spec), (rc, out, err) in zip(self.queries, passes[0]):
            label = " ".join(argv)
            if rc != 0:
                if argv is FAILING_QUERY and rc == 1 and err.startswith(
                        "error: no environment cycle") and not out:
                    continue
                errors.append(f"{label}: exit {rc}, stderr {err.strip()[-200:]!r}")
                continue
            if err:
                errors.append(f"{label}: unexpected stderr {err.strip()[-200:]!r}")
            try:
                parsed = (out.split() if kind == "oneshot" else json.loads(out))
            except ValueError:
                errors.append(f"{label}: unparseable output {out[:200]!r}")
                continue
            if kind == "matrix":
                (row, col), w, e, g, classical = spec
                if classical:
                    m = ref.meta_matrices([(row, col, w, e)], g, classical=True)[0]
                    errors += _matrix_errors(label, parsed["matrix"], m,
                                             parsed["verdict"])
                else:
                    start = len(quantum)
                    quantum += [(sa, sb, e, w, g) for sa, sb in ref.meta_plays(row, col)]
                    after.append(("matrix", label, parsed, start))
            elif kind in ("truncated", "periodic"):
                sa, sb, w, e = spec
                after.append(("repeated", label, parsed, len(quantum)))
                quantum.append((sa, sb, e, w, PD))
            elif kind == "markov":
                sa, sb, w, e = spec
                after.append(("markov", label, parsed, len(collapse)))
                collapse.append((sa, sb, e, w, PD))
            elif kind == "period":
                errors += self._check_period(label, parsed, *spec)
            else:
                a, b, e = spec
                want = ref.one_shot(a, b, e, PD)
                got = [float(v) for v in parsed]
                if (len(got) != 2
                        or not all(ref.close(x, y, NUMERIC_TOL) for x, y in zip(got, want))
                        ) and not (argv is ALPHA_QUERY and _prints_folded(out)):
                    errors.append(f"{label}: {got}, reference {want}")
        q_alice, q_bob = _batched(ref.quantum_values, quantum)
        c_alice, c_bob = _batched(ref.collapse_values, collapse)
        for what, label, parsed, k in after:
            if what == "matrix":
                m = q_alice[k:k + 4].reshape(2, 2)
                errors += _matrix_errors(label, parsed["matrix"], m, parsed["verdict"])
                continue
            alice, bob = (q_alice, q_bob) if what == "repeated" else (c_alice, c_bob)
            if not (ref.close(parsed["alice"], alice[k], NUMERIC_TOL)
                    and ref.close(parsed["bob"], bob[k], NUMERIC_TOL)):
                errors.append(f"{label}: ({parsed['alice']}, {parsed['bob']}), "
                              f"reference ({alice[k]}, {bob[k]})")
        return errors

    @staticmethod
    def _check_period(label, parsed, sa, sb, e):
        if "period" not in parsed:
            return [f"{label}: reported no cycle for a rational play"]
        s, p = parsed["preperiod"], parsed["period"]
        probs = ref.probabilities(sa, sb, e, s + p + 64)
        gap = np.max(np.abs(probs[s + p:] - probs[s:s + 64]))
        if gap > NUMERIC_TOL:
            return [f"{label}: reference probabilities do not repeat with "
                    f"period {p} after {s} rounds (gap {gap:.3g})"]
        return []


def _batched(fn, plays, chunk=256):
    """Evaluate (sa, sb, eps, w, g) plays with a reference function, in
    chunks of similar w so that each chunk's horizon fits its discounts."""
    alice, bob = np.empty(len(plays)), np.empty(len(plays))
    order = sorted(range(len(plays)), key=lambda k: plays[k][3])
    for start in range(0, len(order), chunk):
        idx = order[start:start + chunk]
        a, b = fn([plays[k][:3] for k in idx], [plays[k][3] for k in idx],
                  np.array([plays[k][4] for k in idx], dtype=float))
        alice[idx], bob[idx] = a, b
    return alice, bob


# ---------------------------------------------------------------------------

class MonteCarlo:
    """stochastic.monte_carlo_payoff at the CLI default of 100,000 samples:
    a constant pair and a tit-for-tat pair at w = 0.4 and w = 0.9."""

    name = "montecarlo"
    SAMPLES = 100_000
    PLAYS = (("ALLH", "ALLD", 0.4), ("CTFT", "ALLH", 0.4),
             ("ALLH", "ALLD", 0.9), ("CTFT", "ALLH", 0.9))

    def __init__(self, seed: int, out_dir) -> None:
        rng = _rng(seed, 4)
        self.inputs = [(a, b, w, float(rng.uniform(0.05, math.pi / 4)),
                        int(rng.integers(0, 2 ** 32)))
                       for a, b, w in self.PLAYS]

    def ops(self):
        g = GamePayoffs(*PD)

        def estimate(a, b, w, e, key):
            res = stochastic.monte_carlo_payoff(STRATEGIES[a], STRATEGIES[b], e, g,
                                                w, MCConfig(self.SAMPLES, key))
            return res, res.samples * res.rounds

        return [(f"mc {x[0]}-{x[1]} w={x[2]}", (lambda x=x: estimate(*x)))
                for x in self.inputs]

    def check(self, passes):
        errors = _same_as_first(self.name, passes,
                                lambda a, b: a.mean == b.mean and a.stderr == b.stderr)
        rerun, _ = self.ops()[0][1]()
        if rerun.mean != passes[0][0].mean:
            errors.append("montecarlo: the same seed gave different means")
        plays = [(ref.PRESETS[a], ref.PRESETS[b], e) for a, b, _, e, _ in self.inputs]
        alice, bob = ref.collapse_values(plays, [x[2] for x in self.inputs], PD)
        for (a, b, w, e, key), res, ra, rb in zip(self.inputs, passes[0], alice, bob):
            for got, se, want in ((res.mean[0], res.stderr[0], ra),
                                  (res.mean[1], res.stderr[1], rb)):
                if abs(got - want) > 5.0 * se + 1e-9:
                    errors.append(f"mc {a}-{b} w={w} eps={e:.4f}: {got} is more "
                                  f"than 5 standard errors ({se:.3g}) from {want}")
        return errors


WORKLOADS = {cls.name: cls for cls in (EngineScan, Figures, CellQueries, MonteCarlo)}

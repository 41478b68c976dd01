import io
import math

import numpy as np
import pytest

from qrpd.game import GamePayoffs
from qrpd.nash import (MAX_SCAN_CELLS, Verdict, analytic_condition,
                       classical_baseline, classify_codes, classify_strict_ne,
                       condition_pairs, scan_region)
from qrpd.repeated import closed_form_meta_matrix, engine_meta_matrix


def first_holds(verdict: Verdict) -> bool:
    return verdict in (Verdict.FIRST, Verdict.BOTH)


def second_holds(verdict: Verdict) -> bool:
    return verdict in (Verdict.SECOND, Verdict.BOTH)


def test_classify_examples(pd_game):
    assert classify_strict_ne([[2, 0], [0, 2]]).verdict is Verdict.BOTH
    m = closed_form_meta_matrix("ctft-alld", 0.8, 0.1, pd_game)
    cls = classify_strict_ne(m)
    assert cls.verdict is Verdict.FIRST
    assert cls.margins[0] == pytest.approx(15 - 125 / 9, abs=1e-9)
    for w, eps in ((0.2, 0.3), (0.7, math.pi / 8), (0.9, math.pi / 4)):
        m = closed_form_meta_matrix("ctft-allq", w, eps, pd_game)
        assert classify_strict_ne(m).verdict is Verdict.BOTH


def test_classify_tie_tolerance():
    assert classify_strict_ne([[1, 1], [1, 1]]).verdict is Verdict.NEITHER
    assert classify_strict_ne([[1 + 5e-10, 2], [1, 2 + 5e-10]]).verdict \
        is Verdict.NEITHER
    with pytest.raises(ValueError):
        classify_strict_ne([[math.nan, 0], [0, 0]])


def test_analytic_condition_examples(pd_game):
    assert analytic_condition("ctft-alld", "CTFT", 0.8, 0.1, pd_game) is True
    assert analytic_condition("ctft-alld", "CTFT", 0.6, 0.1, pd_game) is False
    eps_half = math.pi / 8          # sin^2(2 eps) = 1/2
    assert analytic_condition("alld-allq", "ALLQ", 0.4, eps_half, pd_game) is True
    assert analytic_condition("qtft-alld", "ALLD", 0.9, math.pi / 4,
                              pd_game) is False
    # a11 = 30 < a21 ~ 35.26: ALLC is not strict NE against ALLR3 when T > R
    assert analytic_condition("allc-allr3", "ALLC", 0.9, 0.3,
                              GamePayoffs(3, 0, 4, 1)) is False
    with pytest.raises(KeyError):
        analytic_condition("ctft-alld", "ALLH", 0.5, 0.1, pd_game)
    with pytest.raises(KeyError):
        analytic_condition("nope-nope", "CTFT", 0.5, 0.1, pd_game)


def test_analytic_condition_accepts_reversed_pair_order(pd_game):
    a = analytic_condition("allq-alld", "ALLQ", 0.4, 0.3, pd_game)
    b = analytic_condition("alld-allq", "ALLQ", 0.4, 0.3, pd_game)
    assert a == b


def test_analytic_agrees_with_engine_matrices(pd_game):
    """Closed-form inequalities against engine verdicts on a coarse grid,
    skipping cells near a region boundary."""
    pairs = {
        "classical-tft-alld": ("TFT", "ALLD"),
        "ctft-alld": ("CTFT", "ALLD"),
        "ctft-allh": ("CTFT", "ALLH"),
        "qtft-alld": ("QTFT", "ALLD"),
        "qtft-allh": ("QTFT", "ALLH"),
        "alld-allq": ("ALLD", "ALLQ"),
        "allh-alld": ("ALLH", "ALLD"),
        "allh-allc": ("ALLH", "ALLC"),
        "allc-allr3": ("ALLC", "ALLR3"),
        "alld-allr3": ("ALLD", "ALLR3"),
    }
    ws = np.linspace(0.0, 0.95, 21)
    epss = np.linspace(0.0, math.pi / 4, 21)
    for pair, (first, second) in pairs.items():
        for w in ws:
            for eps in epss:
                m = closed_form_meta_matrix(pair, float(w), float(eps), pd_game)
                margins = (m[0, 0] - m[1, 0], m[1, 1] - m[0, 1])
                cls = classify_strict_ne(m)
                if abs(margins[0]) > 1e-6:
                    assert analytic_condition(pair, first, float(w), float(eps),
                                              pd_game) == first_holds(cls.verdict), \
                        (pair, first, w, eps)
                if abs(margins[1]) > 1e-6:
                    assert analytic_condition(pair, second, float(w), float(eps),
                                              pd_game) == second_holds(cls.verdict), \
                        (pair, second, w, eps)


def test_condition_pairs_lists_r3_inequalities():
    keys = condition_pairs()
    assert ("allc-allr3", "ALLC") in keys
    assert ("alld-allr3", "ALLR3") in keys


def test_scan_ctft_alld_structure(pd_game):
    grid = scan_region("ctft-alld", pd_game, w_steps=128, eps_steps=16)
    codes = grid.codes
    # entanglement independence: every column identical
    assert np.all(codes == codes[:, :1])
    col = codes[:, 0]
    verdicts = [grid.verdict_at(i, 0) for i in range(len(grid.w_axis))]
    for i, w in enumerate(grid.w_axis):
        if w < 0.5 - 0.01:
            assert verdicts[i] is Verdict.SECOND
        elif 0.5 + 0.01 < w < 2 / 3 - 0.01:
            assert verdicts[i] is Verdict.NEITHER
        elif w > 2 / 3 + 0.01:
            assert verdicts[i] is Verdict.FIRST


def test_scan_allq_alld_boundaries_and_no_coexistence(pd_game):
    grid = scan_region("allq-alld", pd_game, w_steps=16, eps_steps=256)
    codes = grid.codes
    # discount independence: every row identical
    assert np.all(codes == codes[:1, :])
    assert not np.any(codes == 3)
    row = codes[0]
    changes = [j for j in range(len(row) - 1) if row[j] != row[j + 1]]
    assert len(changes) == 2
    b1 = 0.5 * math.asin(math.sqrt(0.2))
    b2 = 0.5 * math.asin(math.sqrt(0.4))
    cell = grid.eps_axis[1] - grid.eps_axis[0]
    assert abs(grid.eps_axis[changes[0]] - b1) <= cell
    assert abs(grid.eps_axis[changes[1]] - b2) <= cell


def test_scan_allh_allc_regions(pd_game):
    grid = scan_region("allh-allc", pd_game, w_steps=8, eps_steps=256)
    codes = grid.codes
    assert np.all(codes == codes[:1, :])
    allc_from = 0.5 * math.asin(math.sqrt(2 / 7))
    allh_until = math.pi / 8
    for j, eps in enumerate(grid.eps_axis):
        v = grid.verdict_at(0, j)
        if eps < allc_from - 0.01:
            assert v is Verdict.FIRST, eps
        elif allc_from + 0.01 < eps < allh_until - 0.01:
            assert v is Verdict.BOTH, eps
        elif eps > allh_until + 0.01:
            assert v is Verdict.SECOND, eps


def test_scan_validates_arguments(pd_game):
    with pytest.raises(ValueError):
        scan_region("ctft-alld", pd_game, w_steps=1)
    with pytest.raises(ValueError):
        scan_region("ctft-alld", pd_game, w_max=1.0)
    for eps_max in (-0.1, 2.0, math.nan):
        with pytest.raises(ValueError, match="eps_max"):
            scan_region("ctft-alld", pd_game, w_steps=2, eps_steps=2,
                        eps_max=eps_max)
    # rejected from the step counts alone, before any array is built
    with pytest.raises(ValueError, match="exceeds"):
        scan_region("ctft-alld", pd_game, w_steps=MAX_SCAN_CELLS // 2 + 1,
                    eps_steps=2)
    # a negative tolerance would call a deviation gain of up to 5 strict NE,
    # and nan would call every cell NEITHER
    for tie_tol in (-5.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            scan_region("ctft-alld", pd_game, w_steps=2, eps_steps=2,
                        tie_tol=tie_tol)
        with pytest.raises(ValueError):
            classify_codes(3.0, 0.0, 5.0, 1.0, tie_tol)
    # finite payoffs whose discounted sums overflow to inf would be
    # classified NEITHER
    with pytest.raises(ValueError, match="non-finite"):
        scan_region("ctft-alld", GamePayoffs(1e307, 0, 9e306, 1),
                    w_steps=2, eps_steps=2)


def test_scan_fallback_engine_pair(pd_game):
    grid = scan_region("allr3-ctft", pd_game, w_steps=3, eps_steps=3)
    for i, w in enumerate(grid.w_axis):
        for j, eps in enumerate(grid.eps_axis):
            m = engine_meta_matrix("allr3-ctft", float(w), float(eps), pd_game,
                                   method="truncated")
            cell = [[grid.a11[i, j], grid.a12[i, j]],
                    [grid.a21[i, j], grid.a22[i, j]]]
            np.testing.assert_allclose(cell, m, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(
        grid.codes, classify_codes(grid.a11, grid.a12, grid.a21, grid.a22))


def test_scan_csv_schema(pd_game):
    grid = scan_region("ctft-alld", pd_game, w_steps=3, eps_steps=3)
    buf = io.StringIO()
    grid.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "w,epsilon,a11,a12,a21,a22,class"
    assert len(lines) == 1 + 9
    fields = lines[1].split(",")
    assert len(fields) == 7
    assert fields[6] in ("FIRST", "SECOND", "BOTH", "NEITHER")


def test_classical_baseline_examples(pd_game):
    m, cls = classical_baseline(pd_game, 0.3)
    assert cls.verdict is Verdict.SECOND
    m, cls = classical_baseline(pd_game, 0.8)
    assert cls.verdict is Verdict.BOTH
    np.testing.assert_allclose(m, [[15.0, 4.0], [9.0, 5.0]], atol=1e-12)
    _, cls = classical_baseline(pd_game, 0.0)
    assert cls.verdict is Verdict.SECOND


def test_ctft_alld_coexistence_law():
    # coexistence region exists iff (T-R)^2 < (R-S)(P-S)
    without = GamePayoffs(3, 0, 5, 1)      # 4 > 3: no coexistence
    grid = scan_region("ctft-alld", without, w_steps=64, eps_steps=4)
    assert not np.any(grid.codes == 3)
    with_coex = GamePayoffs(3, 0, 4, 1)    # 1 < 3: coexistence above w = 1/3
    grid = scan_region("ctft-alld", with_coex, w_steps=64, eps_steps=4)
    assert np.any(grid.codes == 3)


def test_alld_allq_coexistence_law():
    # coexistence iff R + P > T + S
    absent = scan_region("alld-allq", GamePayoffs(3, 0, 5, 1), w_steps=8,
                         eps_steps=128)
    assert not np.any(absent.codes == 3)
    present = scan_region("alld-allq", GamePayoffs(3, 0, 4, 2), w_steps=8,
                          eps_steps=128)
    assert np.any(present.codes == 3)

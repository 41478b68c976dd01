"""The figure writers against plain per-cell reference loops, and the
figure script against `qrpd reproduce`."""
import contextlib
import io
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qrpd.cli import FIGURE_PAIRS, main, write_svg
from qrpd.nash import ScanGrid, scan_region

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
NAMES = ("NEITHER", "FIRST", "SECOND", "BOTH")
COLORS = ("white", "yellow", "blue", "green")


def reference_csv(grid: ScanGrid) -> str:
    out = ["w,epsilon,a11,a12,a21,a22,class\n"]
    for i, w in enumerate(grid.w_axis):
        for j, e in enumerate(grid.eps_axis):
            out.append(
                f"{w:.12g},{e:.12g},{grid.a11[i, j]:.12g},"
                f"{grid.a12[i, j]:.12g},{grid.a21[i, j]:.12g},"
                f"{grid.a22[i, j]:.12g},{NAMES[int(grid.codes[i, j])]}\n")
    return "".join(out)


def reference_svg(grid: ScanGrid) -> str:
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
    for i in range(n_w):
        j = 0
        while j < n_e:
            code = int(grid.codes[i, j])
            k = j
            while k < n_e and int(grid.codes[i, k]) == code:
                k += 1
            if COLORS[code] != "white":
                x = left + i * cell_w
                y = top + (n_e - k) * cell_h
                lines.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                    f'height="{(k - j) * cell_h:.2f}" fill="{COLORS[code]}"/>')
            j = k
    w_lo, w_hi = grid.w_axis[0], grid.w_axis[-1]
    e_lo, e_hi = grid.eps_axis[0], grid.eps_axis[-1]
    lines += [
        '<text x="380" y="545" text-anchor="middle">w</text>',
        f'<text x="{left:.0f}" y="530">{w_lo:.3g}</text>',
        f'<text x="690" y="530">{w_hi:.3g}</text>',
        '<text x="20" y="260" transform="rotate(-90 20 260)" '
        'text-anchor="middle">epsilon</text>',
        f'<text x="30" y="505">{e_lo:.3g}</text>',
        f'<text x="30" y="35">{e_hi:.3g}</text>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def written(writer) -> str:
    buf = io.StringIO()
    writer(buf)
    return buf.getvalue()


def code_grid(codes) -> ScanGrid:
    codes = np.asarray(codes, dtype=np.int8)
    n_w, n_e = codes.shape
    zeros = np.zeros(codes.shape)
    return ScanGrid("hand", np.linspace(0.0, 0.99, n_w),
                    np.linspace(0.0, math.pi / 4, n_e),
                    zeros, zeros, zeros, zeros, codes)


def test_csv_matches_reference_on_awkward_values():
    a11 = np.array([[-0.0, 0.0, -0.0, 0.0, 1e-05],
                    [math.nan, math.inf, -math.inf, math.nan, -math.inf],
                    [1e+16, 2.5e-300, 1e+16, -2.5e-300, 1 / 3],
                    [7.0, 7.0, 7.0, 7.0, 7.0]])
    a12 = a11[::-1, ::-1].copy()
    a21 = np.broadcast_to(np.array([[0.1], [-0.0], [123456789012.5], [2.0]]),
                          a11.shape)
    a22 = -a11
    codes = np.array([[0, 1, 2, 3, 0], [3, 3, 2, 2, 1], [1, 0, 1, 0, 1],
                      [2, 2, 2, 2, 2]], dtype=np.int8)
    grid = ScanGrid("hand", np.array([0.0, 1e-05, 0.5, 0.99]),
                    np.array([-0.0, 0.0, 1e-16, 0.25, 1.0]),
                    a11, a12, a21, a22, codes)
    text = written(grid.write_csv)
    assert text == reference_csv(grid)
    # -0.0 and 0.0 print differently and sit side by side in row 0
    assert text.splitlines()[1].split(",")[2] == "-0"
    assert text.splitlines()[2].split(",")[2] == "0"


@pytest.mark.parametrize("pair, shape", [("ctft-allh", (33, 17)),
                                         ("ctft-alld", (5, 9)),
                                         ("allr3-ctft", (3, 2))])
def test_writers_match_reference_on_scans(pd_game, pair, shape):
    grid = scan_region(pair, pd_game, w_steps=shape[0], eps_steps=shape[1])
    assert written(grid.write_csv) == reference_csv(grid)
    assert written(lambda s: write_svg(grid, s)) == reference_svg(grid)


@pytest.mark.parametrize("codes", [
    np.full((4, 6), 2),                                 # constant rows
    np.zeros((3, 5)),                                   # all white
    np.indices((5, 8)).sum(axis=0) % 2 * 3,             # alternating rows
    np.array([[0], [1], [2], [3], [3]]),                # one column
    np.array([[1, 1, 0, 0, 3, 3, 3, 2], [0, 1, 2, 3, 0, 1, 2, 3]]),
])
def test_svg_matches_reference_on_code_grids(codes):
    grid = code_grid(codes)
    assert written(lambda s: write_svg(grid, s)) == reference_svg(grid)


def test_figure_script_matches_reproduce(tmp_path):
    steps = "16"
    subprocess.run([sys.executable, str(SCRIPT), "--steps", steps,
                    "--out-dir", str(tmp_path / "script")],
                   check=True, capture_output=True)
    for figure, pair in FIGURE_PAIRS.items():
        csv_path = tmp_path / f"{figure}.csv"
        svg_path = tmp_path / f"{figure}.svg"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["reproduce", "--figure", figure, "--w-steps", steps,
                         "--eps-steps", steps, "--out", str(csv_path),
                         "--svg", str(svg_path)])
        assert code == 0
        stem = tmp_path / "script" / f"figure_{figure}_{pair}"
        assert stem.with_suffix(".csv").read_bytes() == csv_path.read_bytes(), figure
        assert stem.with_suffix(".svg").read_bytes() == svg_path.read_bytes(), figure

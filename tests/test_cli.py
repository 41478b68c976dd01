import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrpd.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oneshot_plain_output(capsys):
    code, out, _ = run_cli(capsys, "oneshot", "--actions", "H,H",
                           "--epsilon", "0.1", "--payoffs", "3,0,5,1")
    assert code == 0
    assert out.strip() == "2.25 2.25"


def test_oneshot_json_and_raw_triples(capsys):
    code, out, _ = run_cli(capsys, "oneshot", "--actions", "Q,pi,pi/2,0",
                           "--epsilon", "pi/4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["alice"] == pytest.approx(5.0, abs=1e-12)
    assert data["bob"] == pytest.approx(0.0, abs=1e-12)


def test_repeated_modes_agree(capsys):
    args = ("--a", "CTFT", "--b", "ALLD", "--w", "0.5", "--epsilon", "0.3")
    values = {}
    for mode in ("truncated", "periodic"):
        code, out, _ = run_cli(capsys, "repeated", *args, "--mode", mode)
        assert code == 0
        values[mode] = json.loads(out)
    assert values["truncated"]["alice"] == pytest.approx(10 / 3, abs=1e-9)
    assert values["periodic"]["alice"] == pytest.approx(10 / 3, abs=1e-12)
    assert values["periodic"]["bob"] == pytest.approx(20 / 3, abs=1e-12)


def test_repeated_markov_mode_needs_constants(capsys):
    code, _, err = run_cli(capsys, "repeated", "--a", "CTFT", "--b", "ALLD",
                           "--w", "0.5", "--epsilon", "0.3", "--mode", "markov")
    assert code == 1
    assert "constant" in err


def test_repeated_mc_mode_metadata(capsys):
    code, out, _ = run_cli(capsys, "repeated", "--a", "ALLD", "--b", "ALLD",
                           "--w", "0.5", "--epsilon", "0.3", "--mode", "mc",
                           "--samples", "200", "--seed", "9")
    assert code == 0
    data = json.loads(out)
    assert data["alice"] == pytest.approx(10 / 3, abs=1e-9)
    assert data["stderr"] == [0.0, 0.0]
    assert data["samples"] == 200


def test_matrix_verdict(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--pair", "ctft-alld",
                           "--w", "0.8", "--epsilon", "0.2")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "FIRST"
    assert data["matrix"][0][0] == pytest.approx(15.0, abs=1e-9)
    back = json.loads(json.dumps(data))
    assert back["matrix"][0][0] == data["matrix"][0][0]


def test_period_json(capsys):
    code, out, _ = run_cli(capsys, "period", "--a", "ALLR3", "--b", "ALLR3",
                           "--epsilon", "0.3")
    assert code == 0
    assert out.strip() == '{"preperiod":0,"period":3}'


def test_period_aperiodic_json(capsys):
    code, out, _ = run_cli(capsys, "period", "--a", "ALL:1.0,pi/2,0",
                           "--b", "ALL:1.0,pi/2,0", "--epsilon", "0.3",
                           "--limit", "400")
    assert code == 0
    data = json.loads(out)
    assert data == {"aperiodic": True, "rounds_searched": 400}


def test_stochastic_emits_transition_matrix(capsys):
    code, out, _ = run_cli(capsys, "stochastic", "--actions", "D,D",
                           "--epsilon", "0.3", "--w", "0.5")
    assert code == 0
    data = json.loads(out)
    rows = data["transition"]
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)
    for row in rows:
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
    assert data["markov"]["alice"] == pytest.approx(10 / 3, abs=1e-12)


def test_scan_csv_to_stdout(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "scan", "--pair", "alld-allq",
                           "--w-steps", "4", "--eps-steps", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,epsilon,a11,a12,a21,a22,class"
    assert len(lines) == 1 + 4 * 8


def test_scan_writes_files_and_svg(capsys, tmp_path):
    out_csv = tmp_path / "scan.csv"
    out_svg = tmp_path / "scan.svg"
    code, _, _ = run_cli(capsys, "scan", "--pair", "ctft-alld",
                         "--w-steps", "32", "--eps-steps", "8",
                         "--out", str(out_csv), "--svg", str(out_svg))
    assert code == 0
    text = out_csv.read_text()
    assert text.startswith("w,epsilon,")
    svg = out_svg.read_text()
    assert svg.startswith("<?xml")
    assert "yellow" in svg and "blue" in svg
    assert "epsilon" in svg


def test_reproduce_figure5_boundaries(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--figure", "5",
                           "--w-steps", "8", "--eps-steps", "256")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    by_w = {}
    for line in lines:
        fields = line.split(",")
        by_w.setdefault(fields[0], []).append((float(fields[1]), fields[6]))
    columns = list(by_w.values())
    # class changes only along epsilon, at the two known thresholds
    classes0 = [c for _, c in columns[0]]
    for col in columns[1:]:
        assert [c for _, c in col] == classes0
    changes = [col_eps for k, (col_eps, _) in enumerate(columns[0][:-1])
               if columns[0][k][1] != columns[0][k + 1][1]]
    assert len(changes) == 2
    cell = columns[0][1][0] - columns[0][0][0]
    assert abs(changes[0] - 0.5 * math.asin(math.sqrt(0.2))) <= cell
    assert abs(changes[1] - 0.5 * math.asin(math.sqrt(0.4))) <= cell


def test_reproduce_figure_pair_map(capsys):
    from qrpd.cli import FIGURE_PAIRS
    assert FIGURE_PAIRS == {
        "1": "classical-tft-alld", "3a": "ctft-alld", "3b": "ctft-allh",
        "4a": "qtft-alld", "4b": "qtft-allh", "5": "allq-alld",
        "6a": "allh-alld", "6b": "allh-allc",
    }
    code, out, _ = run_cli(capsys, "reproduce", "--figure", "3a",
                           "--w-steps", "4", "--eps-steps", "3")
    assert code == 0
    assert out.startswith("w,epsilon,")


def test_byte_identical_reruns(capsys):
    argv = ("repeated", "--a", "ALLH", "--b", "ALLD", "--w", "0.4",
            "--epsilon", "0.2", "--mode", "mc", "--samples", "500",
            "--seed", "31")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_flag_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oneshot", "--actions"])
    assert exc.value.code == 2


def test_computation_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "matrix", "--pair", "allz-alld",
                           "--w", "0.5", "--epsilon", "0.1")
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "oneshot", "--actions", "H,H",
                           "--epsilon", "2.0")
    assert code == 1
    # closed-form pairs validate w and eps as the engine does, and an
    # oversized scan is refused before any array is built
    for argv in (("matrix", "--pair", "ctft-alld", "--w", "1.5", "--epsilon", "0.3"),
                 ("matrix", "--pair", "ctft-alld", "--w", "-0.5", "--epsilon", "0.3"),
                 ("matrix", "--pair", "ctft-allh", "--w", "0.5", "--epsilon", "-5"),
                 ("matrix", "--pair", "ctft-allh", "--w", "0.5", "--epsilon", "100"),
                 ("scan", "--pair", "ctft-alld", "--w-steps", "100000",
                  "--eps-steps", "100000")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: "), argv


def test_scan_with_overflowing_payoffs_exits_1(capsys):
    # at w = 0.99 the discounted sums of these finite payoffs overflow
    code, out, err = run_cli(capsys, "scan", "--pair", "ctft-alld",
                             "--w-steps", "2", "--eps-steps", "2",
                             "--payoffs", "1e307,0,9e306,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "non-finite" in err


def test_overflowing_single_cell_queries_exit_1(capsys):
    # the discounted values overflow to inf: strict JSON has no spelling
    # for it, and the closed form must not warn on the way to the error
    overflow = ("--w", "0.99", "--epsilon", "0.2",
                "--payoffs", "1e307,0,9e306,1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (("repeated", "--a", "CTFT", "--b", "ALLD", *overflow,
                      "--mode", "periodic"),
                     ("repeated", "--a", "ALLH", "--b", "ALLD", *overflow,
                      "--mode", "markov"),
                     ("matrix", "--pair", "ctft-alld", *overflow)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv



HOSTILE = ("nan", "inf", "-5", "1e308", "null")
# the same values as JSON spells them, for a slot of a --payoffs object
HOSTILE_JSON = ("NaN", "Infinity", "-5", "1e308", "null")
VALID = {"payoffs": "3,0,5,1", "w": "0.5", "epsilon": "0.3", "tol": "1e-12",
         "tie-tol": "1e-9"}

HOSTILE_PAYOFFS = st.one_of(
    st.sampled_from(HOSTILE),
    st.builds(lambda v, k: ",".join(v if i == k else d
                                    for i, d in enumerate("3051")),
              st.sampled_from(HOSTILE), st.integers(0, 3)),
    st.builds(lambda v, k: "{" + ",".join(
        f'"{name}":{v if i == k else d}'
        for i, (name, d) in enumerate(zip("RSTP", "3051"))) + "}",
        st.sampled_from(HOSTILE_JSON), st.integers(0, 3)),
)


@st.composite
def hostile_argv(draw):
    """One subcommand with one or two of its value flags made hostile and
    the rest valid."""
    command = draw(st.sampled_from(("repeated", "matrix", "scan")))
    if command == "repeated":
        argv = ["repeated", "--a", draw(st.sampled_from(("CTFT", "ALLH"))),
                "--b", "ALLD",
                "--mode", draw(st.sampled_from(("truncated", "periodic",
                                                "markov")))]
        names = ("payoffs", "w", "epsilon", "tol")
    elif command == "matrix":
        argv = ["matrix", "--pair", "ctft-alld"]
        names = ("payoffs", "w", "epsilon")
    else:
        argv = ["scan", "--pair", "ctft-alld", "--w-steps", "3",
                "--eps-steps", "4"]
        names = ("payoffs", "tie-tol")
    hostile = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2,
                            unique=True))
    for name in names:
        if name not in hostile:
            value = VALID[name]
        elif name == "payoffs":
            value = draw(HOSTILE_PAYOFFS)
        else:
            value = draw(st.sampled_from(HOSTILE))
        argv.append(f"--{name}={value}")
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=hostile_argv())
@example(argv=["repeated", "--a", "ALLH", "--b", "ALLD", "--w=0.5",
               "--epsilon=0.3", "--tol=inf"])
@example(argv=["matrix", "--pair", "ctft-alld", "--w=0.5", "--epsilon=0.3",
               '--payoffs={"R":null,"S":0,"T":5,"P":1}'])
@example(argv=["scan", "--pair", "ctft-alld", "--w-steps", "3",
               "--eps-steps", "4", "--tie-tol=-5"])
@example(argv=["scan", "--pair", "ctft-alld", "--w-steps", "3",
               "--eps-steps", "4", "--tie-tol=nan"])
@example(argv=["scan", "--pair", "ctft-alld", "--w-steps", "2",
               "--eps-steps", "2", "--payoffs", "1e307,0,9e306,1"])
def test_hostile_flag_values_keep_the_error_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert err.getvalue().startswith("error: "), argv

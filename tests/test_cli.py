"""Command-line driver: subcommands, output formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import llab
from conftest import deep_pair, shallow_stack
from llab import construction, rearrangement
from llab.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_PRECONDITION, main

UNIT_HALF = {
    "domain": "half_line",
    "segments": [{"from": 0.0, "to": 1.0, "coef": 1.0, "exp": 0.0}],
    "tail": {"coef": 1.0, "exp": 0.0},
}
UNIT_LINE = dict(UNIT_HALF, domain="line")
ABS_LINE = {
    "domain": "line",
    "segments": [{"from": 0.0, "to": 1.0, "coef": 1.0, "exp": 1.0}],
    "tail": {"coef": 1.0, "exp": 1.0},
}
SQRT_HALF = {
    "domain": "half_line",
    "segments": [{"from": 0.0, "to": 1.0, "coef": 1.0, "exp": 0.5}],
    "tail": {"coef": 1.0, "exp": 0.5},
}


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, obj in [("w1", UNIT_HALF), ("u1", UNIT_LINE), ("uabs", ABS_LINE)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def test_classes_json_output(configs, capsys):
    rc = main(["classes", "--w", configs["w1"], "--u", configs["uabs"], "--p", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["Delta2"]["holds"] and out["Bp"]["holds"] and out["BstarInf"]["holds"]
    assert out["AInf"]["holds"] and not out["A1"]["holds"]


def test_indices_csv_and_summary(configs, capsys, tmp_path):
    out_csv = tmp_path / "idx.csv"
    rc = main(
        [
            "indices",
            "--u",
            configs["u1"],
            "--w",
            configs["w1"],
            "--p",
            "2",
            "--out",
            str(out_csv),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["alpha"] == pytest.approx(0.5, abs=1e-2)
    assert summary["beta"] == pytest.approx(0.5, abs=1e-2)
    assert summary["maximal"] == "bounded"
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,wbar_u,underline_wu,direction,budget,seed"
    assert len(lines) == 21  # 10 upper + 10 lower samples


def test_extremal_reports_identities(configs, capsys, tmp_path):
    out_csv = tmp_path / "ext.csv"
    rc = main(
        [
            "extremal",
            "--interval",
            "0",
            "4",
            "--set",
            "1,2",
            "--lambdas",
            "8",
            "--out",
            str(out_csv),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["s"] == pytest.approx(4.0)
    assert summary["mean"] == pytest.approx(summary["mean_formula"], rel=1e-12)
    assert summary["max_identity_error"] < 1e-9
    header = out_csv.read_text().splitlines()[0]
    assert header == "lambda,k,lo,hi,measure_check"


def test_certify_closed_form(configs, capsys):
    rc = main(
        [
            "certify",
            "--u",
            configs["u1"],
            "--w",
            configs["w1"],
            "--interval",
            "0",
            str(math.e),
            "--set",
            "0,1",
            "--p",
            "2",
        ]
    )
    assert rc == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["lower_bound"] == pytest.approx((2.0 * math.e - 1.0) ** -0.5, abs=1e-3)


def test_opnorm_csv(configs, capsys, tmp_path):
    out_csv = tmp_path / "op.csv"
    rc = main(
        [
            "opnorm",
            "--operator",
            "maximal",
            "--u",
            configs["u1"],
            "--w",
            configs["w1"],
            "--family",
            "indicators",
            "--count",
            "3",
            "--p",
            "2",
            "--out",
            str(out_csv),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["operator"] == "maximal" and summary["max_ratio"] > 0.0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "test_id,input_norm,output_norm,ratio"
    assert len(lines) == 4


def test_verdict_combined(configs, capsys):
    rc = main(["verdict", "--u", configs["u1"], "--w", configs["w1"], "--p", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["maximal"]["verdict"] == "bounded"
    assert out["hilbert"]["verdict"] == "bounded"
    assert out["hilbert"]["routes_agree"]


def test_exit_code_config_error(configs, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": "half_line"}')
    assert main(["classes", "--w", str(bad)]) == EXIT_CONFIG
    missing = tmp_path / "missing.json"
    assert main(["classes", "--w", str(missing)]) == EXIT_CONFIG


def test_exit_code_precondition(configs, capsys):
    rc = main(["indices", "--u", configs["u1"], "--w", configs["w1"], "--p", "-1"])
    assert rc == EXIT_PRECONDITION


def test_same_seed_reruns_byte_identically(configs, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        main(["indices", "--u", configs["uabs"], "--w", configs["w1"], "--seed", "7", "--out", str(path)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_csv_seventeen_digit_format(configs, capsys):
    rc = main(["indices", "--u", configs["u1"], "--w", configs["w1"]])
    out = capsys.readouterr().out
    body = out.splitlines()
    # every float field round-trips exactly through its printed form
    row = body[1].split(",")
    assert float(row[1]) == float(format(float(row[1]), ".17g"))


def test_half_line_u_in_search_is_config_error(configs, capsys):
    # the search places intervals on both sides of 0, outside a half-line u
    rc = main(["indices", "--u", configs["w1"], "--w", configs["w1"]])
    assert rc == EXIT_CONFIG
    assert "half-line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "--interval", "4", "0", "--set", "1,2"],
        ["extremal", "--interval", "0", "4", "--set", "1"],
        ["extremal", "--interval", "0", "4", "--set", "[1]"],
        ["extremal", "--interval", "0", "inf", "--set", "1,2"],
    ],
)
def test_malformed_interval_or_set_is_config_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_malformed_family_is_config_error(configs, capsys):
    argv = ["opnorm", "--operator", "maximal", "--u", configs["u1"], "--w", configs["w1"]]
    assert main(argv + ["--family", "random:x"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_certify_empty_set_is_precondition(configs, capsys):
    argv = ["certify", "--u", configs["u1"], "--w", configs["w1"], "--interval", "0", "4"]
    assert main(argv + ["--set", ""]) == EXIT_PRECONDITION


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_weight_is_config_error(tmp_path, capsys, bad):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(UNIT_HALF).replace('"coef": 1.0', f'"coef": {bad}', 1))
    assert main(["classes", "--w", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("p", ["inf", "nan", "-inf"])
def test_non_finite_p_is_config_error(configs, capsys, p):
    # --p inf used to print a "bounded" maximal verdict, --p nan a NaN index
    rc = main(["indices", "--u", configs["uabs"], "--w", configs["w1"], f"--p={p}"])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "--p must be a finite number" in captured.err


@pytest.mark.parametrize("p", ["-1", "0"])
def test_classes_rejects_non_positive_p(configs, capsys, p):
    rc = main(["classes", "--w", configs["w1"], "--u", configs["uabs"], f"--p={p}"])
    assert rc == EXIT_PRECONDITION
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--interval", "0", "4", "--set", "1,2", "--out"],
        ["certify", "--interval", "0", "4", "--set", "1,2", "--budget", "2"],
        ["opnorm", "--operator", "maximal", "--budget", "2"],
        ["verdict", "--out"],
    ],
)
def test_options_that_nothing_reads_are_rejected(configs, capsys, argv):
    # certify --out used to print to stdout and write no file
    if argv[-1] == "--out":
        argv = argv + [str(configs["dir"] / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--u", configs["u1"], "--w", configs["w1"]])
    assert exc.value.code == EXIT_CONFIG
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_opnorm_non_finite_ratio_is_config_error(configs, capsys, ratio):
    argv = ["opnorm", "--operator", "maximal", "--u", configs["u1"], "--w", configs["w1"]]
    assert main(argv + ["--family", "extremals", f"--ratio={ratio}"]) == EXIT_CONFIG
    assert "--ratio must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_extremal_non_positive_lambdas_is_config_error(capsys, n):
    # used to print an empty table and exit 0
    assert main(["extremal", "--interval", "0", "4", "--set", "1,2", f"--lambdas={n}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "--lambdas must be positive" in captured.err


def test_classes_divergent_constant_is_standard_json(configs, capsys):
    # w = 1 is outside B_p for p <= 1: its tail integral diverges
    assert main(["classes", "--w", configs["w1"], "--p", "0.5"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert out["Bp"]["constant"] is None and out["Bp"]["diverges"] is True
    assert out["Bp"]["witness"] == {"p": 0.5, "r": "tail"}
    assert "diverges" not in out["Delta2"] and out["Delta2"]["constant"] == 2.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_classes_steep_weight_is_precondition(tmp_path, capsys):
    # W(2^-20) = 2^-4020/201 underflows to 0 for w = t^200; the scale ratios
    # divided by it and the CLI ended in a ZeroDivisionError traceback
    steep = {
        "domain": "half_line",
        "segments": [{"from": 0.0, "to": 1.0, "coef": 1.0, "exp": 200.0}],
        "tail": {"coef": 1.0, "exp": 200.0},
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(steep))
    assert main(["classes", "--w", str(path)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and repr(2.0**-20) in captured.err


@pytest.mark.parametrize("coef", [1e300, 1e296])
def test_classes_overflowing_ratio_is_precondition(tmp_path, capsys, coef):
    # W = c t^2/2 overflows from r = 2^14 on for c = 1e300, so W(2r)/W(r)
    # was inf/inf: np.argmax picked the NaN, and Delta2, Bp and BstarInf
    # printed "constant": null with exit 0, Bp and BstarInf "holds": true.
    # For c = 1e296 only W(2^21) overflows: Delta2 of c t "diverged"
    w = dict(UNIT_HALF, segments=[{"from": 0.0, "to": 1.0, "coef": coef, "exp": 1.0}], tail={"coef": coef, "exp": 1.0})
    path = tmp_path / "w.json"
    path.write_text(json.dumps(w))
    assert main(["classes", "--w", str(path), "--p", "3"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "Delta2 ratio overflows" in captured.err


def test_indices_overflowing_u_mass_is_precondition(tmp_path, capsys):
    # u's masses overflow on the search's coarse grid: the search went on,
    # wrote 21 CSV lines and five numpy overflow warnings, and only the
    # summary exited 3, as "result is not finite"
    u, w = tmp_path / "u.json", tmp_path / "w.json"
    u.write_text(_HUGE_TAIL)
    w.write_text(_UNIT_HALF_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["indices", "--u", str(u), "--w", str(w)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "mass overflows" in captured.err


def test_extremal_and_certify_on_a_deep_set(configs, capsys, tmp_path):
    # 300 components whose level intervals meet a pair at a time: 300 layers,
    # which no code path may meet with one recursion level each
    I, S = deep_pair(300, 1.01)
    where = ["--interval", "0", repr(I.hi), "--set", ";".join(f"{J.lo!r},{J.hi!r}" for J in S.parts)]
    with shallow_stack():
        assert main(["extremal", *where, "--lambdas", "8", "--out", str(tmp_path / "ext.csv")]) == 0
        assert main(["certify", "--u", configs["u1"], "--w", configs["w1"], *where, "--p", "2"]) == 0
    extremal, certify = capsys.readouterr().out.splitlines()[-2:]
    assert json.loads(extremal)["max_identity_error"] < 1e-9
    assert json.loads(certify)["lower_bound"] > 0.0


def _canonical_argv(configs):
    uw = ["--u", configs["uabs"], "--w", configs["w1"]]
    return {
        "classes": ["classes", "--w", configs["w1"], "--u", configs["uabs"], "--p", "2"],
        "indices": ["indices", *uw, "--p", "2"],
        "extremal": ["extremal", "--interval", "0", "8", "--set", "1,2;4,5", "--lambdas", "4"],
        "certify": ["certify", *uw, "--interval", "0", repr(math.e), "--set", "0,1", "--p", "2"],
        "opnorm": ["opnorm", "--operator", "maximal", *uw, "--count", "3", "--p", "2"],
        "verdict": ["verdict", *uw, "--p", "2"],
    }


@pytest.mark.parametrize("command", ["classes", "indices", "extremal", "certify", "opnorm", "verdict"])
def test_every_subcommand_prints_standard_json(configs, capsys, command):
    assert main(_canonical_argv(configs)[command]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert isinstance(json.loads(last, parse_constant=_reject_constant), dict)


def test_non_finite_result_is_precondition(configs, capsys, monkeypatch):
    class Broken:
        def as_dict(self):
            return {"lower_bound": math.nan}

    monkeypatch.setattr(construction, "weak_type_lower_bound", lambda *args: Broken())
    assert main(_canonical_argv(configs)["certify"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


def test_certify_reports_quadrature_error(configs, capsys):
    assert main(_canonical_argv(configs)["certify"]) == 0
    cert = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert 0.0 < cert["quadrature_error"] < 1e-12 * cert["test_norm"] ** 2
    upper = cert["test_norm"] ** 2 + cert["quadrature_error"]
    bound = math.sqrt(cert["superset_mass"]) * cert["threshold"] / math.sqrt(upper)
    assert cert["lower_bound"] == pytest.approx(bound, rel=1e-15)
    assert cert["lower_bound"] < math.sqrt(cert["superset_mass"]) * cert["threshold"] / cert["test_norm"]


def test_internal_check_is_exit_4(configs, capsys, monkeypatch):
    # the layer-cake cross-check of DecreasingStep.norm used to exit 2, as if
    # the user's configuration were at fault
    monkeypatch.setattr(rearrangement, "_CROSSCHECK_RTOL", -1.0)
    assert main(_canonical_argv(configs)["opnorm"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "internal check failed" in captured.err and "cross-check" in captured.err


def test_import_leaves_scipy_out():
    src = str(Path(llab.__file__).resolve().parents[1])
    code = "import sys, llab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--p", "1e300"],
        ["certify", "--interval", "0", "1e308", "--set", "0,1", "--p", "2"],
    ],
)
def test_overflow_is_precondition(configs, capsys, argv):
    # a**e1 and r**e1 of the weight kernels overflowed into an OverflowError
    # traceback (exit 1)
    w = configs["dir"] / "wsqrt.json"
    w.write_text(json.dumps(SQRT_HALF))
    assert main(argv + ["--u", configs["uabs"], "--w", str(w)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "overflow" in captured.err


_EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1e308, -1e308, math.inf, -math.inf, math.nan])
_WILD = st.sampled_from([False, False, False, True])  # one draw in four


def _numbers(lo, hi, wild):
    """Floats in [lo, hi]; when wild, also huge, tiny or non-finite ones."""
    return st.one_of(st.floats(lo, hi), _EXTREMES) if wild else st.floats(lo, hi)


@st.composite
def _weight_json(draw, domain):
    """A weight config as text: 1-3 segments abutting from 0 (now and then
    none, a configuration error), now and then an unknown domain."""
    wild = draw(_WILD)
    coef, exp = _numbers(0.1, 4.0, wild), _numbers(-0.9, 3.0, wild)
    cuts = sorted(set(draw(st.lists(st.floats(0.1, 8.0), min_size=1, max_size=3))))
    bounds = [0.0, *cuts] if draw(st.sampled_from([True] * 7 + [False])) else []
    obj = {
        "domain": draw(st.sampled_from([domain] * 5 + ["circle"])),
        "segments": [{"from": a, "to": b, "coef": draw(coef), "exp": draw(exp)} for a, b in zip(bounds, bounds[1:])],
        "tail": {"coef": draw(coef), "exp": draw(exp)},
    }
    return json.dumps(obj)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["classes", "extremal", "certify"]))
    argv = [command]
    if command != "extremal":
        argv += ["--u", draw(_weight_json("line")), "--w", draw(_weight_json("half_line"))]
    if command != "classes":
        scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e-300, 1e-200, 1e200, 1e300]))
        wild = draw(_WILD)
        lo = scale * draw(_numbers(-8.0, 8.0, wild))
        hi = lo + scale * draw(_numbers(0.1, 16.0, wild))
        argv += ["--interval", repr(lo), repr(hi)]
        fracs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6)))
        cuts = [lo + t * (hi - lo) for t in fracs]
        if draw(st.sampled_from([False] * 4 + [True])):
            cuts = draw(st.lists(_numbers(-8.0, 8.0, wild), max_size=6))
        argv.append("--set=" + ";".join(f"{a!r},{b!r}" for a, b in zip(cuts[::2], cuts[1::2])))
    if command == "extremal":
        argv += ["--lambdas", "4"]
    elif draw(st.booleans()):
        argv.append(f"--p={draw(_numbers(0.2, 6.0, draw(_WILD)))!r}")
    return argv


_UNIT_LINE_TEXT, _UNIT_HALF_TEXT, _ABS_LINE_TEXT = (json.dumps(obj) for obj in (UNIT_LINE, UNIT_HALF, ABS_LINE))
_DEAD_ON_S = json.dumps(
    dict(UNIT_LINE, segments=[*UNIT_LINE["segments"], {"from": 1.0, "to": 2.0, "coef": 1.0, "exp": -1e308}])
)
_HUGE_TAIL, _TINY_TAIL = (json.dumps(dict(UNIT_LINE, tail={"coef": c, "exp": 0.0})) for c in (1e308, 5e-324))
_STEEP_COEF = json.dumps(
    dict(UNIT_HALF, segments=[{"from": 0.0, "to": 1.0, "coef": 1e300, "exp": 1.0}], tail={"coef": 1e300, "exp": 1.0})
)
_TINY_HEAD_W = json.dumps(dict(UNIT_HALF, segments=[{"from": 0.0, "to": 5.0, "coef": 5e-324, "exp": 0.0}]))
_TINY_HEAD_U = json.dumps(dict(UNIT_LINE, segments=[{"from": 0.0, "to": 1.0, "coef": 5e-324, "exp": 0.0}]))
_STEEP_TAIL_U = json.dumps(dict(UNIT_LINE, tail={"coef": 1e300, "exp": 2.5}))


@given(_cli_argv())
# each of these ended in a traceback: u's mass on S, the test norm's p-th
# power, |S|/|I| and a product of two lengths underflowing to 0 gave a
# ZeroDivisionError; u's masses or the A1 ratios overflowing gave numpy
# RuntimeWarnings
@example(["certify", "--u", _DEAD_ON_S, "--w", _UNIT_HALF_TEXT, "--interval", "0.0", "8.0", "--set=1.0,2.0"])
@example(["certify", "--u", _UNIT_LINE_TEXT, "--w", _UNIT_HALF_TEXT, "--interval", "0.0", "1.0", "--set=0.0,0.5", "--p=1e+300"])
@example(["extremal", "--interval", "0.0", "8.0", "--set=0.0,5e-324", "--lambdas", "4"])
@example(["extremal", "--interval", "0.0", "4e-200", "--set=1e-200,2e-200;2.5e-200,3e-200", "--lambdas", "4"])
@example(["classes", "--u", _HUGE_TAIL, "--w", _UNIT_HALF_TEXT])
@example(["classes", "--u", _TINY_TAIL, "--w", _UNIT_HALF_TEXT])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_cleanly_on_any_input(argv):
    _exits_cleanly(argv)


def _exits_cleanly(argv):
    """Run main on argv, with the weight configs it holds as text written to
    files first: exit 0, 2 or 3, and on 0 a last line of standard JSON."""
    argv = list(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for flag in ("--u", "--w"):
            if flag in argv:
                k = argv.index(flag) + 1
                path = Path(tmp) / f"{flag[2:]}.json"
                path.write_text(argv[k])
                argv[k] = str(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code
    assert rc in (0, EXIT_CONFIG, EXIT_PRECONDITION), err.getvalue()
    if rc == 0:
        last = out.getvalue().splitlines()[-1]
        assert isinstance(json.loads(last, parse_constant=_reject_constant), dict)


@st.composite
def _search_argv(draw):
    """indices, verdict or opnorm on fuzzed weights and seeds; a budget for
    the searches, an operator, family, count, ratio and target for opnorm."""
    command = draw(st.sampled_from(["indices", "verdict", "opnorm"]))
    argv = [command, "--u", draw(_weight_json("line")), "--w", draw(_weight_json("half_line"))]
    argv.append(f"--seed={draw(st.integers(-3, 2**40))}")
    if command == "opnorm":
        argv += ["--operator", draw(st.sampled_from(["maximal", "hilbert", "hstar", "q"]))]
        argv += ["--family", draw(st.sampled_from(["indicators", "random:2", "random:x", "extremals", "steps"]))]
        argv += [f"--count={draw(st.integers(-1, 3))}", f"--ratio={draw(_numbers(0.5, 8.0, draw(_WILD)))!r}"]
        argv += ["--target", draw(st.sampled_from(["strong", "weak"]))]
    else:
        argv.append(f"--budget={draw(st.sampled_from([1, 1, 1, 0]))}")
    if draw(st.booleans()):
        argv.append(f"--p={draw(_numbers(0.2, 6.0, draw(_WILD)))!r}")
    return argv


@given(_search_argv())
# the overflow repros: u's masses overflowing on the coarse grid, W
# overflowing on it, and W(2r)/W(r) = inf/inf (a NaN verdict, exit 0)
@example(["indices", "--u", _HUGE_TAIL, "--w", _UNIT_HALF_TEXT])
@example(["verdict", "--u", _ABS_LINE_TEXT, "--w", _STEEP_COEF])
@example(["classes", "--w", _STEEP_COEF, "--p=3.0"])
# each of these ended in a traceback, a RuntimeWarning or exit 4: W
# underflowing to 0 at a u-mass of the coarse grid (0/0) and W(u(I))/W(u(S))
# overflowing there, 1/p-th powers for p = 5e-324 (log of 0), a subnormal
# norm^p failing the layer-cake cross-check, an input norm of 0, a u-mass of
# 1e-323 absorbed next to 1 and an overflowed one (the rearrangement's
# breakpoints not increasing), a negative seed for numpy's generator, and
# an extremal --ratio of 0 or 1e308 (a ValueError from Interval; 4 s is inf
# for 1e308, and the first summand's shift 0 * inf is NaN)
@example(["indices", "--u", _UNIT_LINE_TEXT, "--w", _TINY_HEAD_W])
@example(["indices", "--u", _TINY_HEAD_U, "--w", _UNIT_HALF_TEXT])
@example(["indices", "--u", _UNIT_LINE_TEXT, "--w", _UNIT_HALF_TEXT, "--p=5e-324"])
@example(["opnorm", "--u", _UNIT_LINE_TEXT, "--w", _TINY_HEAD_W, "--operator", "maximal", "--family", "random:2"])
@example(["opnorm", "--u", _UNIT_LINE_TEXT, "--w", _TINY_HEAD_W, "--operator", "maximal", "--count=1"])
@example(["opnorm", "--u", _TINY_HEAD_U, "--w", _UNIT_HALF_TEXT, "--operator", "maximal", "--family", "random:2"])
@example(["opnorm", "--u", _STEEP_TAIL_U, "--w", _UNIT_HALF_TEXT, "--operator", "hilbert", "--family", "extremals", "--ratio=4.855"])
@example(["opnorm", "--u", _UNIT_LINE_TEXT, "--w", _UNIT_HALF_TEXT, "--operator", "hstar", "--seed=-2"])
@example(["opnorm", "--u", _UNIT_LINE_TEXT, "--w", _UNIT_HALF_TEXT, "--operator", "hstar", "--family", "extremals", "--ratio=0.0"])
@example(["opnorm", "--u", _UNIT_LINE_TEXT, "--w", _UNIT_HALF_TEXT, "--operator", "hstar", "--family", "extremals", "--ratio=1e308"])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_search_commands_exit_cleanly_on_any_input(argv):
    _exits_cleanly(argv)

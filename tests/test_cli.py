"""End-to-end command-line runs with exit-code and determinism checks."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dulackit
from dulackit.cli import main
from dulackit.family import PolynomialFamily, analyze_family

LINEAR_FAMILY = {
    "mu": 1,
    "terms": [{"x": 2, "eps": 0, "c": "1"}, {"x": 1, "eps": 1, "c": "-1"}],
}

# x((x - eps)^2 + 1e-6 eps^2): h2 cannot be certified on the grid
INCONCLUSIVE_FAMILY = {
    "mu": 2,
    "terms": [
        {"x": 3, "eps": 0, "c": "1"},
        {"x": 2, "eps": 1, "c": "-2"},
        {"x": 1, "eps": 2, "c": "1000001/1000000"},
    ],
}

COUNTEREXAMPLE_FAMILY = {
    "mu": 2,
    "terms": [
        {"x": 3, "eps": 0, "c": "1"},
        {"x": 2, "eps": 1, "c": "-2"},
        {"x": 1, "eps": 2, "c": "1"},
        {"x": 1, "eps": 4, "c": "1"},
    ],
}


# x(x^2 + 1.6e-287 eps) + eps^2: the characteristic root -1/1.6e-287 of the
# Newton-polygon edge through (1, 1) and (0, 2) overflows when squared
OVERFLOW_FAMILY = {
    "mu": 2,
    "terms": [
        {"x": 3, "eps": 0, "c": "1"},
        {"x": 1, "eps": 1, "c": 1.622687966041273e-287},
        {"x": 0, "eps": 2, "c": 1.0},
    ],
}


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["orbit", "mu3", "mixed"])
@pytest.mark.parametrize("command, report", [("check", "check.json"), ("expand", "expansion.json")])
def test_golden_reports(tmp_path, capsys, name, command, report):
    """Reports stay byte-identical to the recorded ones: the README orbit
    spec, an exact mu = 3 family, and a family with rational and float
    coefficients whose branch has both."""
    code = main([command, str(GOLDEN / f"{name}.spec.json"), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / report).read_bytes() == (GOLDEN / f"{name}.{report}").read_bytes()


CHECK_CORPUS = json.loads((GOLDEN / "check_corpus.json").read_text())


@pytest.mark.parametrize("entry", CHECK_CORPUS, ids=[e["name"] for e in CHECK_CORPUS])
def test_check_corpus(tmp_path, capsys, entry):
    """`check` on the seeded corpus of tests/golden/make_check_corpus.py:
    the exit code as recorded, and check.json byte for byte, or the stderr
    of a failing run."""
    spec = write_spec(tmp_path, "spec.json", entry["spec"])
    code = main(["check", spec, "--out", str(tmp_path)])
    assert code == entry["exit"]
    if code == 0:
        assert (tmp_path / "check.json").read_text() == entry["check_json"]
    else:
        assert capsys.readouterr().err == entry["stderr"]


# verify's floats against the recorded ones.  Oracle values move by rounding
# across BLAS builds (numpy's dot products inside scipy's Radau and DOP853),
# and the remainders h = (value - S_ell) / s^ell and theta^r h divide that
# change by value - S_ell, as small as 2e-10 of the value here.  Measured on
# these specs over OpenBLAS core types and one-ulp changes of eps, lambda, x0
# and y0: values up to 5.7e-13 relative, remainders and their fits up to
# 2.1e-6.
VALUE_RTOL = 1e-11
REMAINDER_RTOL = 1e-4


def _remainder_field(name):
    return name in ("h", "sup_final", "fitted_slopes") or name.startswith("theta")


def _assert_close(got, want, rtol, where):
    if isinstance(want, float) and isinstance(got, float):
        gap = abs(got - want)
        assert gap <= rtol * max(abs(got), abs(want)) or (math.isnan(got) and math.isnan(want)), where
    else:
        assert got == want and type(got) is type(want), where


def _assert_report_close(got, want, rtol, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            sub = REMAINDER_RTOL if _remainder_field(key) else rtol
            _assert_report_close(got[key], want[key], sub, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_report_close(g, w, rtol, f"{where}[{i}]")
    else:
        _assert_close(got, want, rtol, where)


@pytest.mark.parametrize("name", ["orbit", "dulac_map", "dulac_time", "dulac_time_rho2"])
def test_golden_verify_reports(tmp_path, capsys, name):
    """verify on the CI specs of each kind and a rho = 2 dulac_time spec
    (x^3 - x eps at eps = 0.01): verdicts, keys, lengths and labels as
    recorded, floats within VALUE_RTOL, remainders within REMAINDER_RTOL."""
    code = main(["verify", str(GOLDEN / f"{name}.spec.json"), "--out", str(tmp_path)])
    want = json.loads((GOLDEN / f"{name}.verify.json").read_text())
    got = json.loads((tmp_path / "verify.json").read_text())
    assert code == 0 and got["passed"] is want["passed"] is True
    assert got["decay_ok"] == want["decay_ok"]
    _assert_report_close(got, want, VALUE_RTOL, name)
    rows = (tmp_path / "flatness.csv").read_text().splitlines()
    want_rows = (GOLDEN / f"{name}.flatness.csv").read_text().splitlines()
    assert len(rows) == len(want_rows) and rows[0] == want_rows[0]
    header = want_rows[0].split(",")
    for i, (row, want_row) in enumerate(zip(rows[1:], want_rows[1:])):
        cells, want_cells = row.split(","), want_row.split(",")
        assert len(cells) == len(header) and cells[0] == want_cells[0]
        for field, g, w in zip(header[1:], cells[1:], want_cells[1:]):
            rtol = REMAINDER_RTOL if _remainder_field(field) else VALUE_RTOL
            _assert_close(float(g), float(w), rtol, f"{name} row {i} {field}")


@pytest.mark.parametrize("name", ["loud_f1", "loud_f09"])
def test_golden_loud_reports(tmp_path, capsys, name):
    """loud's reports stay byte-identical to the recorded ones, which guards
    the integrator's bits: the periods come from Python float arithmetic
    alone (the stepper, the right-hand sides, math.exp and math.log), and
    the section height from numpy's roots of a quadratic.  F = 1 and
    F = 0.9; between them the s grids take every chart ending of
    tests/test_rk45.py::test_compared_points_cover_every_chart_ending."""
    code = main(["loud", str(GOLDEN / f"{name}.spec.json"), "--out", str(tmp_path)])
    assert code == 0
    for report in ("loud.json", "period_samples.csv"):
        assert (tmp_path / report).read_bytes() == (GOLDEN / f"{name}.{report}").read_bytes()


def scipy_modules_after(script_lines) -> str:
    """Run the script in a fresh process and return the sorted list of the
    scipy modules loaded when it ends, as printed."""
    script = "\n".join([
        "import sys",
        *script_lines,
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = str(Path(dulackit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_check_and_expand_without_scipy(tmp_path):
    """check and expand solve nothing, so a process that runs them never
    imports scipy, and they still write the recorded reports."""
    spec = str(GOLDEN / "orbit.spec.json")
    assert scipy_modules_after([
        "from dulackit.cli import main",
        f"assert main(['check', {spec!r}, '--out', {str(tmp_path)!r}]) == 0",
        f"assert main(['expand', {spec!r}, '--out', {str(tmp_path)!r}]) == 0",
    ]) == "[]"
    for report in ("check.json", "expansion.json"):
        assert (tmp_path / report).read_bytes() == (GOLDEN / f"orbit.{report}").read_bytes()


def test_loud_without_scipy(tmp_path):
    """The Loud coefficients of Theorem B and the period sweep of Theorem C
    run in Python floats (rk45 is scipy-free), so a process that computes
    them and runs loud never imports scipy, and loud still writes the
    recorded reports."""
    spec = str(GOLDEN / "loud_f1.spec.json")
    assert scipy_modules_after([
        "from dulackit.cli import main",
        "from dulackit.expansion import dulac_time_coefficients",
        "from dulackit.loud import LoudParams, node_time_spec",
        "dulac_time_coefficients(node_time_spec(LoudParams(-0.75, 1)), 3)",
        f"assert main(['loud', {spec!r}, '--out', {str(tmp_path)!r}]) == 0",
    ]) == "[]"
    for report in ("loud.json", "period_samples.csv"):
        assert (tmp_path / report).read_bytes() == (GOLDEN / f"loud_f1.{report}").read_bytes()


def test_help_text():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


class TestCheck:
    def test_counterexample_verdicts(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "s.json", {"family": COUNTEREXAMPLE_FAMILY, "sign": 1})
        code = main(["check", spec, "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads((tmp_path / "o" / "check.json").read_text())
        nd = report["newton"]
        assert nd["h1"]["holds"] and not nd["h2"]["holds"]
        assert abs(nd["h2"]["witness"] - math.pi / 4) < 1e-12

    def test_inconclusive_h2_is_a_failed_verdict(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "s.json", {"family": INCONCLUSIVE_FAMILY, "sign": 1})
        assert main(["check", spec, "--out", str(tmp_path / "o")]) == 0
        nd = json.loads((tmp_path / "o" / "check.json").read_text())["newton"]
        assert json.loads(capsys.readouterr().out) == nd
        _, want = analyze_family(PolynomialFamily.from_json(INCONCLUSIVE_FAMILY), +1)
        assert nd["h0"]["holds"] and nd["h1"]["holds"]
        assert nd["h2"] == want.h2.to_json()
        assert nd["h2"]["detail"].startswith("inconclusive:")

    def test_linear_all_pass(self, tmp_path):
        spec = write_spec(tmp_path, "s.json", {"family": LINEAR_FAMILY, "sign": 1})
        assert main(["check", spec, "--out", str(tmp_path / "o")]) == 0
        nd = json.loads((tmp_path / "o" / "check.json").read_text())["newton"]
        assert nd["h0"]["holds"] and nd["h1"]["holds"] and nd["h2"]["holds"]

    @pytest.mark.parametrize("c", [10**15 + 37, 10**20 + 39])
    def test_wide_constant_coefficient(self, tmp_path, capsys, c):
        # x^2 - c eps^2: no rational characteristic root, and the s^0 column
        # of Q cancels up to float rounding of two terms near c
        family = {"mu": 1, "terms": [{"x": 2, "eps": 0, "c": "1"}, {"x": 0, "eps": 2, "c": str(-c)}]}
        spec = write_spec(tmp_path, "s.json", {"family": family})
        assert main(["check", spec, "--out", str(tmp_path / "o")]) == 0
        assert not capsys.readouterr().err
        nd = json.loads((tmp_path / "o" / "check.json").read_text())["newton"]
        assert float(nd["chi"]) == pytest.approx(2 * math.sqrt(c), rel=1e-12)

    def test_malformed_json_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["check", str(bad)]) == 3

    def test_degenerate_exits_2(self, tmp_path):
        # x(x - eps)^2: the biggest root is a double root
        fam = {
            "mu": 2,
            "terms": [
                {"x": 3, "eps": 0, "c": "1"},
                {"x": 2, "eps": 1, "c": "-2"},
                {"x": 1, "eps": 2, "c": "1"},
            ],
        }
        spec = write_spec(tmp_path, "s.json", {"family": fam, "sign": 1})
        assert main(["check", spec, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("tail, code", [([{"x": 0, "eps": 5, "c": "-1"}], 0), ([], 2)])
    def test_double_irrational_root(self, tmp_path, tail, code):
        # (x^2 - 2 eps^2)^2 - eps^5: a rho = 2 branch from the double root
        # sqrt(2) of the first edge; without the eps^5 term the biggest root
        # stays double (DegenerateQ)
        terms = [{"x": 4, "eps": 0, "c": "1"}, {"x": 2, "eps": 2, "c": "-4"},
                 {"x": 0, "eps": 4, "c": "4"}, *tail]
        spec = write_spec(tmp_path, "s.json", {"family": {"mu": 3, "terms": terms}})
        assert main(["check", spec, "--out", str(tmp_path / "o")]) == code
        if code == 0:
            branch = json.loads((tmp_path / "o" / "check.json").read_text())["branch"]
            assert branch["rho"] == 2 and not branch["exact"]

    def test_float_overflow_exits_1(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "s.json", {"family": OVERFLOW_FAMILY})
        assert main(["check", spec, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "BranchNotFound: float overflow in branch extraction, sign +1\n"


class TestExpand:
    def euler_spec(self):
        return {
            "family": LINEAR_FAMILY,
            "sign": 1,
            "V": ["1"],
            "U": ["0", "-1"],
            "lambda": 1.0,
            "eps": 0.0,
            "ell": 6,
        }

    def test_euler_factorials(self, tmp_path):
        spec = write_spec(tmp_path, "s.json", self.euler_spec())
        assert main(["expand", spec, "--out", str(tmp_path / "o")]) == 0
        data = json.loads((tmp_path / "o" / "expansion.json").read_text())
        got = [float(c) for c in data["coeffs"]]
        want = [0.0] + [-float(math.factorial(j - 1)) for j in range(1, 7)]
        assert got == want

    def test_zero_u(self, tmp_path):
        obj = self.euler_spec()
        obj["U"] = ["0"]
        spec = write_spec(tmp_path, "s.json", obj)
        assert main(["expand", spec, "--out", str(tmp_path / "o")]) == 0
        data = json.loads((tmp_path / "o" / "expansion.json").read_text())
        assert all(float(c) == 0 for c in data["coeffs"])

    def test_counterexample_refused(self, tmp_path):
        obj = self.euler_spec()
        obj["family"] = COUNTEREXAMPLE_FAMILY
        spec = write_spec(tmp_path, "s.json", obj)
        assert main(["expand", spec, "--out", str(tmp_path / "o")]) == 4


class TestVerify:
    def base(self):
        return {
            "kind": "orbit",
            "family": LINEAR_FAMILY,
            "sign": 1,
            "V": ["1"],
            "U": ["0", "-1"],
            "lambda": 1.0,
            "eps": 0.0,
            "ell": 2,
            "k": 1,
            "s_grid": {"min": 1e-3, "max": 1e-1, "n": 21},
            "flatness_tol": 0.1,
        }

    def test_euler_passes(self, tmp_path):
        spec = write_spec(tmp_path, "s.json", self.base())
        assert main(["verify", spec, "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert summary["passed"]
        assert (tmp_path / "o" / "flatness.csv").exists()

    def test_sabotage_fails(self, tmp_path):
        obj = self.base()
        obj["debug_coefficient_overrides"] = {"1": 0.5}
        spec = write_spec(tmp_path, "s.json", obj)
        assert main(["verify", spec, "--out", str(tmp_path / "o")]) == 1

    def dulac_map(self):
        return {
            "kind": "dulac_map",
            "family": LINEAR_FAMILY,
            "sign": 1,
            "V": ["1"],
            "lambda": 2.0,
            "eps": 0.0,
            "ell": 3,
            "k": 1,
            "s_grid": {"min": 1e-3, "max": 1e-1, "n": 21},
            "flatness_tol": 1e-2,
        }

    def dulac_time(self):
        return {
            "kind": "dulac_time",
            "family": LINEAR_FAMILY,
            "sign": 1,
            "V": ["1"],
            "eps": 0.0,
            "modes": [["1"], ["0", "0.5"]],
            "ell": 1,
            "k": 1,
            "s_grid": {"min": 1e-3, "max": 1e-1, "n": 21},
            "flatness_tol": 0.1,
        }

    def test_dulac_map_kind(self, tmp_path):
        spec = write_spec(tmp_path, "s.json", self.dulac_map())
        assert main(["verify", spec, "--out", str(tmp_path / "o")]) == 0

    def test_dulac_time_kind(self, tmp_path):
        spec = write_spec(tmp_path, "s.json", self.dulac_time())
        assert main(["verify", spec, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("kind", ["orbit", "dulac_map", "dulac_time"])
    def test_deterministic_reports(self, tmp_path, kind):
        obj = {"orbit": self.base, "dulac_map": self.dulac_map, "dulac_time": self.dulac_time}[kind]()
        spec = write_spec(tmp_path, "s.json", obj)
        assert main(["verify", spec, "--out", str(tmp_path / "o1")]) == 0
        assert main(["verify", spec, "--out", str(tmp_path / "o2")]) == 0
        for name in ("verify.json", "flatness.csv"):
            b1 = (tmp_path / "o1" / name).read_bytes()
            b2 = (tmp_path / "o2" / name).read_bytes()
            assert b1 == b2


class TestLoud:
    def test_default_grid_report(self, tmp_path):
        obj = {"kind": "loud", "loud": {"D_grid": [-0.75, -0.5, -0.25], "F": 1.0}}
        spec = write_spec(tmp_path, "s.json", obj)
        assert main(["loud", spec, "--out", str(tmp_path / "o")]) == 0
        data = json.loads((tmp_path / "o" / "loud.json").read_text())
        rows = {row["D"]: row for row in data["regularity"]["rows"]}
        assert rows[-0.5]["near_zero"]
        assert rows[-0.75]["coherent"] and rows[-0.25]["coherent"]
        for entry in data["c1_limit_table"]:
            assert abs(entry["c1_hat"] - entry["limit"]) <= 1e-2
        assert data["gamma_self_test"]["gamma(5)"] == pytest.approx(24.0, rel=1e-12)
        assert (tmp_path / "o" / "period_samples.csv").exists()

    @pytest.mark.parametrize("D_grid", [[-0.75, -0.25], [-0.75]], ids=["two-sided", "one-value"])
    def test_global_sign_error_fails(self, tmp_path, capsys, monkeypatch, D_grid):
        """The paper's rule fixes the sign of dP/ds, so negating every period
        is an error on any grid, one D value included."""
        from dulackit import loud

        spec = write_spec(tmp_path, "s.json", {"loud": {"D_grid": D_grid}})
        period = loud.period_numeric
        monkeypatch.setattr(loud, "period_numeric", lambda p, s: -period(p, s))
        assert main(["loud", spec, "--out", str(tmp_path / "o")]) == 1
        data = json.loads((tmp_path / "o" / "loud.json").read_text())
        assert data["regularity"]["orientation"] == 1
        assert [row["coherent"] for row in data["regularity"]["rows"]] == [False] * len(D_grid)
        err = capsys.readouterr().err
        assert err.startswith("regularity check failed: D = -0.75 (sign 1, coherent false, ")
        assert err.count("\n") == 1 and err.count("D = ") == len(D_grid)

    def test_one_value_grid_passes(self, tmp_path):
        spec = write_spec(tmp_path, "s.json", {"loud": {"D_grid": [-0.75]}})
        assert main(["loud", spec, "--out", str(tmp_path / "o")]) == 0

    def test_failed_row_is_named(self, tmp_path, capsys):
        """Alone on its grid, the D = -1/2 row has no sign from the paper's
        rule (2D + 1 = 0) and is not near zero against itself, so the check
        fails: exit 1 with one stderr line naming the row, and the reports
        written as on a pass."""
        spec = write_spec(tmp_path, "s.json", {"loud": {"D_grid": [-0.5]}})
        assert main(["loud", spec, "--out", str(tmp_path / "o")]) == 1
        out, err = capsys.readouterr()
        assert err == "regularity check failed: D = -0.5 (sign 1, coherent null, near_zero false)\n"
        data = json.loads((tmp_path / "o" / "loud.json").read_text())
        assert json.loads(out) == data["regularity"]
        (row,) = data["regularity"]["rows"]
        assert (row["D"], row["sign"], row["coherent"], row["near_zero"]) == (-0.5, 1, None, False)

    def test_step_size_collapse_exits_1(self, tmp_path, capsys):
        """Near D = -1 at F = 3/2 the node entry at s = 0.99 lies past the
        log-w chart's z switch, where the period integration used to collapse
        its step size: exit 1 with a one-line message naming the point."""
        obj = {"loud": {"D_grid": [-0.999], "F": 1.5, "s_grid": [0.5, 0.99]}}
        spec = write_spec(tmp_path, "s.json", obj)
        assert main(["loud", spec, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "OutsideAtlas: s = 0.99 is outside the chart atlas at D = -0.999, F = 1.5: "
            "the node entry has z = 18.2, at or past the switch z = 6\n"
        )

    @pytest.mark.parametrize(
        "loud, s, F, z",
        [
            # F = 1e19 used to hang in the entry arc, which now also stops at
            # the integrator's evaluation budget (tests/test_rk45.py)
            ({"D_grid": [-0.25], "F": 1e19, "s_grid": [0.001, 0.002]}, "0.001", "1e+19", "6.32e+09"),
            # the entry point's plane coordinates overflow; this exited 3
            ({"D_grid": [-0.25], "s_grid": [0.001, 1e308]}, "1e+308", "1", "2.27e+154"),
        ],
        ids=["huge-F", "huge-s"],
    )
    def test_entry_past_the_atlas_exits_1(self, tmp_path, capsys, loud, s, F, z):
        """The atlas's range is checked before the entry arc is integrated."""
        spec = write_spec(tmp_path, "s.json", {"loud": loud})
        assert main(["loud", spec, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"OutsideAtlas: s = {s} is outside the chart atlas at D = -0.25, F = {F}: "
            f"the node entry has z = {z}, at or past the switch z = 6\n"
        )


class TestBadSpecs:
    """Inputs that used to crash or pass vacuously exit 3 with a message."""

    def run(self, tmp_path, capsys, command, obj):
        spec = write_spec(tmp_path, "s.json", obj)
        code = main([command, spec, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err and "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["expand", "verify"])
    def test_zero_denominator(self, tmp_path, capsys, command):
        obj = TestVerify().base()
        obj["U"] = ["0", "1/0"]
        assert "zero denominator" in self.run(tmp_path, capsys, command, obj)

    def test_top_level_array(self, tmp_path, capsys):
        self.run(tmp_path, capsys, "verify", [TestVerify().base()])

    def test_infinite_lambda(self, tmp_path, capsys):
        obj = TestExpand().euler_spec()
        obj["lambda"] = "inf"
        self.run(tmp_path, capsys, "expand", obj)
        assert not (tmp_path / "o" / "expansion.json").exists()

    @pytest.mark.parametrize(
        "command, changes",
        [
            ("verify", {"ell": 400}),
            ("verify", {"ell": -1}),
            ("verify", {"k": -1}),
            ("verify", {"k": 30}),
            ("verify", {"s_grid": {"n": 0}}),
            ("verify", {"s_grid": {"n": 1}}),
            ("verify", {"s_grid": {"n": 3}}),
            ("verify", {"s_grid": {"n": 1}, "k": 0}),
            ("verify", {"s_grid": {"min": 1e-1, "max": 1e-3, "n": 21}}),
            ("expand", {"ell": -1}),
            ("verify", {"s_grid": 5}),
        ],
        ids=[
            "ell-underflow", "ell-negative", "k-negative", "k-too-large",
            "n0", "n1", "n3", "n1-k0", "min-above-max",
            "expand-ell-negative", "s-grid-not-an-object",
        ],
    )
    def test_out_of_range(self, tmp_path, capsys, command, changes):
        obj = TestVerify().base()
        obj.update(changes)
        self.run(tmp_path, capsys, command, obj)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "loud, field",
        [
            ({"D_grid": [-0.25], "s_grid": [0.001]}, "s_grid"),
            ({"D_grid": [-0.25], "s_grid": [-0.001, 0.001, 0.002]}, "s_grid"),
            ({"D_grid": [-0.25], "s_grid": [0.001, 0.001, 0.002]}, "s_grid"),
            ({"D_grid": [-0.25], "s_grid": [0.002, 0.001]}, "s_grid"),
            ({"D_grid": [-0.25], "s_grid": [0.001, "inf"]}, "s_grid"),
            ({"D_grid": []}, "D_grid"),
            ({"D_grid": [-0.25, "nan"]}, "D_grid"),
            ({"D_grid": [-0.25], "F": "inf"}, "F"),
            ([-0.25], "loud"),
            ({"D_grid": "abc"}, "D_grid"),
            ({"D_grid": ["abc"]}, "D_grid"),
            ({"D_grid": [-0.25], "s_grid": 5}, "s_grid"),
            ({"D_grid": [-0.25, 0.5]}, "loud.D_grid[1] = 0.5: D must lie in (-1, 0)"),
            ({"D_grid": [-1.0]}, "loud.D_grid[0] = -1.0: D must lie in (-1, 0)"),
            ({"D_grid": [-0.25], "F": 0.3}, "loud.F = 0.3: F must exceed 1/2"),
        ],
        ids=[
            "s-single", "s-nonpositive", "s-repeated", "s-decreasing", "s-infinite",
            "D-empty", "D-nan", "F-infinite", "not-an-object",
            "D-string", "D-string-entry", "s-number", "D-positive", "D-minus-one", "F-half-or-less",
        ],
    )
    def test_loud_out_of_range(self, tmp_path, capsys, loud, field):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.run(tmp_path, capsys, "loud", {"loud": loud})
        assert not caught
        assert field in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, changes, field",
        [
            ("check", {"family": 5}, "family"),
            ("check", {"family": {"mu": 1, "terms": 5}}, "family.terms"),
            ("check", {"family": {"mu": 1, "terms": [5]}}, "family.terms[0]"),
            ("expand", {"V": 5}, "V"),
            ("expand", {"U": 5}, "U"),
            ("verify", {"V": "12"}, "V"),
            ("verify", {"kind": "dulac_time", "modes": 5}, "modes"),
            ("verify", {"kind": "dulac_time", "modes": [["1"], 5]}, "modes[1]"),
            ("verify", {"debug_coefficient_overrides": 5}, "debug_coefficient_overrides"),
            ("verify", {"debug_coefficient_overrides": {"7": 0.5}}, "debug_coefficient_overrides"),
            ("expand", {"ell": "two"}, "ell"),
            ("expand", {"lambda": [1.0]}, "lambda"),
            ("verify", {"s_grid": {"min": "x"}}, "s_grid.min"),
            ("verify", {"s_grid": {"max": "x"}}, "s_grid.max"),
            ("verify", {"s_grid": {"n": "x"}}, "s_grid.n"),
            ("verify", {"s_grid": {"n": 1e19}}, "s_grid.n"),
            ("verify", {"s_grid": {"n": 10**6 + 1}}, "s_grid.n"),
            ("verify", {"debug_coefficient_overrides": {"0": [1]}}, "debug_coefficient_overrides[0]"),
            ("verify", {"debug_coefficient_overrides": {"a": 1}}, "debug_coefficient_overrides[a]"),
            ("verify", {"debug_coefficient_overrides": {"0": "nan"}}, "debug_coefficient_overrides[0]"),
            ("check", {"sign": "x"}, "sign"),
            ("check", {"family": dict(LINEAR_FAMILY, mu="a")}, "family.mu"),
            ("check", {"family": {"mu": 1, "terms": [{"x": "a", "eps": 0, "c": "1"}]}},
             "family.terms[0].x"),
            ("check", {"family": {"mu": 1, "terms": [{"x": 2, "eps": 0, "c": "1"},
                                                     {"x": 1, "eps": [1], "c": "-1"}]}},
             "family.terms[1].eps"),
            ("check", {"family": {"mu": 1, "terms": [{"x": 2, "eps": 0, "c": "1"},
                                                     {"x": 1, "eps": 1, "c": "x"}]}},
             "family.terms[1].c"),
            ("expand", {"ell": 2.5}, "ell"),
            ("expand", {"ell": True}, "ell"),
            ("expand", {"ell": 1e19}, "ell"),
            ("expand", {"ell": 1e308}, "ell"),
            ("check", {"sign": True}, "sign"),
            ("check", {"family": {"mu": 1, "terms": [*LINEAR_FAMILY["terms"],
                                                     {"x": 1, "eps": 1.5, "c": "1"}]}},
             "family.terms[2].eps"),
            ("expand", {"family": {"mu": 1, "terms": [*LINEAR_FAMILY["terms"],
                                                      {"x": 1, "eps": 1.5, "c": "1"}]}},
             "family.terms[2].eps"),
            ("check", {"family": {"mu": 1, "terms": [*LINEAR_FAMILY["terms"],
                                                     {"x": -5, "eps": 1, "c": "1"}]}},
             "family.terms[2].x"),
            ("check", {"family": {"mu": 1, "terms": [{"x": 2, "eps": 0, "c": "1"},
                                                     {"x": 1, "eps": -1, "c": "-1"}]}},
             "family.terms[1].eps"),
            ("expand", {"V": ["1", "x"]}, "V[1]: could not convert string to float: 'x'"),
            ("expand", {"U": ["nan"]}, "U[0]: coefficient 'nan' is not a finite number"),
            ("verify", {"V": []}, "V: a truncated series needs at least the constant term"),
            ("verify", {"kind": "dulac_time", "modes": [["1"], ["0"], ["0", "y"]]}, "modes[2][1]: "),
            ("check", {"family": {"mu": 1, "terms": LINEAR_FAMILY["terms"][1:]}},
             "family: degree in x is 1, expected mu+1=2"),
        ],
        ids=[
            "family-number", "terms-number", "term-number", "V-number", "U-number",
            "V-string", "modes-number", "mode-number", "overrides-number",
            "override-index", "ell-string", "lambda-array", "s-min-string",
            "s-max-string", "s-n-string", "s-n-1e19", "s-n-past-max", "override-array",
            "override-index-string", "override-nan", "sign-string", "mu-string",
            "term-x-string", "term-eps-array", "term-c-string",
            "ell-fraction", "ell-boolean", "ell-past-index", "ell-1e308", "sign-boolean",
            "term-eps-fraction", "expand-term-eps-fraction", "term-x-negative",
            "term-eps-negative", "V-entry", "U-entry", "V-empty", "mode-entry", "term-deleted",
        ],
    )
    def test_field_named(self, tmp_path, capsys, command, changes, field):
        obj = TestVerify().base()
        obj.update(changes)
        err = self.run(tmp_path, capsys, command, obj)
        assert field in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_empty_modes(self, tmp_path, capsys):
        obj = TestVerify().base()
        obj.update(kind="dulac_time", modes=[])
        self.run(tmp_path, capsys, "verify", obj)

    @pytest.mark.parametrize(
        "command, path, field",
        [
            ("check", ("family",), "family"),
            ("check", ("family", "mu"), "family.mu"),
            ("check", ("family", "terms"), "family.terms"),
            ("check", ("family", "terms", 1, "c"), "family.terms[1].c"),
            ("check", ("family", "terms", 0, "x"), "family.terms[0].x"),
            ("expand", ("family", "terms", 1, "eps"), "family.terms[1].eps"),
            ("verify", ("modes",), "modes"),
        ],
        ids=["family", "mu", "terms", "term-c", "term-x", "term-eps", "modes"],
    )
    def test_missing_key_named(self, tmp_path, capsys, command, path, field):
        obj = json.loads(json.dumps(TestVerify().dulac_time()))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        err = self.run(tmp_path, capsys, command, obj)
        assert err == f"bad spec: {field} is missing\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, eps, x0, section",
        [
            ("orbit", 0.95, 1.0, "x0 = 1.0"),
            ("dulac_map", 0.95, 1.0, "1"),
            ("dulac_time", 0.95, 1.0, "x0 = 1.0"),
            ("orbit", 0.45, 0.5, "x0 = 0.5"),
            ("dulac_time", 0.45, 0.5, "x0 = 0.5"),
        ],
    )
    def test_eps_past_the_outer_section(self, tmp_path, capsys, kind, eps, x0, section):
        # theta = eps on the linear family, so s + theta reaches eps + 0.1
        obj = {"orbit": TestVerify().base, "dulac_map": TestVerify().dulac_map,
               "dulac_time": TestVerify().dulac_time}[kind]()
        obj.update(eps=eps, x0=x0)
        err = self.run(tmp_path, capsys, "verify", obj)
        assert err == (
            f"bad spec: eps = {eps!r} and s_grid.max = 0.1 put s + theta at "
            f"{eps + 0.1!r}, past the outer section at {section}\n"
        )
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "changes, message",
    [
        # y0^n in the mode sum: a traceback before
        ({"kind": "dulac_time", "modes": [["1"], ["0", "1/2"]], "y0": 1e308}, "OverflowError"),
        # lambda V(0) = 1e308 in the Radau sweep: numpy warnings on stderr,
        # then exit 3 with "array must not contain infs or NaNs" before
        ({"V": [1e308]}, "FloatingPointError"),
        ({"U": ["0", 1e308]}, "FloatingPointError"),
    ],
    ids=["y0", "V", "U"],
)
def test_float_overflow_exits_1(tmp_path, capsys, changes, message):
    """A verify spec whose numbers overflow the solvers' floats: exit 1,
    one stderr line, no warning."""
    obj = TestVerify().base()
    obj.update(changes)
    spec = write_spec(tmp_path, "s.json", obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", spec, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(message) and err.count("\n") == 1
    assert not caught


# -- fuzzing the four commands --------------------------------------------------

README_SPEC = json.loads((GOLDEN / "orbit.spec.json").read_text())
# the fields check and expand read
FUZZ_FIELDS = [
    ("family",), ("family", "mu"), ("family", "terms"), ("family", "terms", 0),
    ("family", "terms", 0, "x"), ("family", "terms", 1, "x"), ("family", "terms", 1, "eps"),
    ("family", "terms", 0, "c"), ("family", "terms", 1, "c"), ("sign",), ("V",), ("V", 0),
    ("U",), ("U", 1), ("lambda",), ("eps",), ("ell",),
]


class Delete:
    def __repr__(self):
        return "DELETE"


DELETE = Delete()
# every int here keeps ell <= 4, so a mutated spec stays cheap to expand
BAD_VALUES = [
    DELETE, None, True, False, 0, 1, 3, -1, -5, 2.5, -0.5, 1e308, -1e308, 1e19,
    float("nan"), float("inf"), "x", "1/0", "", "2", "-1", "nan", "inf", "1e400",
    [], {}, [None], ["1/0"], {"x": 1}, {"0": [1]}, {"a": 1}, {"0": "nan"},
]


def mutate(spec, field, value):
    """spec with the value at field replaced (or deleted); a field whose
    parent an earlier mutation removed is left alone."""
    *parents, last = field
    node = spec
    for key in parents:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    if isinstance(node, list) and isinstance(last, int) and last < len(node):
        if value is DELETE:
            del node[last]
            return
    elif not isinstance(node, dict):
        return
    elif value is DELETE:
        node.pop(last, None)
        return
    node[last] = json.loads(json.dumps(value))


def run_fuzzed(tmp_path_factory, command, spec, changes):
    """Run command on spec with changes applied: the exit code is a
    documented one, no traceback or warning reaches stderr (pytest would
    swallow a warning that the console script prints), and an exit-3
    message is one line."""
    spec = json.loads(json.dumps(spec))
    for field, value in changes:
        mutate(spec, field, value)
    work = tmp_path_factory.mktemp("fuzz")
    path = write_spec(work, "s.json", spec)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, path, "--out", str(work / "o")])
    err = err.getvalue()
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]
    if code == 3:
        assert err.count("\n") == 1 and err.endswith("\n")


def fuzz_changes(fields):
    return st.lists(st.tuples(st.sampled_from(fields), st.sampled_from(BAD_VALUES)),
                    min_size=1, max_size=2)


@given(command=st.sampled_from(["check", "expand"]), changes=fuzz_changes(FUZZ_FIELDS))
@settings(max_examples=300, deadline=None)
def test_fuzz_check_and_expand(tmp_path_factory, command, changes):
    """A README spec with one or two fields set to bad values."""
    run_fuzzed(tmp_path_factory, command, README_SPEC, changes)


# verify's cheapest specs: ell 2, and the smallest grid check_grid_length
# allows for k = 1, for each kind
VERIFY_SPECS = {
    "orbit": dict(README_SPEC, s_grid={"min": 1e-3, "max": 1e-1, "n": 9}),
    "dulac_map": dict(README_SPEC, kind="dulac_map", s_grid={"min": 1e-3, "max": 1e-1, "n": 9}),
    "dulac_time": dict(README_SPEC, kind="dulac_time", modes=[["1"], ["0", "1/2"]],
                       s_grid={"min": 1e-3, "max": 1e-1, "n": 9}),
}
VERIFY_FIELDS = [
    *FUZZ_FIELDS, ("kind",), ("k",), ("x0",), ("y0",), ("flatness_tol",), ("s_grid",),
    ("s_grid", "min"), ("s_grid", "max"), ("s_grid", "n"), ("debug_coefficient_overrides",),
    ("modes",), ("modes", 1), ("modes", 1, 1),
]
# one D value and two s points
LOUD_SPEC = {"loud": {"D_grid": [-0.25], "F": 1.0, "s_grid": [1e-3, 2e-3]}}
LOUD_FIELDS = [
    ("loud",), ("loud", "D_grid"), ("loud", "D_grid", 0), ("loud", "F"),
    ("loud", "s_grid"), ("loud", "s_grid", 0), ("loud", "s_grid", 1),
]


@given(kind=st.sampled_from(sorted(VERIFY_SPECS)), changes=fuzz_changes(VERIFY_FIELDS))
@settings(max_examples=150, deadline=None)
def test_fuzz_verify(tmp_path_factory, kind, changes):
    """A cheap verify spec of each kind with one or two fields set to bad values."""
    run_fuzzed(tmp_path_factory, "verify", VERIFY_SPECS[kind], changes)


@given(changes=fuzz_changes(LOUD_FIELDS))
@example(changes=[(("loud", "F"), 1e19)])  # in BAD_VALUES; it used to hang
@example(changes=[(("loud", "F"), 1e19), (("loud", "s_grid", 1), 1e308)])
@settings(max_examples=100, deadline=None)
def test_fuzz_loud(tmp_path_factory, changes):
    """A one-row loud spec with one or two fields set to bad values."""
    run_fuzzed(tmp_path_factory, "loud", LOUD_SPEC, changes)

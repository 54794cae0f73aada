"""End-to-end command-line runs with exit-code and determinism checks."""

import json
import math
import warnings
from pathlib import Path

import pytest

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
    def test_global_sign_error_fails(self, tmp_path, monkeypatch, D_grid):
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

    def test_one_value_grid_passes(self, tmp_path):
        spec = write_spec(tmp_path, "s.json", {"loud": {"D_grid": [-0.75]}})
        assert main(["loud", spec, "--out", str(tmp_path / "o")]) == 0

    def test_step_size_collapse_exits_1(self, tmp_path, capsys):
        """Near D = -1 at F = 3/2 a period integration needs a step below the
        spacing of the floats: exit 1 with the integrator's one-line message."""
        obj = {"loud": {"D_grid": [-0.999], "F": 1.5, "s_grid": [0.5, 0.99]}}
        spec = write_spec(tmp_path, "s.json", obj)
        assert main(["loud", spec, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "EventMissed: Required step size is less than spacing between numbers.\n"


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
        ],
        ids=[
            "s-single", "s-nonpositive", "s-repeated", "s-decreasing", "s-infinite",
            "D-empty", "D-nan", "F-infinite", "not-an-object",
            "D-string", "D-string-entry", "s-number",
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
        ],
        ids=[
            "family-number", "terms-number", "term-number", "V-number", "U-number",
            "V-string", "modes-number", "mode-number", "overrides-number",
            "override-index", "ell-string", "lambda-array", "s-min-string",
            "s-max-string", "s-n-string", "sign-string", "mu-string",
            "term-x-string", "term-eps-array", "term-c-string",
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

"""Edge behavior: overflow paths, extreme arguments, CLI oracle-target
variants, and the inequalities suite through the CLI."""

import json
import math

import pytest

from knugamma import (
    Overflow,
    Params,
    PoleHit,
    beta_knu,
    gamma_knu,
    param_transform,
    scalar,
)
from knugamma.cli import main as cli_main


def run_cli(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOverflowPaths:
    def test_beta_overflow_raises_typed(self):
        with pytest.raises(Overflow):
            beta_knu(Params(1, 1), 1e-308, 1e-308)

    def test_gamma_value_saturates_without_error(self):
        gv = gamma_knu(Params(1, 1), 5000.0)
        assert math.isinf(gv.value)
        assert math.isfinite(gv.log_value)

    def test_param_transform_pole_propagates(self):
        with pytest.raises(PoleHit):
            param_transform(Params(1, 1), Params(2, 3), 0.0)


class TestExtremeArguments:
    def test_digamma_huge(self):
        # asymptotic regime: psi(x) ~ ln x - 1/(2x)
        x = 1e8
        want = math.log(x) - 0.5 / x
        assert scalar.digamma(x) == pytest.approx(want, rel=1e-15)

    def test_polygamma_huge(self):
        x = 1e8
        want = 1.0 / x + 0.5 / x**2  # psi'(x) ~ 1/x + 1/(2x^2)
        assert scalar.polygamma(1, x) == pytest.approx(want, rel=1e-13)

    def test_lngamma_tiny(self):
        # ln Gamma(x) ~ -ln x - gamma x near 0
        x = 1e-12
        want = -math.log(x) - scalar.EULER_GAMMA * x
        assert scalar.ln_gamma(x) == pytest.approx(want, rel=1e-13)

    def test_hurwitz_large_offset(self):
        # dominated by the integral tail: zeta(s, q) ~ q^(1-s)/(s-1)
        got = scalar.hurwitz_zeta(3.0, 1e8)
        want = 1e8 ** (-2.0) / 2.0
        assert got == pytest.approx(want, rel=1e-7)


class TestCliOracleTargets:
    def test_gamma_limit_target(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--fn", "gamma", "--k", "2", "--nu", "3", "--x", "3",
             "--oracle", "--target", "gamma-limit", "--n", "200000", "--format", "json"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["target"] == "gamma-limit"
        assert obj["value"] == pytest.approx(2.1708037636748028, rel=1e-4)
        assert obj["effort"] == 200000 + 100000

    def test_recip_product_target(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--fn", "gamma", "--x", "1", "--oracle",
             "--target", "recip-product", "--n", "100000", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-4)

    def test_sine_integral_target(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--fn", "gamma", "--x", "0.5", "--oracle",
             "--target", "sine-integral", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi, rel=1e-9)

    def test_polygamma_eval(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--fn", "polygamma", "--m", "1", "--x", "1"]
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(math.pi**2 / 6.0, rel=1e-10)

    def test_polygamma_requires_m(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--fn", "polygamma", "--x", "1"])
        assert code == 2
        assert "--m" in err


class TestEnvRobustness:
    def test_inequalities_suite_cli(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--suite", "inequalities"])
        assert code == 0
        assert "checks passed" in out

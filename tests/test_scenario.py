"""Scenario format: round-trips, validation, parsed objects, bundled files."""

from fractions import Fraction

import pytest

from suspvdp.certify import PairSpec
from suspvdp.cli import _scenario, build_parser
from suspvdp.fields import VectorField
from suspvdp.lifts import twist_field
from suspvdp.scenario import (ApproxScenario, FlowScenario, Scenario,
                              ScenarioError, bundled_names, load_scenario,
                              parse_scenario, scenario_to_text)
from suspvdp.surface import SamplingSpec, is_tangent, make_suspension

MINIMAL = """
n = 2
f = z1

[pair]
alpha = [1, 0]
beta = [0, 1]
"""


def _twist(ctx):
    return twist_field(ctx, ctx.base_ring.one())


def test_bundled_names():
    assert bundled_names() == ["circle", "danielewski", "hyperbola", "plane"]


def test_bundled_round_trips():
    for name in bundled_names():
        s = load_scenario(name)
        text = scenario_to_text(s)
        again = parse_scenario(text)
        assert again == s, name
        assert scenario_to_text(again) == text, name


def test_minimal_defaults():
    s = parse_scenario(MINIMAL)
    assert s.ctx.n == 2 and str(s.ctx.f_base) == "z1"
    assert s.sampling.count == 20 and s.sampling.seed == 0
    assert s.sampling.region == (Fraction(-2), Fraction(2))
    assert s.degree_bound == 3 and s.assume_cohomology is None
    assert s.approx == ApproxScenario("twist", _twist(s.ctx), (0, 1, 2))
    # flow falls back to the first pair's alpha on side u at time 1, and
    # the printed text carries that default as its own [flow] section
    assert s.flow == FlowScenario(s.pairs[0].alpha, "u", Fraction(1))
    assert [str(c) for c in s.flow.field.coeffs] == ["1", "0"]
    assert scenario_to_text(s).endswith(
        "[flow]\nfield = [1, 0]\nside = u\ntime = 1\n")


def test_polynomials_are_canonicalized():
    text = MINIMAL + "\n[approx]\ntarget = twist(1/2*z2 + z2)\n"
    s = parse_scenario(text)
    assert s.approx.target == "twist(3/2*z2)"
    assert is_tangent(s.approx.field, s.ctx).is_zero
    # ambient coefficient lists canonicalize and validate too
    text2 = MINIMAL + "\n[approx]\ntarget = [u, -v, 0, 0]\n"
    s2 = parse_scenario(text2)
    assert s2.approx.target == "[u, -v, 0, 0]"
    # terms come in the order of the canonical text, which fixes the
    # order of float sums in every evaluation
    s3 = parse_scenario(MINIMAL.replace("f = z1", "f = 1 + z1*z2"))
    assert list(s3.ctx.f_base.terms) == \
        list(s3.ctx.base_ring.parse("z1*z2 + 1").terms)


def test_pairs_and_sampling_overrides():
    s = load_scenario("plane")
    assert len(s.pairs) == 1
    spec = s.pairs[0]
    assert [str(c) for c in spec.alpha.coeffs] == ["1", "0"]
    assert [str(k) for k in spec.kernel_alpha] == ["z2"]
    assert [str(k) for k in spec.kernel_beta] == ["z1"]
    assert [str(h) for h in spec.ideal] == ["1"]
    assert s.sampling.count == 50

    parser = build_parser()
    got = _scenario(parser.parse_args(
        ["criterion", "--scenario", "plane", "--samples", "7",
         "--seed", "99"]))
    assert got.sampling == SamplingSpec(count=7, seed=99)
    assert got.degree_bound == s.degree_bound
    got = _scenario(parser.parse_args(
        ["approx", "--scenario", "plane", "--degree-bound", "5"]))
    assert got.sampling == SamplingSpec(count=50)
    assert got.degree_bound == 5
    assert _scenario(parser.parse_args(
        ["criterion", "--scenario", "plane"])) == s


def test_kernel_lists_are_semicolon_separated():
    s = parse_scenario(MINIMAL + "kernel_alpha = z2; z2^2\n")
    assert [str(k) for k in s.pairs[0].kernel_alpha] == ["z2", "z2^2"]
    with pytest.raises(ScenarioError,
                       match="column 18: unexpected character ','"):
        parse_scenario(MINIMAL + "kernel_alpha = z2, z2^2\n")


def test_parse_errors_carry_positions():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("n = 2\nf = z1^\n")
    assert err.value.line == 2 and err.value.column == 8

    # each item of a list reports its own column
    pair = "n = 2\nf = z1\n[pair]\n"
    for text, line, column in [
            (MINIMAL + "kernel_alpha = z2; z2^\n", 8, 23),
            (pair + "alpha = [1, z1 $]\nbeta = [0, 1]\n", 4, 16),
            (pair + "alpha = [z1^, 0]\nbeta = [0, 1]\n", 4, 13)]:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.column) == (line, column), text

    cases = [
        ("n = 2\n", "missing 'f'"),
        ("f = z1\n", "missing 'n'"),
        ("n = 0\nf = z1\n", "at least 1"),
        ("n = 2\nf = 7\n", "nonconstant"),
        ("n = 2\nf = z1\n[what]\n", "unknown section"),
        ("n = 2\nf = z1\nbogus = 3\n", "unknown key"),
        (MINIMAL + "[pair]\nalpha = [1]\nbeta = [0, 1]\n", "2 coefficients"),
        (MINIMAL + "[sampling]\nregion = 1 .. 1\n", "lo < hi"),
        (MINIMAL + "[sampling]\nregion = 1/10 .. 2/10\n", "an integer"),
        (MINIMAL + "[sampling]\nexactness = exact\n",
         "unknown key 'exactness' at section [sampling]"),
        (MINIMAL + "ideal = 0\n", "no nonzero generator"),
        (MINIMAL + "[sampling]\ncount = -2\n", "positive"),
        (MINIMAL + "[options]\nassume_cohomology = yes\n", "unknown"),
        (MINIMAL + "[approx]\ntarget = [u, 0, 0, 0]\n", "not tangent"),
        (MINIMAL + "[approx]\ntarget = [u, 0, z1, 0]\n",
         "not volume preserving"),
        (MINIMAL + "[approx]\ncurve_degrees = 1, -2\n", "nonnegative"),
        (MINIMAL + "[flow]\nfield = [1, 0]\nside = w\n", "side"),
        (MINIMAL + "[flow]\nfield = [1, 0]\ntime = fast\n", "rational"),
        (MINIMAL + "[sampling]\ncount = 3\n\n[sampling]\ncount = 4\n",
         "duplicate section"),
        ("n = 2\nn = 3\nf = z1\n", "duplicate key"),
    ]
    for text, fragment in cases:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert fragment in str(err.value), text

    # a target that fails a field check is reported on its own line
    for coeffs in ("[u, 0, 0, 0]", "[u, 0, z1, 0]"):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL + f"[approx]\ntarget = {coeffs}\n")
        assert err.value.line == 9, coeffs

    # a SamplingSpec rule is reported on the line of the key that broke it
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "[sampling]\ncount = 3\nregion = 1 .. 1\n")
    assert err.value.line == 10


def test_scenario_value_round_trip_from_constructed():
    ctx = make_suspension(1, "z1^2")
    one = VectorField(ctx.base_ring, (ctx.base_ring.one(),))
    s = Scenario(
        ctx=ctx,
        pairs=(PairSpec(alpha=one, beta=one,
                        ideal=(ctx.base_ring.parse("z1"),)),),
        sampling=SamplingSpec(count=5, seed=11,
                              region=(Fraction(-1, 2), Fraction(3))),
        degree_bound=2, assume_cohomology=False,
        approx=ApproxScenario("twist", _twist(ctx)),
        flow=FlowScenario(one, side="v", time=Fraction(2, 3)))
    text = scenario_to_text(s)
    assert parse_scenario(text) == s


def test_load_scenario_from_path_and_unknown(tmp_path):
    path = tmp_path / "mine.scn"
    path.write_text(MINIMAL)
    s = load_scenario(str(path))
    assert s.ctx.n == 2
    with pytest.raises(ScenarioError) as err:
        load_scenario("not-a-scenario")
    assert "bundled" in str(err.value)

"""Scenario format: round-trips, validation, adapters, bundled files."""

import pytest

from suspvdp.scenario import (ApproxScenario, PairScenario, Scenario,
                              ScenarioError, bundled_names, load_scenario,
                              parse_scenario, scenario_to_text)

MINIMAL = """
n = 2
f = z1

[pair]
alpha = [1, 0]
beta = [0, 1]
"""


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
    assert s.n == 2 and s.f == "z1"
    assert s.count == 20 and s.seed == 0
    assert s.region == ("-2", "2") and s.exactness == "exact"
    assert s.degree_bound == 3 and s.assume_cohomology is None
    assert s.approx == ApproxScenario()
    assert s.flow is None
    # flow falls back to the first pair's alpha on side u
    fs = s.flow_scenario()
    assert fs.field == ("1", "0") and fs.side == "u" and fs.time == "1"


def test_polynomials_are_canonicalized():
    text = MINIMAL + "\n[approx]\ntarget = twist(1/2*z2 + z2)\n"
    s = parse_scenario(text)
    assert s.approx.target == "twist(3/2*z2)"
    ctx = s.context()
    sf = s.approx_target_field(ctx)
    assert sf.multiplier.is_zero
    # ambient coefficient lists canonicalize and validate too
    text2 = MINIMAL + "\n[approx]\ntarget = [u, -v, 0, 0]\n"
    s2 = parse_scenario(text2)
    assert s2.approx.target == "[u, -v, 0, 0]"


def test_pair_specs_adapter():
    s = load_scenario("plane")
    ctx = s.context()
    specs = s.pair_specs(ctx)
    assert len(specs) == 1
    spec = specs[0]
    assert [str(c) for c in spec.alpha.coeffs] == ["1", "0"]
    assert [str(k) for k in spec.kernel_alpha] == ["z2"]
    assert [str(k) for k in spec.kernel_beta] == ["z1"]
    assert [str(h) for h in spec.ideal] == ["1"]
    spec_sampling = s.sampling_spec(count=7, seed=99)
    assert spec_sampling.count == 7 and spec_sampling.seed == 99
    assert s.sampling_spec().count == 50


def test_kernel_lists_are_semicolon_separated():
    s = parse_scenario(MINIMAL + "kernel_alpha = z2; z2^2\n")
    assert s.pairs[0].kernel_alpha == ("z2", "z2^2")
    with pytest.raises(ScenarioError,
                       match="column 18: unexpected character ','"):
        parse_scenario(MINIMAL + "kernel_alpha = z2, z2^2\n")


def test_parse_errors_carry_positions():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("n = 2\nf = z1^\n")
    assert err.value.line == 2 and err.value.column == 8

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
        (MINIMAL + "[sampling]\nexactness = maybe\n", "exactness"),
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
    s = Scenario(
        n=1, f="z1^2", pairs=(PairScenario(alpha=("1",), beta=("1",),
                                           ideal=("z1",)),),
        count=5, seed=11, region=("-1/2", "3"), exactness="float",
        degree_bound=2, assume_cohomology=False)
    text = scenario_to_text(s)
    assert parse_scenario(text) == s


def test_load_scenario_from_path_and_unknown(tmp_path):
    path = tmp_path / "mine.scn"
    path.write_text(MINIMAL)
    s = load_scenario(str(path))
    assert s.n == 2
    with pytest.raises(ScenarioError) as err:
        load_scenario("not-a-scenario")
    assert "bundled" in str(err.value)

"""The identity suites are themselves checks; here we pin the harness."""

import pytest

from suspvdp.fields import VectorField
from suspvdp.identities import (ALL_CHECKS, SuiteResult,
                                compatible_bracket_failure, run_checks)
from suspvdp.poly import PolyRing


def test_all_suites_pass_at_full_trial_count():
    results = run_checks(trials=200, seed=0)
    assert [r.name for r in results] == list(ALL_CHECKS)
    for r in results:
        assert r.ok, r.failures
        assert r.trials == 200
    assert sum(r.elapsed for r in results) < 60.0


def test_subset_and_determinism():
    a = run_checks(names=["jacobi", "cartan"], trials=50, seed=7)
    b = run_checks(names=["jacobi", "cartan"], trials=50, seed=7)
    assert [r.name for r in a] == ["jacobi", "cartan"]
    assert [(r.name, r.trials, r.failures) for r in a] == \
        [(r.name, r.trials, r.failures) for r in b]


def test_unknown_suite_name():
    with pytest.raises(KeyError):
        run_checks(names=["no-such-suite"])


def test_result_ok_means_no_failures():
    good = SuiteResult("demo", 10, [], 0.0)
    assert good.ok and good.failures == []
    bad = SuiteResult("demo", 10, ["trial 3: boom"], 0.0)
    assert not bad.ok
    assert bad.failures == ["trial 3: boom"]


def test_compatible_bracket_identity():
    ring = PolyRing(("z1", "z2"))
    nu = VectorField.coordinate(ring, "z1")
    mu = VectorField.coordinate(ring, "z2")
    z1, z2 = ring.parse("z1"), ring.parse("z2")
    assert compatible_bracket_failure(nu, mu, z1, z2, z1) is None
    assert compatible_bracket_failure(nu, mu, z1, ring.one(), ring.one()) is None


def test_compatible_bracket_reports_precondition():
    ring = PolyRing(("z1", "z2"))
    nu = VectorField.coordinate(ring, "z1")
    mu = VectorField.coordinate(ring, "z2")
    got = compatible_bracket_failure(nu, mu, ring.parse("z2"), ring.one(),
                                     ring.one())
    assert got == "precondition h in Ker mu fails"


def test_compatible_bracket_random_tuples():
    # the suite draws h, f, g inside the kernels; every trial must pass
    (result,) = run_checks(names=["compatible-bracket"], trials=50, seed=17)
    assert result.ok, result.failures
    assert result.trials == 50

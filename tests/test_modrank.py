"""Spanning ranks screened over F_p against the exact computation.

A screened rank must be the exact rank, a point the screen cannot decide
must fall back to the exact path, and the reports must not depend on
which of the two decided a point.
"""

import ast
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from suspvdp import modrank, surface
from suspvdp.certify import spanning_rank
from suspvdp.cli import main
from suspvdp.fields import VectorField
from suspvdp.lifts import spanning_plan
from suspvdp.modrank import (RankScreen, Undecided, minor_determinant,
                             pivot_rows, residue)
from suspvdp.poly import Domain, PolyRing, compile_values
from suspvdp.randgen import (COEFF_POOL, rand_divergence_free_field,
                             rand_poly)
from suspvdp.scalars import gr
from suspvdp.surface import (SamplingError, SamplingSpec, basepoint_search,
                             make_suspension)

SMALL = {"P": 5, "R": 2}         # 2*2 = -1 (mod 5)


def test_constants_are_a_prime_and_a_root_of_minus_one():
    p, r = modrank.P, modrank.R
    assert p % 4 == 1 and r * r % p == p - 1
    assert all(pow(a, p - 1, p) == 1 for a in (2, 3, 5, 7, 11, 13))


def test_residue_is_a_ring_map():
    p, r = 5, 2
    a, b = gr(Fraction(1, 2), 3), gr(-1, Fraction(2, 3))
    ra, rb = residue(a, p, r), residue(b, p, r)
    assert residue(a * b, p, r) == ra * rb % p
    assert residue(a + b, p, r) == (ra + rb) % p
    assert residue(gr(0, 1), p, r) == r
    with pytest.raises(Undecided, match="denominator"):
        residue(gr(Fraction(1, 10)), p, r)


def test_compiled_residues_are_residues_of_exact_values():
    ring = PolyRing(("u", "v", "z1"))
    rng = random.Random(4)
    polys = [rand_poly(ring, rng) for _ in range(12)]
    p, r = modrank.P, modrank.R
    domain = Domain("0", lambda c: residue(c, p, r), "values[{i}]")
    evaluate = compile_values(ring, polys, domain)
    point = [gr(Fraction(1, 3), 2), gr(-2, Fraction(1, 2)), gr(3)]
    got = [v % p for v in evaluate([residue(x, p, r) for x in point])]
    assert got == [residue(q.evaluate_exact(point), p, r) for q in polys]


def test_minor_determinant_by_cofactors():
    p = 101
    assert minor_determinant([], p) == 1
    assert minor_determinant([[2, 3], [5, 7]], p) == (2 * 7 - 3 * 5) % p
    rows = [[1, 2, 0], [0, 1, 4], [5, 6, 0]]
    assert minor_determinant(rows, p) == 16
    # singular mod p although not over the integers
    assert minor_determinant([[1, 2], [3, 6 + p]], p) == 0


def leibniz_determinant(rows, p):
    """The determinant mod p as a sum over permutations, each signed by
    its number of inversions."""
    k, total = len(rows), 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(k) for j in range(i + 1, k))
        term = (-1) ** inversions
        for i, c in enumerate(perm):
            term *= rows[i][c]
        total += term
    return total % p


@settings(max_examples=120, deadline=None)
@given(data=st.data(), k=st.integers(0, 6),
       p=st.sampled_from([5, 101, modrank.P]))
def test_minor_determinant_equals_leibniz_sum(data, k, p):
    entry = st.integers(-2 * p, 2 * p)
    rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                              min_size=k, max_size=k))
    assert minor_determinant(rows, p) == leibniz_determinant(rows, p)


def test_pivot_rows_give_the_rank_mod_p():
    p = 7
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4 + p]]
    assert pivot_rows(rows, p) == [0, 2]
    assert pivot_rows([[0, 0], [0, 3]], p) == [1]
    assert pivot_rows([], p) == []


def random_case(seed: int, n: int):
    """A random nonconstant f of degree <= 2, a random divergence-free
    pair (constant fields for n = 1) and up to four exact basepoints."""
    rng = random.Random(seed)
    base = make_suspension(n, "z1").base_ring
    f = rand_poly(base, rng, max_degree=2, max_terms=3)
    ctx = make_suspension(n, f if not f.is_constant() else "z1")
    if n == 1:
        pair = [VectorField(ctx.base_ring,
                            (ctx.base_ring.const(rng.choice(COEFF_POOL)),))
                for _ in range(2)]
    else:
        pair = [rand_divergence_free_field(ctx.base_ring, rng, max_degree=2,
                                           parts=1) for _ in range(2)]
    gens = [ctx.base_ring.one()]
    try:
        # a search bound of 200 draws keeps a hopeless case short
        with mock.patch.object(surface, "MAX_ATTEMPTS", 200):
            points, _ = basepoint_search(
                ctx, SamplingSpec(count=4, seed=seed), ideals=[gens])
    except SamplingError:
        points = []
    return ctx, spanning_plan([(*pair, gens)], ctx), points


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 3),
       small_prime=st.booleans())
def test_screened_rank_equals_exact_rank(seed, n, small_prime):
    ctx, plan, points = random_case(seed, n)
    default = {"P": modrank.P, "R": modrank.R}
    with mock.patch.multiple(modrank, **(SMALL if small_prime else default)):
        screen = RankScreen(plan)
    for point in points:
        got = screen.rank(point)
        want = spanning_rank(plan.at(point), ctx)
        assert got is None or got == want
    counts = screen.counts()
    assert counts["screened"] + counts["fallback"] == len(points)


def digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("criterion.json", "ranks.csv")}


@pytest.mark.parametrize("args", [
    ["--scenario", "plane", "--samples", "200"], ["--scenario", "hyperbola"],
    ["--scenario", "circle"], ["--scenario", "danielewski"]],
    ids=["plane-200", "hyperbola", "circle", "danielewski"])
def test_forced_fallback_keeps_reports(tmp_path, args, monkeypatch):
    run = ["criterion", *args, "--no-figures", "--out"]
    code = main([*run, str(tmp_path / "p")])
    monkeypatch.setattr(modrank, "P", SMALL["P"])
    monkeypatch.setattr(modrank, "R", SMALL["R"])
    assert main([*run, str(tmp_path / "small")]) == code
    assert digests(tmp_path / "small") == digests(tmp_path / "p")
    screen = json.loads((tmp_path / "small" / "timings.json").read_text())[
        "rank_screen"]
    assert screen["prime"] == 5 and screen["fallback"] > 0
    assert set(screen["fallback_reasons"]) >= {"denominator", "zero_residue"}


def test_rank_screen_counts_in_the_sidecar(tmp_path):
    out = tmp_path / "c"
    modrank._cofactor_plan.cache_clear()
    assert main(["criterion", "--scenario", "plane", "--samples", "200",
                 "--out", str(out), "--no-figures"]) == 0
    doc = json.loads((out / "criterion.json").read_text())
    assert set(doc) == {"n", "f", "assumptions", "smoothness", "pairs",
                        "sampling", "ranks", "problems", "verdict"}
    timings = json.loads((out / "timings.json").read_text())
    screen = timings["rank_screen"]
    assert screen == {"prime": modrank.P, "screened": 200, "fallback": 0,
                      "fallback_reasons": {}}
    assert screen["screened"] + screen["fallback"] == len(doc["ranks"])
    # one 3 x 3 witness per point, from a cofactor plan built once
    plan = modrank._cofactor_plan.cache_info()
    assert (plan.misses, plan.hits) == (1, 199)


def test_vanishing_witness_sends_the_point_to_the_exact_path(monkeypatch):
    ctx = make_suspension(2, "z1")
    alpha = VectorField.from_texts(ctx.base_ring, ["1", "0"])
    beta = VectorField.from_texts(ctx.base_ring, ["0", "1"])
    plan = spanning_plan([(alpha, beta, [ctx.base_ring.one()])], ctx)
    points, _ = basepoint_search(ctx, SamplingSpec(count=3, seed=7),
                                 ideals=[[ctx.base_ring.one()]])
    screen = RankScreen(plan)
    assert [screen.rank(p) for p in points] == [3, 3, 3]

    # a repeated row: the eliminator claims a minor whose determinant is 0
    monkeypatch.setattr(modrank, "pivot_rows", lambda rows, p: [0, 0, 1])
    refused = RankScreen(plan)
    assert [refused.rank(p) for p in points] == [None, None, None]
    assert refused.counts()["fallback_reasons"] == {"witness": 3}
    assert [spanning_rank(plan.at(p), ctx) for p in points] == [3, 3, 3]


def test_the_screen_imports_nothing_from_certify():
    """The screen ranks the family's own wedge rows: it depends on lifts,
    poly, scalars and surface, and on nothing of the exact runner."""
    path = Path(__file__).resolve().parents[1] / "src/suspvdp/modrank.py"
    local = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("suspvdp")):
            module = (node.module or "").removeprefix("suspvdp").strip(".")
            local |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            local |= {a.name.removeprefix("suspvdp.") for a in node.names
                      if a.name.startswith("suspvdp")}
    assert "certify" not in local
    assert local <= {"lifts", "poly", "scalars", "surface"}

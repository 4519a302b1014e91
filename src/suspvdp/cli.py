"""Command line: scenarios in, reports out.

Four subcommands: `verify` runs the exact identity suites, `criterion`
runs the full volume-density criterion, `flow` audits closed-form
against numeric integration of lifted flows, and `approx` fits targets
against the bracket dictionary and draws the residual curve.

Exit codes: 0 when every sub-check succeeded (for `criterion`, verdict
certified-at-samples), 1 when a sub-check failed or stayed inconclusive,
2 for scenario parse errors, input the subcommand cannot work on (no
sample can be drawn, a kernel generator is not annihilated, a dictionary
entry is not volume preserving) and internal faults.

Every run writes a JSON document and delimiter-separated tables into the
output directory; those files and the PNG figures are byte-identical for
identical scenario and seed.  Timings go into a separate sidecar, and
figures are rendered unless --no-figures turns them off.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from .approx import (ApproxError, flow_deviation_audit, residual_curve,
                     volume_audit)
from .certify import Assumptions, CertifyError, lift_pair, run_vdp_criterion
from .fields import divergence
from .lifts import chart_jacobian_determinant, lift, lifted_flow, rk4_flow
from .poly import ParseError
from .report import (format_complex, render_curve_figure, render_flow_figure,
                     render_rank_figure, write_delimited, write_json)
from .scenario import Scenario, ScenarioError, load_scenario
from .surface import SamplingError, divergence_on_suspension, sample_points

FLOW_TOL = 1e-9
DET_TOL_SYMBOLIC = 1e-8
DET_TOL_NUMERIC = 1e-6
VOLUME_TOL = 1e-6
CURVE_SLACK = 1e-12


def _checked(convert, accept, expected: str):
    """An argparse type: the text converted, when `accept` takes the
    value.  The integer ranges are the ones scenario files enforce for
    their own values; a tolerance must be finite and positive."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


_NONNEGATIVE = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _checked(int, lambda v: v >= 1, "an integer >= 1")
_TOLERANCE = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suspvdp",
        description="volume-density checks on suspensions u*v = f(z)")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("verify", "run the exact identity suites", False, _cmd_verify),
        ("criterion", "run the full criterion on a scenario", True,
         _cmd_criterion),
        ("flow", "audit closed-form vs numeric lifted flows", True,
         _cmd_flow),
        ("approx", "dictionary fit and residual curve", True, _cmd_approx),
    ]
    for name, help_text, needs_scenario, handler in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=needs_scenario,
                       help="scenario file path or bundled name")
        p.add_argument("--degree-bound", type=_NONNEGATIVE, default=None,
                       help="override the scenario degree bound")
        p.add_argument("--samples", type=_POSITIVE, default=None,
                       help="override the sample count (verify: trials)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")
        p.add_argument("--tol", type=_TOLERANCE, default=None,
                       help="override the main tolerance of the subcommand")
        p.add_argument("--out", default="suspvdp-out",
                       help="output directory for reports")
        p.add_argument("--no-figures", action="store_true",
                       help="skip figure rendering")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--exact", dest="exactness", action="store_const",
                          const="exact", default=None,
                          help="force exact rational sampling")
        mode.add_argument("--float", dest="exactness", action="store_const",
                          const="float", help="force floating-point sampling")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioError, ParseError, SamplingError, CertifyError,
            ApproxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:                      # internal fault
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scenario(args) -> Scenario | None:
    """The scenario with the sampling and degree-bound flags applied."""
    if args.scenario is None:
        return None
    scenario = load_scenario(args.scenario)
    flags = {"count": args.samples, "seed": args.seed,
             "exactness": args.exactness}
    sampling = replace(scenario.sampling,
                       **{k: v for k, v in flags.items() if v is not None})
    degree_bound = scenario.degree_bound if args.degree_bound is None \
        else args.degree_bound
    return replace(scenario, sampling=sampling, degree_bound=degree_bound)


# ---------------------------------------------------------------------------
# verify


def _scenario_lift_checks(scenario: Scenario) -> list[dict]:
    """Exact, deterministic per-pair checks on the scenario's surface."""
    ctx = scenario.ctx
    out = []
    for k, spec in enumerate(scenario.pairs):
        failures = []
        for label, base in (("alpha", spec.alpha), ("beta", spec.beta)):
            if not divergence(base, ctx.base_volume).is_zero:
                failures.append(f"{label} is not volume preserving")
        for side in ("u", "v"):
            for label, base in (("alpha", spec.alpha), ("beta", spec.beta)):
                lifted = lift(base, ctx, side)
                if not lifted.multiplier.is_zero:
                    failures.append(f"{label} side-{side} lift not tangent")
                elif not divergence_on_suspension(lifted, ctx).is_zero:
                    failures.append(
                        f"{label} side-{side} lift has nonzero divergence")
        out.append({"name": f"scenario-pair{k}-lifts", "trials": 4,
                    "failures": failures, "ok": not failures})
    return out


def _cmd_verify(args) -> int:
    # imported here: the suites and their random generators are only for
    # verify, and every other subcommand would pay for compiling them
    from .identities import run_checks

    trials = 200 if args.samples is None else args.samples
    seed = 0 if args.seed is None else args.seed
    results = run_checks(trials=trials, seed=seed)
    suites = [{"name": r.name, "trials": r.trials, "failures": r.failures,
               "ok": r.ok} for r in results]
    scenario = _scenario(args)
    if scenario is not None:
        suites += _scenario_lift_checks(scenario)

    ok = all(s["ok"] for s in suites)
    out = _out_dir(args)
    write_json(out / "verify.json", {"ok": ok, "seed": seed,
                                     "trials": trials, "suites": suites})
    write_json(out / "timings.json",
               {"suites": {r.name: r.elapsed for r in results}})
    write_delimited(out / "suites.csv", ["suite", "trials", "ok"],
                    [(s["name"], s["trials"], s["ok"]) for s in suites])
    for s in suites:
        mark = "pass" if s["ok"] else "FAIL"
        print(f"{s['name']}: {mark} ({s['trials']} trials)")
        for f in s["failures"]:
            print(f"  {f}")
    print(f"report written to {out}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# criterion


def _cmd_criterion(args) -> int:
    scenario = _scenario(args)
    ctx = scenario.ctx
    note = "" if scenario.assume_cohomology is None \
        else "asserted by the scenario file"
    assumptions = Assumptions(cohomology=scenario.assume_cohomology,
                              note=note)
    report = run_vdp_criterion(ctx, scenario.pairs, assumptions,
                               scenario.sampling,
                               degree_bound=scenario.degree_bound)

    out = _out_dir(args)
    write_json(out / "criterion.json", report.to_json_dict())
    write_json(out / "timings.json", {"stages": report.timings,
                                      "rank_screen": report.rank_screen})
    write_delimited(out / "ranks.csv", ["point", "rank", "full"],
                    [(r["point"], r["rank"], r["full"]) for r in report.ranks])
    if not args.no_figures and report.ranks:
        render_rank_figure(out / "ranks.png", report.ranks,
                           full_rank=math.comb(ctx.n + 1, 2))

    print(f"verdict: {report.verdict}")
    for p in report.problems:
        print(f"  problem: {p}")
    if report.verdict == "inconclusive":
        print(f"  {report.assumptions.get('explanation', '')}")
    print(f"report written to {out}")
    return 0 if report.verdict == "certified-at-samples" else 1


# ---------------------------------------------------------------------------
# flow


def _cmd_flow(args) -> int:
    scenario = _scenario(args)
    ctx = scenario.ctx
    fs = scenario.flow
    theta, t = fs.field, fs.time
    flow_map = lifted_flow(theta, ctx, fs.side)
    tol = FLOW_TOL if args.tol is None else args.tol
    det_tol = DET_TOL_SYMBOLIC if flow_map.symbolic else DET_TOL_NUMERIC

    points = sample_points(ctx, scenario.sampling)
    # the chart determinant needs both fiber coordinates away from zero
    kept = [p for p in points
            if abs(complex(p.complex_coords()[0])) >= 0.25
            and abs(complex(p.complex_coords()[1])) >= 0.25]

    reference = lift(theta, ctx, fs.side)
    rows = []
    for p in kept:
        end = flow_map.apply(p, t)
        end_coords = [complex(c) for c in end.complex_coords()]
        check = rk4_flow(reference.ambient.evaluate_complex,
                         list(p.complex_coords()), complex(t),
                         2048 if flow_map.symbolic else 8192)
        deviation = max(abs(a - b) for a, b in zip(end_coords, check))
        det = chart_jacobian_determinant(flow_map, p, t)
        det_error = abs(det - 1.0)
        residual = abs(ctx.defining.evaluate_complex(end_coords))
        ok = deviation <= tol and det_error <= det_tol and residual <= 1e-8
        rows.append({"point": str(p), "deviation": deviation,
                     "det_error": det_error, "surface_residual": residual,
                     "ok": ok})

    ok = bool(rows) and all(r["ok"] for r in rows)
    payload = {
        "ok": ok, "symbolic": flow_map.symbolic, "side": fs.side,
        "time": str(t), "field": [str(c) for c in theta.coeffs],
        "tolerances": {"deviation": tol, "determinant": det_tol},
        "points_sampled": len(points), "points_audited": len(rows),
        "rows": rows,
    }
    if not rows:
        payload["note"] = ("no sampled point kept both fiber coordinates "
                           "away from zero; enlarge the region or count")
    out = _out_dir(args)
    write_json(out / "flow.json", payload)
    write_delimited(out / "flow_errors.csv",
                    ["point", "deviation", "det_error", "surface_residual",
                     "ok"],
                    [(r["point"], r["deviation"], r["det_error"],
                      r["surface_residual"], r["ok"]) for r in rows])
    if not args.no_figures:
        render_flow_figure(out / "flow_errors.png", rows)

    kind = "closed form" if flow_map.symbolic else "numeric fallback"
    print(f"flow: {kind}, side {fs.side}, t = {fs.time}, "
          f"{len(rows)} points audited")
    worst_dev = max((r["deviation"] for r in rows), default=float("nan"))
    worst_det = max((r["det_error"] for r in rows), default=float("nan"))
    print(f"worst deviation {worst_dev:.3e} (tol {tol:.1e}), "
          f"worst |det - 1| {worst_det:.3e} (tol {det_tol:.1e})")
    print(f"report written to {out}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# approx


def _cmd_approx(args) -> int:
    scenario = _scenario(args)
    ctx = scenario.ctx
    degrees = scenario.approx.curve_degrees
    if args.degree_bound is not None:
        degrees = tuple(range(args.degree_bound + 1))
    top_degree = max(degrees)

    pairs = []
    for spec in scenario.pairs:
        pairs.append(lift_pair(spec.alpha, spec.beta, spec.kernel_alpha,
                               spec.kernel_beta,
                               spec.ideal_or_unit(ctx.base_ring), ctx,
                               ideal_bound=scenario.degree_bound))
    target = scenario.approx.field
    samples = sample_points(ctx, scenario.sampling)

    t0 = time.perf_counter()
    curve, dictionary, fit = residual_curve(target, ctx, pairs, samples,
                                            degrees)
    audits = flow_deviation_audit(target, dictionary, fit, samples[:5])
    elapsed = time.perf_counter() - t0

    curve_ok = all(b["sup_residual"] <= a["sup_residual"] + CURVE_SLACK
                   for a, b in zip(curve, curve[1:]))
    audit_ok = all(a["ok"] for a in audits)

    volume_tol = VOLUME_TOL if args.tol is None else args.tol
    chart_point = next((p for p in samples
                        if abs(complex(p.complex_coords()[0])) >= 0.25), None)
    volume = None
    volume_ok = True
    if chart_point is not None:
        volume = volume_audit(target, ctx, chart_point)
        volume_ok = volume["error"] <= volume_tol

    ok = curve_ok and audit_ok and volume_ok
    coefficients = [
        {"label": label, "value": format_complex(c)}
        for label, c in zip(fit.labels, fit.coefficients) if abs(c) > 1e-12]
    payload = {
        "ok": ok, "target": scenario.approx.target,
        "curve": curve, "curve_non_increasing": curve_ok,
        "top_degree": top_degree, "entries": len(dictionary),
        "sup_residual": fit.sup_residual, "residuals": fit.residuals,
        "nonzero_coefficients": coefficients,
        "flow_audits": audits, "flow_audit_ok": audit_ok,
    }
    if volume is not None:
        payload["volume_audit"] = {
            "weighted_determinant": format_complex(
                volume["weighted_determinant"]),
            "expected": format_complex(volume["expected"]),
            "error": volume["error"], "tolerance": volume_tol,
            "ok": volume_ok,
        }

    out = _out_dir(args)
    write_json(out / "approx.json", payload)
    write_json(out / "timings.json", {"total": elapsed})
    write_delimited(out / "residuals.csv",
                    ["degree", "entries", "sup_residual"],
                    [(r["degree"], r["entries"], r["sup_residual"])
                     for r in curve])
    audit_rows = []
    for i, a in enumerate(audits):
        for row in a["checks"]:
            audit_rows.append((i, row["t"], row["deviation"], row["allowed"],
                               row["ok"]))
    write_delimited(out / "flow_audit.csv",
                    ["point_index", "t", "deviation", "allowed", "ok"],
                    audit_rows)
    if not args.no_figures:
        render_curve_figure(out / "residuals.png", curve)

    for row in curve:
        print(f"degree {row['degree']}: {row['entries']} entries, "
              f"sup residual {row['sup_residual']:.3e}")
    print(f"curve non-increasing: {curve_ok}; flow audit ok: {audit_ok}"
          + (f"; volume audit error {volume['error']:.3e}" if volume else ""))
    print(f"report written to {out}")
    return 0 if ok else 1

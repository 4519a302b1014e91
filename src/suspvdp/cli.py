"""Command line: scenarios in, reports out.

Three subcommands: `criterion` runs the full volume-density criterion,
`flow` audits lifted flows against RK4, one point per job on every CPU,
and `approx` fits targets against the bracket dictionary and draws the
residual curve.

Exit codes: 0 when every sub-check succeeded (for `criterion`, verdict
certified-at-samples), 1 when a sub-check failed or stayed inconclusive,
2 for scenario parse errors, input the subcommand cannot work on (no
sample can be drawn, a kernel generator is not annihilated, a dictionary
entry is not volume preserving) and internal faults; an internal fault
also leaves its traceback in `fault.txt` in the output directory.  A
numeric flow that overflows or leaves the surface is a failed row of the
flow report, not a fault.

Every run writes a JSON document and delimiter-separated tables into the
output directory; those files and the SVG figures are byte-identical for
identical scenario and seed.  Timings go into a separate sidecar, and
figures are rendered unless --no-figures turns them off.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from .approx import (AUDIT_CHECKPOINTS, ApproxError, flow_deviation_audit,
                     residual_curve, volume_audit)
from .certify import Assumptions, CertifyError, lift_pair, run_vdp_criterion
from .lifts import (chart_jacobian_determinant, cpu_blocks,
                    flow_chart_jacobian, lifted_flow, map_on_cpus, rk4_flow)
from .poly import ParseError
from .report import (format_complex, render_curve_figure, render_flow_figure,
                     render_rank_figure, write_delimited, write_json)
from .scenario import Scenario, ScenarioError, load_scenario
from .surface import SamplingError, SuspensionError, sample_points

FLOW_TOL = 1e-9
REFERENCE_STEPS_SYMBOLIC = 2048       # RK4 steps of a flow audit reference
REFERENCE_STEPS_NUMERIC = 8192
DET_TOL_SYMBOLIC = 1e-8
DET_TOL_NUMERIC = 1e-6
VOLUME_TOL = 1e-6
CURVE_SLACK = 1e-12


def _checked(convert, accept, expected: str):
    """An argparse type: the text converted, when `accept` takes the
    value.  The integer ranges are the ones scenario files enforce for
    their own values; a tolerance must be finite and positive; no part of
    an output path may name anything but a directory."""
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
_OUT_DIR = _checked(Path, lambda p: all(
    q.is_dir() for q in (p, *p.parents) if q.exists()), "a directory path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suspvdp",
        description="volume-density checks on suspensions u*v = f(z)")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options each reads besides --scenario, --samples, --seed, --out
    specs = [
        ("criterion", "run the full criterion on a scenario", _cmd_criterion,
         ("--degree-bound", "--no-figures")),
        ("flow", "audit closed-form vs numeric lifted flows", _cmd_flow,
         ("--tol", "--no-figures")),
        ("approx", "dictionary fit and residual curve", _cmd_approx,
         ("--degree-bound", "--tol", "--no-figures")),
    ]
    tol_help = {
        "flow": f"bound on the worst deviation from RK4 (default {FLOW_TOL})",
        "approx": f"bound on the volume-audit error (default {VOLUME_TOL})"}
    for name, help_text, handler, options in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True,
                       help="scenario file path or bundled name")
        if "--degree-bound" in options:
            p.add_argument("--degree-bound", type=_NONNEGATIVE,
                           help="override the scenario degree bound")
        p.add_argument("--samples", type=_POSITIVE,
                       help="override the scenario sample count")
        p.add_argument("--seed", type=int, help="override the sampling seed")
        if "--tol" in options:
            p.add_argument("--tol", type=_TOLERANCE, help=tol_help[name])
        p.add_argument("--out", type=_OUT_DIR, default="suspvdp-out",
                       help="output directory for reports")
        if "--no-figures" in options:
            p.add_argument("--no-figures", action="store_true",
                           help="skip figure rendering")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a fault.txt left by an earlier run would be taken for this one's
        (Path(args.out) / "fault.txt").unlink(missing_ok=True)
        return args.handler(args)
    except (ScenarioError, ParseError, SamplingError, CertifyError,
            ApproxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:                      # internal fault
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        import traceback                          # only a fault needs it
        try:
            (_out_dir(args) / "fault.txt").write_text(traceback.format_exc())
        except OSError as err:
            print(f"could not write fault.txt: {err}", file=sys.stderr)
        return 2


def _cpu_split(jobs: int) -> dict:
    """For the timings sidecar: how `lifts.map_on_cpus` splits `jobs`
    jobs over processes, the parent first."""
    blocks = cpu_blocks(jobs)
    return {"jobs": jobs, "workers": len(blocks), "jobs_per_worker": blocks}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scenario(args) -> Scenario:
    """The scenario with the subcommand's sampling and degree-bound options."""
    scenario = load_scenario(args.scenario)
    flags = {"count": args.samples, "seed": args.seed}
    sampling = replace(scenario.sampling,
                       **{k: v for k, v in flags.items() if v is not None})
    bound = getattr(args, "degree_bound", None)
    return replace(scenario, sampling=sampling, degree_bound=(
        scenario.degree_bound if bound is None else bound))


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
        render_rank_figure(out / "ranks.svg", report.ranks,
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
    det_tol, steps = (DET_TOL_SYMBOLIC, REFERENCE_STEPS_SYMBOLIC) \
        if flow_map.symbolic else (DET_TOL_NUMERIC, REFERENCE_STEPS_NUMERIC)

    points = sample_points(ctx, scenario.sampling)
    # the chart determinant needs both fiber coordinates away from zero
    kept = [p for p in points
            if abs(complex(p.complex_coords()[0])) >= 0.25
            and abs(complex(p.complex_coords()[1])) >= 0.25]

    def audit(p) -> list | str:
        """A point's job of `map_on_cpus`: its deviation from RK4, chart
        Jacobian and surface residual, or its failed row's error text."""
        try:
            end = flow_map.apply(p, t).complex_coords()
            check = rk4_flow(flow_map.lifted.evaluate_complex,
                             list(p.complex_coords()), complex(t), steps)
            deviation = max(abs(a - b) for a, b in zip(end, check))
            columns = flow_chart_jacobian(flow_map, p, t)
            residual = abs(ctx.defining.evaluate_complex(end))
        except (SuspensionError, ArithmeticError) as exc:
            # a long flow can overflow or leave the surface: a failed row
            return f"{type(exc).__name__}: {exc}"
        return [deviation, columns, residual]

    def row(p, audited: list | str) -> dict:
        """The point's report row, its determinant taken in the parent."""
        if not isinstance(audited, str):
            deviation, columns, residual = audited
            try:
                det_error = abs(chart_jacobian_determinant(columns) - 1.0)
            except ArithmeticError as exc:
                audited = f"{type(exc).__name__}: {exc}"
            else:
                return {"point": str(p), "deviation": deviation,
                        "det_error": det_error, "surface_residual": residual,
                        "ok": deviation <= tol and det_error <= det_tol
                        and residual <= 1e-8}
        return {"point": str(p), "deviation": math.nan,
                "det_error": math.nan, "surface_residual": math.nan,
                "ok": False, "error": audited}

    t0 = time.perf_counter()
    rows = [row(p, audited)
            for p, audited in zip(kept, map_on_cpus(audit, kept))]
    elapsed = time.perf_counter() - t0

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
    write_json(out / "timings.json", {
        "total": elapsed, "chart_determinants": sum(
            "error" not in r for r in rows),
        "audits": _cpu_split(len(kept))})
    write_delimited(out / "flow_errors.csv",
                    ["point", "deviation", "det_error", "surface_residual",
                     "ok"],
                    [(r["point"], r["deviation"], r["det_error"],
                      r["surface_residual"], r["ok"]) for r in rows])
    if not args.no_figures:
        render_flow_figure(out / "flow_errors.svg", rows)

    def worst(key: str) -> float:                 # a failed (NaN) row is worst
        values = [r[key] for r in rows]
        return math.nan if not values or any(map(math.isnan, values)) \
            else max(values)

    kind = "closed form" if flow_map.symbolic else "numeric fallback"
    print(f"flow: {kind}, side {fs.side}, t = {fs.time}, "
          f"{len(rows)} points audited")
    print(f"worst deviation {worst('deviation'):.3e} (tol {tol:.1e}), "
          f"worst |det - 1| {worst('det_error'):.3e} (tol {det_tol:.1e})")
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

    pairs = [lift_pair(spec.alpha, spec.beta, spec.kernel_alpha,
                       spec.kernel_beta, spec.ideal_or_unit(ctx.base_ring),
                       ctx, ideal_bound=scenario.degree_bound)
             for spec in scenario.pairs]
    target = scenario.approx.field
    samples = sample_points(ctx, scenario.sampling)
    chart_point = next((p for p in samples
                        if abs(complex(p.complex_coords()[0])) >= 0.25), None)

    marks = [time.perf_counter()]     # the volume audit runs beside the fit
    with (nullcontext() if chart_point is None else
          volume_audit(target, ctx, chart_point)) as volume_wait:
        curve, dictionary, fit = residual_curve(target, ctx, pairs, samples,
                                                degrees)
        marks.append(time.perf_counter())
        audits = flow_deviation_audit(target, dictionary, fit, samples[:5])
        marks.append(time.perf_counter())
        volume = volume_wait() if volume_wait else None
        marks.append(time.perf_counter())
    stages = dict(zip(("residual_curve", "flow_audit", "volume_wait"),
                      [b - a for a, b in zip(marks, marks[1:])]))

    curve_ok = all(b["sup_residual"] <= a["sup_residual"] + CURVE_SLACK
                   for a, b in zip(curve, curve[1:]))
    audit_ok = all(a["ok"] for a in audits)
    volume_tol = VOLUME_TOL if args.tol is None else args.tol
    volume_ok = volume is None or volume["error"] <= volume_tol

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
    write_json(out / "timings.json", {
        "total": marks[-1] - marks[0], "stages": stages,
        "flow_audit": _cpu_split(AUDIT_CHECKPOINTS * len(audits))})
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
        render_curve_figure(out / "residuals.svg", curve)

    for row in curve:
        print(f"degree {row['degree']}: {row['entries']} entries, "
              f"sup residual {row['sup_residual']:.3e}")
    print(f"curve non-increasing: {curve_ok}; flow audit ok: {audit_ok}"
          + (f"; volume audit error {volume['error']:.3e}" if volume else ""))
    print(f"report written to {out}")
    return 0 if ok else 1

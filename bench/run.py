"""End-to-end benchmark of the suspvdp command line.

Usage (from the repository root):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Each workload is one `suspvdp` subcommand on a bundled scenario, run with
`--no-figures` in a fresh child process (`bench/child.py`), one child at a
time, with BLAS pinned to one thread.  `--seed` goes to the program as its
`--seed`; without it every workload uses its scenario's own seed.  The
child is re-run until `--seconds` have passed, and every run's reports are
checked (see `Workload.check`).  The metric names and units are the ones
listed in `BENCHMARK.json`.

With `--trace 0` the end-to-end metrics are reported: the median handler
wall time, the median set-up time (spawn until `import suspvdp.cli`
returns, sampled by extra set-up-only children as well) and the median
peak RSS.  With `--trace 1` the same untraced loop runs, followed by two
traced children whose per-layer metrics (`bench/layers.py`) are reported;
their deterministic work counters must agree exactly.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from layers import DETERMINISTIC

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUPS_PER_RUN = 3        # set-up-only children after each workload run
MIN_RUNS = 3              # workload runs per measurement, even past --seconds
TRACED_RUNS = 2           # traced runs whose counters must agree
TRACE_COST = 2.0          # a traced run's time, at most, over an untraced one
DEADLINE_S = 170.0        # one workload's measurement, children included


def _load_json(path: Path):
    with path.open() as fh:
        return json.load(fh)


def _check_criterion(verdict: str, samples: int | None):
    def check(out: Path) -> list[str]:
        report = _load_json(out / "criterion.json")
        problems = []
        if report["verdict"] != verdict:
            problems.append(f"verdict {report['verdict']!r}, "
                            f"expected {verdict!r}")
        if report["problems"]:
            problems.append(f"problems {report['problems'][:2]}")
        if samples is not None and len(report["ranks"]) != samples:
            problems.append(f"{len(report['ranks'])} rank rows, "
                            f"expected {samples}")
        return problems
    return check


def _check_flow(samples: int):
    def check(out: Path) -> list[str]:
        report = _load_json(out / "flow.json")
        problems = []
        if report["ok"] is not True:
            problems.append("flow report is not ok")
        if report["symbolic"] is not False:
            problems.append("flow took the closed form, expected the "
                            "numeric fallback")
        if report["points_sampled"] != samples:
            problems.append(f"{report['points_sampled']} points sampled, "
                            f"expected {samples}")
        audited = report["points_audited"]
        if not 1 <= audited <= samples or audited != len(report["rows"]):
            problems.append(f"{audited} points audited with "
                            f"{len(report['rows'])} rows")
        return problems
    return check


def _check_approx(entries: int, degrees: list[int]):
    def check(out: Path) -> list[str]:
        report = _load_json(out / "approx.json")
        problems = []
        for flag in ("ok", "curve_non_increasing", "flow_audit_ok"):
            if report[flag] is not True:
                problems.append(f"approx report has {flag} = {report[flag]}")
        if report.get("volume_audit", {}).get("ok") is not True:
            problems.append("volume audit missing or not ok")
        if report["entries"] != entries:
            problems.append(f"{report['entries']} dictionary entries, "
                            f"expected {entries}")
        got = [row["degree"] for row in report["curve"]]
        if got != degrees:
            problems.append(f"curve degrees {got}, expected {degrees}")
        return problems
    return check


@dataclass(frozen=True)
class Workload:
    """One CLI invocation and what a correct run of it produces."""

    argv: tuple[str, ...]
    default_seed: int               # the scenario's own sampling seed
    exit_code: int
    check: Callable[[Path], list[str]]
    # sha256 of each deterministic report at the default seed, recorded
    # from the package before any benchmarked optimisation
    digests: dict[str, str]


# Why each workload exists, and which layers it stresses or bypasses, is
# recorded in bench/BASELINE.md.
WORKLOADS = {
    "certify-deep": Workload(
        ("criterion", "--scenario", "hyperbola", "--degree-bound", "6"),
        default_seed=3, exit_code=1,
        check=_check_criterion("inconclusive", None),
        digests={
            "criterion.json":
                "db3d9b3069433a8ba05ea4d84a4afa91c53c5e984518fb3d429a721c759b841e",
            "ranks.csv":
                "c396f99eb413790ae8b7eeab74820118316ba6ec17be13991ebe1b809c083b16",
        }),
    "rank-wide": Workload(
        ("criterion", "--scenario", "plane", "--samples", "200"),
        default_seed=0, exit_code=0,
        check=_check_criterion("certified-at-samples", 200),
        digests={
            "criterion.json":
                "bad93022247407cff9d472f86a35574d186727dac2855c57c2234c32af42f594",
            "ranks.csv":
                "3abafe8fcbb9047c1dfdfda0c56b1bbeba8befc471b9b5122b325516bca7dfc2",
        }),
    "flow-numeric": Workload(
        ("flow", "--scenario", "circle", "--samples", "6"),
        default_seed=2, exit_code=0,
        check=_check_flow(6),
        digests={
            "flow.json":
                "31955c60a0d0610a437008c502b150488b7de97b086fa51e10f80c3857eca9c2",
            "flow_errors.csv":
                "6fff85a4a63d8fd5c8addc5db72abc33c3bd0b82f93b2fc99fa330ae5ef94931",
        }),
    "approx-fit": Workload(
        ("approx", "--scenario", "plane"),
        default_seed=0, exit_code=0,
        check=_check_approx(54, [0, 1, 2]),
        digests={
            "approx.json":
                "5d510bcba7b7c7be07f0a273cf77ee3630de26cb53cfc291af78de55cd33b120",
            "residuals.csv":
                "fbb3bf8dcde2e32cbd1bf52880f1ca16baf410157b9739cae829298020547da4",
            "flow_audit.csv":
                "b7487291a68d9848e5ef5e83476cb465cfa73f7d30344f78927fbc0396c7e775",
        }),
}


@dataclass
class Child:
    """What one child reported, and when it finished importing."""

    result: dict
    stdout: str
    setup_s: float            # spawn until `import suspvdp.cli` returned


class Runner:
    """Spawns children one at a time and keeps a measurement in bounds."""

    def __init__(self):
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, mode: str, argv=(), out: Path | None = None) -> Child:
        OUT.mkdir(parents=True, exist_ok=True)
        result_path = OUT / "child.json"
        result_path.unlink(missing_ok=True)
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
            argv = [*argv, "--out", str(out)]
        if self.remaining() <= 0:
            raise RuntimeError("out of time before spawning a child")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(result_path), mode, *argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise RuntimeError("out of time in a child") from None
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"child failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-2000:]}")
        result = _load_json(result_path)
        if Path(result["package"]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"measured {result['package']}, "
                               f"not the package under {SRC}")
        return Child(result, proc.stdout, result["imported"] - spawned)


def _digests(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


@dataclass
class Tally:
    walls: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_digests: dict | None = None


def _invoke(runner: Runner, name: str, wl: Workload, seed: int, mode: str,
            tally: Tally) -> None:
    """One checked workload run, recorded in `tally`."""
    out = OUT / name
    child = runner.spawn(
        mode, [*wl.argv, "--seed", str(seed), "--no-figures"], out)
    result = child.result
    tally.attempted += 1
    problems = []
    if result["exit"] != wl.exit_code:
        problems.append(f"exit {result['exit']}, expected {wl.exit_code}")
    try:
        problems += wl.check(out)
        digests = _digests(out, wl.digests)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
        digests = {}
    if tally.first_digests is None:
        tally.first_digests = digests
    elif digests != tally.first_digests:
        problems.append("reports differ from the first run at this seed")
    if seed == wl.default_seed and digests != wl.digests:
        problems.append("reports differ from the recorded default-seed "
                        "reports")
    if problems:
        tally.failed += 1
        print(f"{name}: run {tally.attempted} failed: {'; '.join(problems)}",
              file=sys.stderr)
        if child.stdout.strip():
            print(child.stdout.strip()[-1000:], file=sys.stderr)
    if mode == "trace":
        tally.traces.append(result["trace"])
    else:
        tally.walls.append(result["wall_s"])
        tally.rss_mb.append(result["maxrss_kb"] / 1024)


def measure(runner: Runner, name: str, seed: int, seconds: float,
            trace: bool) -> Tally:
    wl = WORKLOADS[name]
    tally = Tally()
    runner.spawn("setup")                      # warm-up: bytecode caches
    started = time.monotonic()
    durations = []
    # with --trace 1 the traced runs are kept inside --seconds as well
    reserve = TRACED_RUNS * TRACE_COST if trace else 0.0
    while True:
        t0 = time.monotonic()
        _invoke(runner, name, wl, seed, "run", tally)
        for _ in range(SETUPS_PER_RUN):
            tally.setups.append(runner.spawn("setup").setup_s)
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - started
        if len(durations) >= MIN_RUNS and \
                elapsed + (1 + reserve) * statistics.median(durations) \
                > seconds:
            break
    if trace:
        for _ in range(TRACED_RUNS):
            _invoke(runner, name, wl, seed, "trace", tally)
        first = tally.traces[0]
        for other in tally.traces[1:]:
            differ = [k for k in DETERMINISTIC if other[k] != first[k]]
            if differ:
                tally.failed += 1
                print(f"{name}: deterministic counters differ between "
                      f"traced runs: {differ}", file=sys.stderr)
    return tally


def _metrics(tally: Tally, trace: bool) -> dict[str, float]:
    wall = statistics.median(tally.walls)
    if not trace:
        return {"wall_s": wall,
                "setup_s": statistics.median(tally.setups),
                "peak_rss_mb": statistics.median(tally.rss_mb)}
    names = tally.traces[0].keys()
    out = {k: statistics.median_low(t[k] for t in tally.traces)
           for k in names}
    out["cli.trace_overhead_s"] = out["cli.handler_s"] - wall
    return out


def _environment() -> str:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        import matplotlib                      # noqa: F401
        mpl = "present"
    except ImportError:
        mpl = "absent"
    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"numpy {numpy_version}, matplotlib {mpl}, BLAS threads 1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="program seed (default: each scenario's own)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "suspvdp" / "cli.py").is_file():
        print(f"error: no suspvdp package under {SRC}", file=sys.stderr)
        return 2
    spec = _load_json(ROOT / "BENCHMARK.json")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"environment: {_environment()}")
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None \
            else args.seed
        try:
            tally = measure(Runner(), name, seed, args.seconds,
                            bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        got = _metrics(tally, bool(args.trace))
        missing = set(units) - set(got)
        if missing:
            print(f"error: BENCHMARK.json metrics {sorted(missing)} were not "
                  "measured", file=sys.stderr)
            return 1
        print(f"{name} (seed {seed}): {tally.attempted} runs, fail_rate "
              f"{tally.failed / tally.attempted}; wall_s per run "
              f"{' '.join(f'{w:.3f}' for w in tally.walls)}; "
              f"{len(tally.setups)} set-up-only children")
        for metric in units:
            print(f"  {metric} {got[metric]} {units[metric]}")
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: {"value": got[k], "unit": units[k]}
                        for k in units})
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line behavior: exit codes, report files, determinism."""

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import suspvdp
from suspvdp import cli, lifts
from suspvdp.approx import ApproxError
from suspvdp.cli import main

BAD_PAIR = """
n = 2
f = z1

[pair]
alpha = [z1, 0]
beta = [0, 1]

[sampling]
count = 4
"""


def run(args):
    return main(args)


def test_criterion_plane_certifies(tmp_path):
    out = tmp_path / "c"
    code = run(["criterion", "--scenario", "plane", "--samples", "8",
                "--out", str(out), "--no-figures"])
    assert code == 0
    doc = json.loads((out / "criterion.json").read_text())
    assert doc["verdict"] == "certified-at-samples"
    assert all(r["full"] for r in doc["ranks"])
    assert "timings" not in doc
    lines = (out / "ranks.csv").read_text().splitlines()
    assert lines[0] == "point,rank,full" and len(lines) == 9


def test_criterion_unasserted_cohomology_is_inconclusive(tmp_path):
    out = tmp_path / "c"
    code = run(["criterion", "--scenario", "circle", "--samples", "5",
                "--out", str(out), "--no-figures"])
    assert code == 1
    doc = json.loads((out / "criterion.json").read_text())
    assert doc["verdict"] == "inconclusive"
    assert doc["problems"] == []


def test_criterion_bad_pair_fails(tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text(BAD_PAIR)
    out = tmp_path / "c"
    code = run(["criterion", "--scenario", str(scn), "--out", str(out),
                "--no-figures"])
    assert code == 1
    doc = json.loads((out / "criterion.json").read_text())
    assert doc["verdict"] == "failed"
    assert any("volume preserving" in p for p in doc["problems"])


def test_flow_plane(tmp_path):
    out = tmp_path / "f"
    code = run(["flow", "--scenario", "plane", "--samples", "6",
                "--out", str(out), "--no-figures"])
    assert code == 0
    doc = json.loads((out / "flow.json").read_text())
    assert doc["ok"] is True and doc["symbolic"] is True
    assert (out / "flow_errors.csv").exists()
    assert not (out / "flow_errors.svg").exists()


def test_flow_locally_nilpotent_field_takes_the_closed_form(tmp_path):
    # not a shear chain, yet its lift's series terminates; the closed-form
    # end points lie on the surface, and the run still fails on its
    # fixed-step references (an RK4 deviation of up to 5.3e-8 against
    # 1e-9, a central-difference determinant off by up to 8.1e-7 against
    # 1e-8), which the audit's error control has yet to address
    scn = tmp_path / "nilpotent.scn"
    scn.write_text(_bundled_text(
        "plane", "field = [1, 0]\nside = u\ntime = 1\n",
        "field = [2*z2 - 2*z1^2, 1 + 4*z1*z2 - 4*z1^3]\nside = u\n"
        "time = 1/2\n"))
    out = tmp_path / "f"
    code = run(["flow", "--scenario", str(scn), "--samples", "6",
                "--out", str(out), "--no-figures"])
    assert code == 1
    doc = json.loads((out / "flow.json").read_text())
    assert doc["symbolic"] is True and doc["points_audited"] == 6
    assert all(r["surface_residual"] <= 1e-8 for r in doc["rows"])


def test_flow_numeric_fallback(tmp_path):
    out = tmp_path / "f"
    code = run(["flow", "--scenario", "circle", "--samples", "5",
                "--out", str(out), "--no-figures"])
    assert code == 0
    doc = json.loads((out / "flow.json").read_text())
    assert doc["symbolic"] is False
    # one audit job per point, split over the processes of `map_on_cpus`
    timings = json.loads((out / "timings.json").read_text())
    assert timings["chart_determinants"] == doc["points_audited"]
    audits = timings["audits"]
    assert audits["jobs"] == doc["points_audited"]
    assert sum(audits["jobs_per_worker"]) == audits["jobs"]
    assert audits["workers"] == len(audits["jobs_per_worker"])


def _flow_reports(out: Path) -> dict:
    return {name: (out / name).read_bytes()
            for name in ("flow.json", "flow_errors.csv")}


def _in_process(monkeypatch):
    """Every map of the run in one block and a fork that fails the run,
    so every job runs in this process."""
    def no_fork():
        raise AssertionError("a map forked")

    monkeypatch.setattr(lifts, "cpu_blocks", lambda count: [count])
    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("args", [["hyperbola"], ["circle", "--samples", "4"]],
                         ids=["closed-form", "numeric-fallback"])
def test_flow_reports_are_the_same_in_process(tmp_path, monkeypatch, args):
    # a point's audit comes back from a worker through marshal: the
    # forked run and the in-process one must write the same bytes
    command = ["flow", "--scenario", *args, "--no-figures", "--out"]
    assert run(command + [str(tmp_path / "forked")]) == 0
    _in_process(monkeypatch)
    assert run(command + [str(tmp_path / "serial")]) == 0
    assert _flow_reports(tmp_path / "serial") == \
        _flow_reports(tmp_path / "forked")
    assert_no_child_left()


def test_approx_plane_with_figures(tmp_path):
    out = tmp_path / "a"
    code = run(["approx", "--scenario", "plane", "--samples", "8",
                "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "approx.json").read_text())
    assert doc["ok"] is True
    assert doc["curve_non_increasing"] is True
    assert doc["sup_residual"] <= 1e-10      # twist target is in the span
    assert doc["volume_audit"]["ok"] is True
    assert (out / "residuals.csv").exists()
    assert (out / "residuals.svg").exists()
    assert (out / "flow_audit.csv").exists()
    # the sidecar records how the audits' jobs were split over processes
    timings = json.loads((out / "timings.json").read_text())
    split = timings["flow_audit"]
    assert split["jobs"] == 20 and sum(split["jobs_per_worker"]) == 20
    assert split["workers"] == len(split["jobs_per_worker"])


def test_approx_timings_record_the_stages(tmp_path):
    out = tmp_path / "a"
    assert run(["approx", "--scenario", "plane", "--samples", "8",
                "--out", str(out), "--no-figures"]) == 0
    timings = json.loads((out / "timings.json").read_text())
    stages = timings["stages"]
    assert set(stages) == {"residual_curve", "flow_audit", "volume_wait"}
    assert all(s >= 0 for s in stages.values())
    assert timings["total"] == pytest.approx(sum(stages.values()))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_approx_run_failing_after_the_fork_reaps_its_worker(
        tmp_path, capsys, monkeypatch):
    # two CPUs, so the volume audit forks its worker before the fit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    def failing_fit(*args):
        assert forks, "the volume audit's worker was not forked"
        raise ApproxError("the target is not volume preserving")

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(cli, "residual_curve", failing_fit)
    assert run(["approx", "--scenario", "plane", "--out",
                str(tmp_path / "a"), "--no-figures"]) == 2
    assert "not volume preserving" in capsys.readouterr().err
    assert_no_child_left()


def test_approx_reports_are_the_same_without_fork(tmp_path, monkeypatch):
    def reports(out):
        return {name: (out / name).read_bytes() for name in
                ("approx.json", "residuals.csv", "flow_audit.csv")}

    def no_process():
        raise OSError("no process")

    args = ["approx", "--scenario", "plane", "--no-figures", "--out"]
    assert run(args + [str(tmp_path / "forked")]) == 0
    monkeypatch.setattr(os, "fork", no_process)
    assert run(args + [str(tmp_path / "serial")]) == 0
    assert reports(tmp_path / "serial") == reports(tmp_path / "forked")
    assert_no_child_left()


def test_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = run(["approx", "--scenario", "danielewski", "--samples", "6",
                    "--out", str(out), "--no-figures"])
        assert code == 0
    assert (out1 / "approx.json").read_bytes() == \
        (out2 / "approx.json").read_bytes()
    assert (out1 / "residuals.csv").read_bytes() == \
        (out2 / "residuals.csv").read_bytes()


def test_each_run_parses_its_scenario_once(tmp_path, monkeypatch):
    # one suspension context per run, and approx builds its target field
    # once, at load
    import suspvdp.scenario as scenario_mod
    import suspvdp.surface as surface_mod

    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module in (surface_mod, scenario_mod):
        monkeypatch.setattr(module, "make_suspension",
                            counting("context", module.make_suspension))
    monkeypatch.setattr(scenario_mod, "twist_field",
                        counting("target", scenario_mod.twist_field))
    for command in ("criterion", "approx"):
        calls.clear()
        assert run([command, "--scenario", "plane", "--samples", "4",
                    "--out", str(tmp_path / command), "--no-figures"]) == 0
        assert calls.count("context") == 1, command
        assert calls.count("target") == 1, command


def test_parse_error_exits_two(tmp_path, capsys):
    scn = tmp_path / "broken.scn"
    scn.write_text("n = 2\nf = z1^\n")
    code = run(["criterion", "--scenario", str(scn), "--out",
                str(tmp_path / "o"), "--no-figures"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err
    assert not (tmp_path / "o" / "fault.txt").exists()


@pytest.mark.parametrize("command", ["criterion", "flow", "approx"])
@pytest.mark.parametrize("old, new, message", [
    # every sampled point is exact: there is no sampling mode to choose
    ("region = -2 .. 2", "region = -2 .. 2\nexactness = exact",
     "line 19: unknown key 'exactness' at section [sampling]"),
    ("ideal = 1", "ideal = 0; 0",
     "line 13: the proposed ideal has no nonzero generator"),
], ids=["exactness-key", "zero-ideal"])
def test_a_rejected_scenario_line_exits_two(tmp_path, capsys, command, old,
                                            new, message):
    scn = tmp_path / "bad.scn"
    scn.write_text(_bundled_text("plane", old, new))
    out = tmp_path / "o"
    code = run([command, "--scenario", str(scn), "--out", str(out),
                "--no-figures"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "fault.txt").exists()


UNANNIHILATED_KERNEL = """
n = 2
f = z1

[pair]
alpha = [1, 0]
beta = [0, 1]
kernel_alpha = z1
"""

# u = 0 at every draw: denominators 1..3 leave no nonzero numerator
EMPTY_CHART = """
n = 2
f = z1

[pair]
alpha = [1, 0]
beta = [0, 1]

[sampling]
region = 0 .. 1/10
"""


@pytest.mark.parametrize("command, text, message", [
    ("approx", UNANNIHILATED_KERNEL, "not annihilated by the field: z1"),
    ("approx", BAD_PAIR, "dictionary entry has divergence"),
    ("flow", EMPTY_CHART,
     "stopped after 10000 rejected draws; rejections: {'u_nonzero': 10000}"),
], ids=["kernel-not-annihilated", "base-field-not-divergence-free",
        "no-sample-off-u-zero"])
def test_unusable_input_is_an_error_not_a_fault(tmp_path, capsys, command,
                                                 text, message):
    scn = tmp_path / "input.scn"
    scn.write_text(text)
    code = run([command, "--scenario", str(scn), "--out",
                str(tmp_path / "o"), "--no-figures"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _bundled_text(name: str, old: str, new: str) -> str:
    text = (resources.files("suspvdp") / "scenarios" / f"{name}.scn"
            ).read_text()
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("command", ["approx", "flow"])
def test_wide_region_gives_a_verdict(tmp_path, capsys, command):
    # exact draws over a wide region give large coordinates; the run
    # still ends with a verdict, not a fault
    scn = tmp_path / "wide.scn"
    scn.write_text(_bundled_text(
        "hyperbola", "region = -2 .. 2", "region = -1000 .. 1000"))
    out = tmp_path / "o"
    code = run([command, "--scenario", str(scn), "--samples", "3",
                "--out", str(out), "--no-figures"])
    assert code == 1
    assert "internal fault" not in capsys.readouterr().err
    assert json.loads((out / f"{command}.json").read_text())["ok"] is False


@pytest.mark.parametrize("time_text", ["1000", "2000"])
def test_diverging_numeric_flow_is_a_failed_row(tmp_path, capsys, monkeypatch,
                                                time_text):
    # the rotation field's RK4 flow blows up at long times: overflow on
    # the way, or a NaN end point off the surface
    scn = tmp_path / "long.scn"
    scn.write_text(_bundled_text("circle", "time = 1/4",
                                 f"time = {time_text}"))
    out = tmp_path / "o"
    code = run(["flow", "--scenario", str(scn), "--samples", "2",
                "--out", str(out), "--no-figures"])
    assert code == 1
    captured = capsys.readouterr()
    assert "internal fault" not in captured.err
    assert "worst deviation nan" in captured.out
    doc = json.loads((out / "flow.json").read_text())
    assert doc["ok"] is False and doc["points_audited"] == 2
    failed = [r for r in doc["rows"] if "error" in r]
    assert failed and all(not r["ok"] for r in failed)
    assert {r["error"].split(":")[0] for r in failed} <= {
        "OverflowError", "SuspensionError"}
    assert failed[0]["deviation"] == "nan"
    assert len((out / "flow_errors.csv").read_text().splitlines()) == 3
    # at 4 points a second CPU's block holds failed rows: the error text
    # its worker sends back is the text of an in-process run
    command = ["flow", "--scenario", str(scn), "--samples", "4",
               "--no-figures", "--out"]
    assert run(command + [str(tmp_path / "forked")]) == 1
    _in_process(monkeypatch)
    assert run(command + [str(tmp_path / "serial")]) == 1
    assert _flow_reports(tmp_path / "serial") == \
        _flow_reports(tmp_path / "forked")


def test_internal_fault_leaves_a_traceback(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_vdp_criterion", broken)
    out = tmp_path / "o"
    code = run(["criterion", "--scenario", "plane", "--out", str(out),
                "--no-figures"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "internal fault: RuntimeError: boom\n"
    fault = (out / "fault.txt").read_text()
    assert fault.startswith("Traceback (most recent call last):")
    assert "in broken" in fault and fault.endswith("RuntimeError: boom\n")
    monkeypatch.undo()
    assert run(["criterion", "--scenario", "plane", "--samples", "4",
                "--out", str(out), "--no-figures"]) == 0
    assert not (out / "fault.txt").exists()


@pytest.mark.parametrize("args", [
    ["criterion", "--samples", "0"],
    ["criterion", "--samples", "-3"],
    ["criterion", "--degree-bound", "-1"],
    ["approx", "--degree-bound", "-1"],
    ["flow", "--samples", "-1"],
])
def test_out_of_range_override_is_a_usage_error(tmp_path, capsys, args):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(args + ["--scenario", "plane", "--out", str(out),
                    "--no-figures"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "expected an integer >=" in captured.err
    assert "internal fault" not in captured.err
    assert "certified-at-samples" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("inside", [False, True], ids=["file", "below-file"])
def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys, inside):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "o" if inside else taken
    with pytest.raises(SystemExit) as exc:
        run(["criterion", "--scenario", "plane", "--out", str(out),
             "--no-figures"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --out: expected a directory path" in err
    assert "internal fault" not in err and "fault.txt" not in err
    assert taken.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("command", ["flow", "approx"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, command,
                                               tol):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run([command, "--scenario", "plane", "--tol", tol, "--out", str(out),
             "--no-figures"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "expected a finite number > 0" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unknown_scenario_exits_two(tmp_path):
    code = run(["flow", "--scenario", "nope", "--out", str(tmp_path / "o")])
    assert code == 2


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'verify'" in captured.err
    assert captured.out == ""
    assert not out.exists()


# every option each subcommand reads, and no other
OPTIONS = {
    "criterion": {"--scenario", "--degree-bound", "--samples", "--seed",
                  "--out", "--no-figures"},
    "flow": {"--scenario", "--samples", "--seed", "--tol", "--out",
             "--no-figures"},
    "approx": {"--scenario", "--degree-bound", "--samples", "--seed", "--tol",
               "--out", "--no-figures"},
}


def _subparsers() -> dict:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_each_subcommand_offers_exactly_the_options_it_reads():
    subparsers = _subparsers()
    offered = {name: {s for a in p._actions for s in a.option_strings}
               - {"-h", "--help"} for name, p in subparsers.items()}
    assert offered == OPTIONS
    # one settable value per option
    values = {name: {a.dest for a in p._actions} - {"help"}
              for name, p in subparsers.items()}
    assert sum(map(len, values.values())) == 19


@pytest.mark.parametrize("command, flag", [
    ("criterion", ["--tol", "1e-3"]), ("criterion", ["--exact"]),
    ("criterion", ["--float"]),
    ("flow", ["--degree-bound", "3"]), ("flow", ["--float"]),
    ("approx", ["--exact"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(
        tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run([command, "--scenario", "plane", *flag, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_the_benchmark_workloads_still_parse(tmp_path, monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))   # bench/run.py imports layers
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)   # dataclasses
    spec.loader.exec_module(module)
    assert len(module.WORKLOADS) == 4
    parser = cli.build_parser()
    for workload in module.WORKLOADS.values():
        args = parser.parse_args([*workload.argv, "--seed", "5",
                                  "--no-figures", "--out", str(tmp_path)])
        assert args.seed == 5 and args.no_figures
        assert args.handler is getattr(cli, f"_cmd_{args.command}")


def _loaded_after(module: str, candidates: tuple[str, ...]) -> list[str]:
    """Which of `candidates` a fresh interpreter has loaded after
    importing `module`."""
    src = str(Path(suspvdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import sys, {module}; print(sorted(m for m in sys.modules "
             f"if m in {candidates!r}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(done.stdout)


def test_cli_import_leaves_stage_modules_unloaded():
    # the rank screen is imported by the stage that runs it, the audits
    # fork their workers without a process pool, and the figures escape
    # their text without xml.sax (which loads urllib.request), which keeps
    # start-up short
    assert _loaded_after("suspvdp.cli", (
        "suspvdp.modrank", "multiprocessing", "concurrent.futures", "xml",
        "urllib.request")) == []


def test_the_cpu_map_loads_no_pool_and_no_pickle():
    # numpy loads pickle for `import suspvdp.cli`; the module of the map
    # does without numpy, and its workers send results with marshal
    assert _loaded_after("suspvdp.lifts", (
        "numpy", "multiprocessing", "concurrent.futures", "pickle")) == []

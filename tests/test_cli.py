"""Command-line behavior: exit codes, report files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import suspvdp
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


def test_verify_exits_zero(tmp_path):
    out = tmp_path / "v"
    code = run(["verify", "--samples", "25", "--out", str(out),
                "--no-figures"])
    assert code == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["ok"] is True
    assert {s["name"] for s in doc["suites"]} >= {"cartan", "jacobi"}
    assert (out / "suites.csv").exists()
    assert (out / "timings.json").exists()


def test_verify_with_scenario_adds_lift_checks(tmp_path):
    out = tmp_path / "v"
    code = run(["verify", "--scenario", "danielewski", "--samples", "10",
                "--out", str(out), "--no-figures"])
    assert code == 0
    doc = json.loads((out / "verify.json").read_text())
    names = [s["name"] for s in doc["suites"]]
    assert "scenario-pair0-lifts" in names


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
    assert not (out / "flow_errors.png").exists()


def test_flow_numeric_fallback(tmp_path):
    out = tmp_path / "f"
    code = run(["flow", "--scenario", "circle", "--samples", "5",
                "--out", str(out), "--no-figures"])
    assert code == 0
    doc = json.loads((out / "flow.json").read_text())
    assert doc["symbolic"] is False


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
    assert (out / "residuals.png").exists()
    assert (out / "flow_audit.csv").exists()


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
    monkeypatch.setattr(scenario_mod, "tangent_field",
                        counting("target", scenario_mod.tangent_field))
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
    ("flow", EMPTY_CHART, "exhausted 10000 sampling attempts"),
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


@pytest.mark.parametrize("args", [
    ["criterion", "--samples", "0"],
    ["criterion", "--samples", "-3"],
    ["criterion", "--degree-bound", "-1"],
    ["approx", "--degree-bound", "-1"],
    ["verify", "--samples", "-1"],
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


def test_cli_import_leaves_stage_modules_unloaded():
    # the rank screen, the identity suites and the random generators are
    # imported by the stages that run them, which keeps start-up short
    src = str(Path(suspvdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, suspvdp.cli; print(sorted(m for m in sys.modules "
             "if m in ('suspvdp.modrank', 'suspvdp.identities', "
             "'suspvdp.randgen')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"

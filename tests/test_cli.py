"""End-to-end CLI behavior: argument handling, config files, report files,
demo replay, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hhverify import CampaignConfig, run_campaign
from hhverify.campaign import DROP_POSITIVITY, derive_trial_seed
from hhverify.cli import main

VERIFY_SMALL = ["verify", "--theorem", "scalar_ag", "--trials", "5", "--dim", "2,3", "--seed", "7"]


def _demo_json(out: str) -> dict:
    # demo prints the text block, then one JSON object starting at the line "{"
    idx = out.index("\n{\n")
    return json.loads(out[idx:])


def test_verify_small_run_clean(capsys):
    assert main(VERIFY_SMALL) == 0
    out = capsys.readouterr().out
    assert "hhverify " in out
    assert "scalar_ag" in out
    assert "PASS" in out
    assert "exit code 0" in out
    assert "repro" not in out


def test_verify_report_file_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(VERIFY_SMALL + ["--out", str(p1)]) == 0
    assert main(VERIFY_SMALL + ["--out", str(p2)]) == 0
    capsys.readouterr()
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.endswith(b"\n")
    doc = json.loads(b1)
    assert doc["config"]["trials"] == 5
    assert doc["config"]["dims"] == [2, 3]
    assert list(doc["theorems"].keys()) == ["scalar_ag"]


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# campaign defaults\n"
        "theorem = scalar_means\n"
        "trials = 4\n"
        "dim = 2\n"
        "seed = 3\n"
        "quad-n = 32\n"
    )
    out_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfgfile), "--out", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["config"]["trials"] == 4
    assert doc["config"]["quad_n"] == 32
    assert list(doc["theorems"].keys()) == ["scalar_means"]


def test_cli_flag_overrides_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("theorem = scalar_means\ntrials = 4\ndim = 2\n")
    out_path = tmp_path / "report.json"
    assert main(
        ["verify", "--config", str(cfgfile), "--trials", "2", "--out", str(out_path)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["config"]["trials"] == 2  # CLI wins
    assert doc["config"]["dims"] == [2]  # file fills the rest


def test_config_file_errors_carry_line_numbers(tmp_path, capsys):
    cases = (
        ("broken line\n", "expected 'key = value'"),
        ("banana = 3\n", "unknown key"),
        ("trials =\n", "empty value"),
        ("trials = 3\ntrials = 4\n", "duplicate key"),
        ("trials = soon\n", "expected an integer"),
    )
    for body, needle in cases:
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(body)
        assert main(["verify", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and needle in err
        assert f"{cfgfile}:" in err  # file:line context
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_bad_flag_values_exit_two(capsys):
    cases = (
        ["verify", "--theorem", "nope"],
        ["verify", "--trials", "many"],
        ["verify", "--dim", "2.5"],
        ["verify", "--norm", "banana"],
        ["verify", "--fn", "banana"],
        ["verify", "--ablation", "DROP_GRAVITY"],
        ["verify", "--theorem", "uin_symmetric", "--nu", "0.5", "--trials", "1", "--dim", "2"],
        ["verify", "--theorem", "scalar_ag", "--ablation", "DROP_POSITIVITY"],
        ["verify", "--theorem", "dragomir", "--fn", "exp:1", "--trials", "1", "--dim", "2"],
        ["demo", "--theorem", "nope", "--seed", "1", "--dim", "2"],
        ["demo", "--theorem", "scalar_ag", "--seed", "x", "--dim", "2"],
        ["demo", "--theorem", "scalar_ag", "--seed", "1", "--dim", "0"],
        ["demo", "--theorem", "scalar_ag", "--seed", "1", "--dim", "2", "--ablation", "DROP_POSITIVITY"],
    )
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "configuration error:" in err, argv


def test_demo_prints_text_and_json(capsys):
    assert main(["demo", "--theorem", "scalar_ag", "--seed", "12345", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("theorem: scalar_ag")
    assert "passed=yes" in out
    payload = _demo_json(out)
    assert payload["type"] == "chain" and payload["passed"] is True


def test_demo_replays_reported_violation_with_exit_one(capsys):
    # find a failing seed by running the ablated campaign in-process
    cfg = CampaignConfig(
        theorem_ids=("det_ag",),
        trials=100,
        dims=(3,),
        master_seed=5,
        ablation=frozenset({DROP_POSITIVITY}),
    )
    st = run_campaign(cfg).stats[0]
    assert st.fail_count >= 1
    code = main(
        [
            "demo",
            "--theorem",
            "det_ag",
            "--seed",
            str(st.worst_trial_seed),
            "--dim",
            "3",
            "--ablation",
            "DROP_POSITIVITY",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "passed=no" in out
    payload = _demo_json(out)
    assert payload["passed"] is False
    assert payload["margin"] == st.min_margin


def test_verify_ablated_campaign_prints_repro_lines(capsys):
    code = main(
        [
            "verify",
            "--theorem",
            "det_ag",
            "--trials",
            "100",
            "--dim",
            "3",
            "--seed",
            "5",
            "--ablation",
            "DROP_POSITIVITY",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "EXPECTED_VIOLATION" in out
    assert "repro (det_ag): hhverify demo --theorem det_ag --seed" in out
    assert "--ablation DROP_POSITIVITY" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("hhverify ")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _run_with_closed_stdout(argv):
    """Run the CLI in a child process whose stdout pipe has no reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hhverify", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(tmp_path, capsys):
    demo = ["demo", "--theorem", "kittaneh", "--seed", "1", "--dim", "2"]
    want = main(demo)
    capsys.readouterr()
    code, err = _run_with_closed_stdout(demo)
    assert code == want
    assert "Traceback" not in err and "BrokenPipeError" not in err

    out = tmp_path / "report.json"
    verify = VERIFY_SMALL + ["--out", str(out)]
    want = main(verify[:-2])
    capsys.readouterr()
    code, err = _run_with_closed_stdout(verify)
    assert code == want
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert json.loads(out.read_text())["theorems"]["scalar_ag"]["trials_run"] == 10


def test_unwritable_report_path_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(VERIFY_SMALL + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: cannot write report file ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "theorem,fn",
    [
        ("scalar_ag", "exp:100"),
        ("op_gg_hh,op_ag_midpoint,op_norm_gg,phi_operator", "exp:100"),
        ("scalar_gg", "power:-400"),
    ],
)
def test_extreme_function_trials_are_unreliable_not_a_crash(theorem, fn, capsys):
    # exp:100 overflows on the convexity scan's fine grid, power:-400 in a
    # chain term: those trials land as unreliable, and the campaign exits 3
    argv = ["verify", "--theorem", theorem, "--fn", fn, "--trials", "5", "--dim", "2,3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "exit code 3" in captured.out


def test_demo_replays_an_extreme_function_trial_as_unreliable(capsys):
    # trial 4 at dim 2 of `verify --theorem scalar_ag --fn exp:100`
    seed = derive_trial_seed(0, 2, 4)
    argv = ["demo", "--theorem", "scalar_ag", "--fn", "exp:100", "--dim", "2", "--seed", str(seed)]
    # a trial that cannot be judged is not a pass
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "status: passed=no quad_reliable=no" in out
    payload = _demo_json(out)
    assert payload["quad_reliable"] is False and payload["passed"] is False


def test_extreme_function_campaign_prints_no_runtime_warnings():
    argv = [
        "verify", "--theorem", "op_gg_hh,phi_operator", "--fn", "exp:100",
        "--trials", "5", "--dim", "2,3",
    ]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "hhverify", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert "exit code 3" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_repeated_dimension_is_a_configuration_error(capsys):
    argv = ["verify", "--theorem", "scalar_means", "--trials", "3", "--dim", "2,2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: dimensions must not repeat")
    assert captured.err.count("\n") == 1
    assert captured.out == ""

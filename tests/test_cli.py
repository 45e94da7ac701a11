"""End-to-end CLI behavior: argument handling, config files, report files,
demo replay, and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hhverify
from hhverify import CampaignConfig, quadrature, run_campaign
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
        ["verify", "--theorem", "exp_norm", "--ablation", "DROP_CONVEXITY_GUARD"],
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


@pytest.mark.parametrize(
    "args",
    [
        "--theorem norm_power --rtol 1e-17 --atol 1e-300 --trials 200 --dim 2,3",
        "--theorem kittaneh --ablation DROP_POSITIVITY --nu 0.123456789 --trials 20 --dim 2",
    ],
)
def test_printed_repro_line_replays_the_worst_trial(args, tmp_path, capsys):
    report = tmp_path / "report.json"
    main(["verify", *args.split(), "--out", str(report)])
    out = capsys.readouterr().out
    (worst,) = json.loads(report.read_text())["theorems"].values()
    repro = out.split("): hhverify ", 1)[1].splitlines()[0]
    code = main(repro.split())
    payload = _demo_json(capsys.readouterr().out)
    assert payload["margin"] == worst["min_margin"]
    assert (code, payload["passed"]) == (1, False)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("hhverify ")


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]+)"$', text, re.M) == [hhverify.__version__]


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
    assert "status: passed=n/a quad_reliable=no" in out
    payload = _demo_json(out)
    assert payload["quad_reliable"] is False and payload["passed"] is False


def test_demo_of_a_trial_whose_doubling_check_fails_has_no_verdict(capsys, monkeypatch):
    # trial 6 at dim 3 of `verify --theorem op_norm_gg --ablation
    # DROP_COMMUTATIVITY`: its chain holds, but without bisection its
    # quadrature is unreliable at a kink of the curve
    monkeypatch.setattr(quadrature, "BISECT_DEPTH", 0)
    seed = derive_trial_seed(0, 3, 6)
    argv = [
        "demo", "--theorem", "op_norm_gg", "--ablation", "DROP_COMMUTATIVITY",
        "--dim", "3", "--seed", str(seed),
    ]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "status: passed=n/a quad_reliable=no hypothesis_ok=no" in out
    payload = _demo_json(out)
    # the JSON keeps the chain's own verdict
    assert payload["quad_reliable"] is False and payload["passed"] is True


# two campaigns whose norm curves kink inside a piece: the ablated
# op_norm_gg / exp_norm curves, integrated over [0, 1] without cuts, and the
# uin_* sandwich curves under the operator norm
_KINK_REPROS = {
    "nc_norm_gg": "--theorem op_norm_gg,exp_norm --ablation DROP_COMMUTATIVITY --trials 10",
    "uin_opnorm": (
        "--theorem uin_symmetric,uin_end_left,uin_end_right,uin_full,uin_diagonal"
        " --norm opnorm --nu 0.7 --trials 40"
    ),
}


@pytest.mark.parametrize("name", sorted(_KINK_REPROS))
def test_kink_repros_exit_0_with_no_unreliable_trial(name, tmp_path, monkeypatch, capsys):
    # bisection resolves every kinked piece; the unbisected rule leaves over
    # 1% of the trials unreliable, which exits 3
    out = tmp_path / "report.json"
    argv = ["verify", *_KINK_REPROS[name].split(), "--out", str(out)]
    assert main(argv) == 0
    stats = json.loads(out.read_text())["theorems"].values()
    assert sum(s["unreliable_count"] for s in stats) == 0
    monkeypatch.setattr(quadrature, "BISECT_DEPTH", 0)
    assert main(argv) == 3
    capsys.readouterr()


def _run_module(argv):
    """`python -m hhverify argv` in a child process, its stdout and stderr
    captured at the file descriptors, where native code writes too."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "hhverify", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_extreme_function_campaign_prints_no_runtime_warnings():
    proc = _run_module([
        "verify", "--theorem", "op_gg_hh,phi_operator", "--fn", "exp:100",
        "--trials", "5", "--dim", "2,3",
    ])
    assert proc.returncode == 3
    assert "exit code 3" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_an_ablated_norm_curve_that_underflows_to_zero_is_unreliable_not_a_crash():
    # under power:-1000 the norms of the ablated curve of trial 28 at dim 2
    # underflow to 0, whose log is undefined: the trial cannot be judged
    flags = ["--ablation", "DROP_COMMUTATIVITY", "--fn", "power:-1000", "--dim", "2"]
    proc = _run_module(["verify", "--theorem", "op_norm_gg,exp_norm", *flags, "--trials", "29"])
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3
    assert re.search(r"^op_norm_gg +29 +1 +0 +28 ", proc.stdout, re.M)
    seed = derive_trial_seed(0, 2, 28)
    assert seed == 8566339557522235370
    proc = _run_module(["demo", "--theorem", "op_norm_gg", *flags, "--seed", str(seed)])
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert "status: passed=n/a quad_reliable=no hypothesis_ok=no" in proc.stdout


def test_norms_of_overflowed_products_print_nothing_from_lapack():
    # under exp:100 the ablated products overflow; LAPACK's svd, given a
    # matrix that is not finite, writes "** On entry to DLASCL parameter
    # number 4 had an illegal value" to fd 1. Such a matrix has norm NaN, and
    # every trial is still unreliable
    proc = _run_module([
        "verify", "--theorem", "phi_operator,op_norm_gg", "--norm", "schatten:3",
        "--fn", "exp:100", "--ablation", "DROP_COMMUTATIVITY", "--trials", "5", "--dim", "3",
    ])
    assert proc.returncode == 3
    assert "On entry to" not in proc.stdout and "DLASCL" not in proc.stdout
    assert "total: 10 trials, 0 theorems with genuine violations, 100.00% unreliable" in proc.stdout
    assert proc.stdout.startswith("hhverify ")


def test_repeated_dimension_is_a_configuration_error(capsys):
    argv = ["verify", "--theorem", "scalar_means", "--trials", "3", "--dim", "2,2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: dimensions must not repeat")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


# one value per config key; each changes the report of the small base campaign
_KEY_VALUES = {
    "theorem": "kittaneh",
    "trials": "3",
    "dim": "3",
    "seed": "11",
    "rtol": "1e-7",
    "atol": "1e-11",
    "norm": "kyfan:1",
    "nu": "0.6",
    "fn": "power:-0.5",
    "quad-n": "16",
    "ablation": "DROP_POSITIVITY",
    "out": None,
}
_KEY_BASE = {"theorem": "det_ag,kittaneh", "trials": "2", "dim": "2"}


def _wall_free(text: str) -> str:
    return re.sub(r"wall time \d+ ms", "wall time N ms", text)


@pytest.mark.parametrize("key", sorted(_KEY_VALUES))
def test_each_config_key_gives_the_report_of_its_flag(key, tmp_path, capsys):
    def run(name, options, in_file=()):
        out = tmp_path / f"{name}.json"
        options = {**options, "out": str(out)}
        cfgfile = tmp_path / f"{name}.cfg"
        cfgfile.write_text("".join(f"{k} = {options[k]}\n" for k in in_file))
        argv = ["verify", "--config", str(cfgfile)]
        for k, v in options.items():
            if k not in in_file:
                argv += [f"--{k}", v]
        code = main(argv)
        return code, _wall_free(capsys.readouterr().out), out.read_bytes()

    options = dict(_KEY_BASE)
    if _KEY_VALUES[key] is not None:
        options[key] = _KEY_VALUES[key]
    by_flag = run("flag", options)
    assert run("file", options, in_file=(key,)) == by_flag
    if key != "out":
        assert by_flag[2] != run("base", _KEY_BASE)[2]


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, _wall_free(captured.out), captured.err


def _stand_alone(argv):
    proc = _run_module(argv)
    return proc.returncode, _wall_free(proc.stdout), proc.stderr


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # main builds its parser once per process; each call must still print
    # and return what the same command does in a fresh process
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("theorem = scalar_means\ntrials = 4\ndim = 2\nnu = 0.7\n")
    calls = (
        ["verify", "--config", str(cfgfile)],
        VERIFY_SMALL,
        ["demo", "--theorem", "kittaneh", "--seed", "1", "--dim", "2"],
        ["verify", "--trials", "many"],
        ["verify", "--bogus", "1"],
        VERIFY_SMALL,
    )
    in_process = [_in_process(argv, capsys) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 2, 0]
    assert in_process == [_stand_alone(argv) for argv in calls]

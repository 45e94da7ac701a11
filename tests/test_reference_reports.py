"""Reference reports: a refactor must leave the JSON report and the exit code
of each campaign below byte for byte as they are stored in
tests/data/reference/.

The stored files are the contract, so a change that means to alter a report
regenerates them on purpose and says why:

    PYTHONPATH=src python tests/test_reference_reports.py
"""

import sys
from pathlib import Path

import pytest

from hhverify import linalg
from hhverify.cli import main

REFERENCE_DIR = Path(__file__).parent / "data" / "reference"

# name -> (verify arguments, exit code)
REFERENCE_RUNS = {
    "all_seed12345": (
        "--theorem all --trials 3 --dim 2,3 --seed 12345",
        0,
    ),
    "drop_commutativity": (
        "--theorem all --ablation DROP_COMMUTATIVITY --trials 3 --dim 2,3",
        0,
    ),
    "dragomir_inverse": (
        "--theorem dragomir --fn inverse --trials 6 --dim 1,2,3,5,8 --quad-n 17",
        0,
    ),
    "drop_positivity_guard_power_m05": (
        "--theorem all --ablation DROP_POSITIVITY,DROP_CONVEXITY_GUARD --trials 3 --dim 2,3"
        " --fn power:-0.5",
        0,
    ),
    "kyfan2_nu07": (
        "--theorem op_norm_gg,exp_norm,trace_sqrt,trace_squared,uin_full,uin_end_left,kittaneh"
        " --norm kyfan:2 --nu 0.7 --trials 3 --dim 2,5",
        0,
    ),
}


def _run(name: str, out: Path) -> int:
    args, _ = REFERENCE_RUNS[name]
    return main(["verify", *args.split(), "--out", str(out)])


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_report_matches_reference_byte_for_byte(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    code = _run(name, out)
    capsys.readouterr()
    assert code == REFERENCE_RUNS[name][1]
    assert out.read_bytes() == (REFERENCE_DIR / f"{name}.json").read_bytes()


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_report_matches_reference_whatever_the_lapack_pool(
    name, workers, tmp_path, capsys, monkeypatch
):
    # 0: every stacked decomposition a plain call; 2: the large ones cut into
    # up to three parts, on any machine
    monkeypatch.setattr(linalg, "_worker_count", lambda: workers)
    test_report_matches_reference_byte_for_byte(name, tmp_path, capsys)


if __name__ == "__main__":
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for ref_name in sorted(REFERENCE_RUNS):
        exit_code = _run(ref_name, REFERENCE_DIR / f"{ref_name}.json")
        if exit_code != REFERENCE_RUNS[ref_name][1]:
            sys.exit(f"{ref_name}: exit code {exit_code}, expected {REFERENCE_RUNS[ref_name][1]}")

"""Command-line front end: `verify` runs a campaign, `demo` replays one trial.

Option precedence is CLI flag > config-file entry > built-in default. The
config file is plain `key = value` text whose keys are the `verify` flags
(`_OPTIONS`) without `--config`; parse problems are reported with the file
name and line number and exit with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import __version__
from .campaign import (
    ABLATION_FLAGS,
    CampaignConfig,
    CampaignReport,
    THEOREM_IDS,
    TheoremStats,
    demo_trial,
    outcome_to_dict,
    repro_command,
    run_campaign,
    select_theorems,
    serialize_report,
    _json_value,
)
from .chains import DEFAULT_QUAD_N
from .errors import ConfigError, UnknownTheoremError, VerificationError
from .functions import parse_function
from .norms import parse_norm
from .quadrature import BISECT_DEPTH


def _read_config_file(path: str) -> dict[str, tuple[str, int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    entries: dict[str, tuple[str, int]] = {}
    for num, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{num}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{num}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{num}: empty value for {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{num}: duplicate key {key!r}")
        entries[key] = (value, num)
    return entries


def _to_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from None


def _to_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None


def _to_dims(text: str, where: str) -> tuple[int, ...]:
    dims = tuple(_to_int(part.strip(), where) for part in text.split(",") if part.strip())
    if not dims:
        raise ConfigError(f"{where}: expected a comma-separated dimension list, got {text!r}")
    return dims


def _to_ablation(text: str, where: str) -> frozenset[str]:
    flags = set()
    for part in text.split(","):
        flag = part.strip().upper()
        if not flag:
            continue
        if flag not in ABLATION_FLAGS:
            raise ConfigError(
                f"{where}: unknown ablation flag {flag!r}; known: {', '.join(ABLATION_FLAGS)}"
            )
        flags.add(flag)
    if not flags:
        raise ConfigError(f"{where}: expected at least one ablation flag")
    return frozenset(flags)


def _to_norm(text: str, where: str):
    try:
        return parse_norm(text)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _to_fn(text: str, where: str):
    try:
        return parse_function(text)
    except (ConfigError, VerificationError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


# every `verify` option, which is also a config-file key: its CampaignConfig
# field (None when it has none), its converter and its help text
_OPTIONS = {
    "theorem": (None, lambda text, where: text, "theorem id, comma list, or 'all'"),
    "trials": ("trials", _to_int, "trials per theorem per dimension"),
    "dim": ("dims", _to_dims, "comma-separated dimensions, e.g. 2,3,5,8"),
    "seed": ("master_seed", _to_int, "master seed (64-bit)"),
    "rtol": ("rtol", _to_float, "relative tolerance"),
    "atol": ("atol", _to_float, "absolute tolerance"),
    "norm": ("norm", _to_norm, "schatten:p | opnorm | tracenorm | kyfan:k"),
    "nu": ("nu", _to_float, "weight parameter in [0, 1]"),
    "fn": ("function", _to_fn, "exp:c | power:r | poly:c0,c1,... | inverse | identity"),
    "quad-n": (
        "quad_n", _to_int,
        "Gauss nodes n of the adaptive Gauss-Kronrod rule, 2n + 1 nodes per piece, a"
        f" failing piece halved up to {BISECT_DEPTH} times (default {DEFAULT_QUAD_N})",
    ),
    "ablation": ("ablation", _to_ablation, "comma list of DROP_* flags"),
    "out": (None, lambda text, where: text, "write the JSON report to this file"),
}
_KEY_OF_FIELD = {field: key for key, (field, _, _) in _OPTIONS.items() if field}

# the options `demo` shares with `verify`, in `demo --help` order
_DEMO_KEYS = ("fn", "nu", "norm", "quad-n", "rtol", "atol", "ablation")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhverify",
        description="Randomized verification of matrix inequality chains.",
    )
    parser.add_argument("--version", action="version", version=f"hhverify {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a verification campaign")
    for key, (_, _, text) in _OPTIONS.items():
        ver.add_argument(f"--{key}", help=text)
    ver.add_argument("--config", help="read key = value defaults from this file")

    demo = sub.add_parser("demo", help="replay a single seeded trial")
    demo.add_argument("--theorem", required=True, help="theorem id")
    demo.add_argument("--seed", required=True, help="trial seed (as reported)")
    demo.add_argument("--dim", required=True, help="matrix dimension")
    for key in _DEMO_KEYS:
        demo.add_argument(f"--{key}", help=_OPTIONS[key][2])
    return parser


def _resolve(args, path: str | None, entries, key: str):
    """One option converted: CLI value first, then the file entry; None when
    neither gives it."""
    convert = _OPTIONS[key][1]
    value = getattr(args, key.replace("-", "_"))
    if value is not None:
        return convert(value, f"--{key}")
    if key in entries:
        value, line = entries[key]
        return convert(value, f"{path}:{line}: {key}")
    return None


def _campaign_config(theorem: str, resolve, keys, **fixed) -> CampaignConfig:
    """The campaign that the options among `keys` ask for; a field no option
    gives keeps the dataclass default (`run_campaign` and `demo_trial`
    validate it). The ablation is converted first, as the theorem selection
    needs it, and the rest in field order, which decides the error reported
    when several options are bad."""
    ablation = resolve("ablation") or CampaignConfig.ablation
    given = {"theorem_ids": select_theorems(theorem, ablation), "ablation": ablation}
    for field in dataclasses.fields(CampaignConfig):
        key = _KEY_OF_FIELD.get(field.name)
        if key in keys and field.name not in given and (value := resolve(key)) is not None:
            given[field.name] = value
    return CampaignConfig(**given, **fixed)


def _verdict(st: TheoremStats) -> str:
    if st.genuine_violation:
        return "VIOLATION"
    if st.expected_violation:
        return "EXPECTED_VIOLATION"
    if st.fail_count > 0:
        return "HYPOTHESIS_UNMET"
    return "PASS"


def _campaign_text(report: CampaignReport) -> str:
    lines: list[str] = []
    cfg = report.config
    lines.append(f"hhverify {report.version}")
    norm_text = cfg.norm.describe() if cfg.norm is not None else "per-theorem default"
    fn_text = cfg.function.describe() if cfg.function is not None else "per-theorem default"
    abl_text = ",".join(sorted(cfg.ablation)) if cfg.ablation else "none"
    lines.append(
        f"config: trials={cfg.trials} dims={','.join(map(str, cfg.dims))} "
        f"seed={cfg.master_seed} rtol={cfg.rtol:g} atol={cfg.atol:g} nu={cfg.nu:g} "
        f"quad_n={cfg.quad_n} norm={norm_text} fn={fn_text} ablation={abl_text}"
    )
    header = (
        f"{'theorem':<16} {'trials':>7} {'pass':>7} {'fail':>7} "
        f"{'unreliable':>10} {'min_margin':>14}  verdict"
    )
    lines.append(header)
    lines.append("-" * len(header))
    repro_lines = []
    for st in report.stats:
        margin_text = "n/a" if st.min_margin is None else format(st.min_margin, ".6g")
        lines.append(
            f"{st.theorem_id:<16} {st.trials_run:>7} {st.pass_count:>7} "
            f"{st.fail_count:>7} {st.unreliable_count:>10} {margin_text:>14}  {_verdict(st)}"
        )
        if st.fail_count > 0 and st.worst_trial_seed is not None:
            repro_lines.append(f"repro ({st.theorem_id}): {repro_command(st.theorem_id, st, cfg)}")
    lines.extend(repro_lines)
    total = sum(st.trials_run for st in report.stats)
    unreliable = sum(st.unreliable_count for st in report.stats)
    genuine = sum(1 for st in report.stats if st.genuine_violation)
    frac = 100.0 * unreliable / total if total else 0.0
    lines.append(
        f"total: {total} trials, {genuine} theorems with genuine violations, "
        f"{frac:.2f}% unreliable, wall time {report.wall_time_ms:.0f} ms"
    )
    lines.append(f"exit code {report.exit_code}")
    return "\n".join(lines)


def _cmd_verify(args) -> tuple[int, str]:
    entries = _read_config_file(args.config) if args.config else {}
    resolve = functools.partial(_resolve, args, args.config, entries)
    theorem = resolve("theorem")
    cfg = _campaign_config("all" if theorem is None else theorem, resolve, _OPTIONS)
    out = resolve("out")
    report = run_campaign(cfg)
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(serialize_report(report))
        except OSError as exc:
            raise ConfigError(f"cannot write report file {out}: {exc}") from exc
    return report.exit_code, _campaign_text(report)


def _cmd_demo(args) -> tuple[int, str]:
    tid = args.theorem.strip()
    if tid not in THEOREM_IDS:
        raise UnknownTheoremError(f"unknown theorem id {tid!r}")
    seed = _to_int(args.seed, "--seed")
    dim = _to_int(args.dim, "--dim")
    resolve = functools.partial(_resolve, args, None, {})
    cfg = _campaign_config(tid, resolve, _DEMO_KEYS, trials=1, dims=(dim,))
    text, payload, outcome = demo_trial(tid, seed, dim, cfg)
    judged_pass = outcome.passed and outcome.quad_reliable
    return (0 if judged_pass else 1), text + "\n" + _json_value(payload, 0)


def _write_stdout(text: str) -> None:
    """Print text. A reader that closed the pipe early (``| head``) drops the
    rest of it, and is not an error."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # stdout now leads to /dev/null, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = _cmd_verify(args) if args.command == "verify" else _cmd_demo(args)
    except (ConfigError, UnknownTheoremError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    _write_stdout(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

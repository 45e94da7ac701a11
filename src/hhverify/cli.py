"""Command-line front end: `verify` runs a campaign, `demo` replays one trial.

Option precedence is CLI flag > config-file entry > built-in default. The
config file is plain `key = value` text with the same keys as the flags;
parse problems are reported with the file name and line number and exit
with status 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .campaign import (
    ABLATION_FLAGS,
    CampaignConfig,
    CampaignReport,
    THEOREM_IDS,
    TheoremStats,
    _FLAG_IDS,
    demo_trial,
    outcome_to_dict,
    repro_command,
    run_campaign,
    select_theorems,
    serialize_report,
    _json_value,
)
from .errors import ConfigError, UnknownTheoremError, VerificationError
from .functions import parse_function
from .norms import parse_norm

_CONFIG_KEYS = (
    "theorem",
    "trials",
    "dim",
    "seed",
    "rtol",
    "atol",
    "norm",
    "nu",
    "fn",
    "quad-n",
    "ablation",
    "out",
)


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
        if key not in _CONFIG_KEYS:
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


class _Option:
    """One resolvable option: CLI value wins, then the file entry."""

    def __init__(self, key: str, convert, path: str | None, entries):
        self.key = key
        self.convert = convert
        self.path = path
        self.entries = entries

    def resolve(self, cli_value, default):
        if cli_value is not None:
            return self.convert(str(cli_value), f"--{self.key}")
        entry = self.entries.get(self.key)
        if entry is not None:
            value, line = entry
            return self.convert(value, f"{self.path}:{line}: {self.key}")
        return default


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhverify",
        description="Randomized verification of matrix inequality chains.",
    )
    parser.add_argument("--version", action="version", version=f"hhverify {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a verification campaign")
    ver.add_argument("--theorem", default=None, help="theorem id, comma list, or 'all'")
    ver.add_argument("--trials", default=None, help="trials per theorem per dimension")
    ver.add_argument("--dim", default=None, help="comma-separated dimensions, e.g. 2,3,5,8")
    ver.add_argument("--seed", default=None, help="master seed (64-bit)")
    ver.add_argument("--rtol", default=None, help="relative tolerance")
    ver.add_argument("--atol", default=None, help="absolute tolerance")
    ver.add_argument("--norm", default=None, help="schatten:p | opnorm | tracenorm | kyfan:k")
    ver.add_argument("--nu", default=None, help="weight parameter in [0, 1]")
    ver.add_argument("--fn", default=None, help="exp:c | power:r | poly:c0,c1,... | inverse | identity")
    ver.add_argument("--quad-n", default=None, help="quadrature node count")
    ver.add_argument("--ablation", default=None, help="comma list of DROP_* flags")
    ver.add_argument("--out", default=None, help="write the JSON report to this file")
    ver.add_argument("--config", default=None, help="read key = value defaults from this file")

    demo = sub.add_parser("demo", help="replay a single seeded trial")
    demo.add_argument("--theorem", required=True, help="theorem id")
    demo.add_argument("--seed", required=True, help="trial seed (as reported)")
    demo.add_argument("--dim", required=True, help="matrix dimension")
    demo.add_argument("--fn", default=None)
    demo.add_argument("--nu", default=None)
    demo.add_argument("--norm", default=None)
    demo.add_argument("--quad-n", default=None)
    demo.add_argument("--rtol", default=None)
    demo.add_argument("--atol", default=None)
    demo.add_argument("--ablation", default=None)
    return parser


def _verify_config(args) -> tuple[CampaignConfig, str | None]:
    entries = _read_config_file(args.config) if args.config else {}
    path = args.config

    def opt(key, convert):
        return _Option(key, convert, path, entries)

    theorem = opt("theorem", lambda t, w: t).resolve(args.theorem, "all")
    ablation = opt("ablation", _to_ablation).resolve(args.ablation, frozenset())
    cfg = CampaignConfig(
        theorem_ids=select_theorems(theorem, ablation),
        trials=opt("trials", _to_int).resolve(args.trials, 1000),
        dims=opt("dim", _to_dims).resolve(args.dim, (2, 3, 5, 8)),
        master_seed=opt("seed", _to_int).resolve(args.seed, 0),
        rtol=opt("rtol", _to_float).resolve(args.rtol, 1e-8),
        atol=opt("atol", _to_float).resolve(args.atol, 1e-12),
        norm=opt("norm", _to_norm).resolve(args.norm, None),
        nu=opt("nu", _to_float).resolve(args.nu, 0.3),
        quad_n=opt("quad-n", _to_int).resolve(args.quad_n, 64),
        function=opt("fn", _to_fn).resolve(args.fn, None),
        ablation=ablation,
    )
    cfg.validate()
    out = opt("out", lambda t, w: t).resolve(args.out, None)
    return cfg, out


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
    cfg, out = _verify_config(args)
    report = run_campaign(cfg)
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(serialize_report(report))
    return report.exit_code, _campaign_text(report)


def _cmd_demo(args) -> tuple[int, str]:
    tid = args.theorem.strip()
    if tid not in THEOREM_IDS:
        raise UnknownTheoremError(f"unknown theorem id {tid!r}")
    seed = _to_int(args.seed, "--seed")
    dim = _to_int(args.dim, "--dim")
    ablation = _to_ablation(args.ablation, "--ablation") if args.ablation else frozenset()
    if ablation and not any(tid in _FLAG_IDS[f] for f in ablation):
        raise ConfigError(f"ablation flags {sorted(ablation)} do not apply to {tid!r}")
    cfg = CampaignConfig(
        theorem_ids=(tid,),
        trials=1,
        dims=(dim,),
        rtol=_to_float(args.rtol, "--rtol") if args.rtol is not None else 1e-8,
        atol=_to_float(args.atol, "--atol") if args.atol is not None else 1e-12,
        norm=_to_norm(args.norm, "--norm") if args.norm is not None else None,
        nu=_to_float(args.nu, "--nu") if args.nu is not None else 0.3,
        quad_n=_to_int(args.quad_n, "--quad-n") if args.quad_n is not None else 64,
        function=_to_fn(args.fn, "--fn") if args.fn is not None else None,
        ablation=ablation,
    )
    text, payload, outcome = demo_trial(tid, seed, dim, cfg)
    return (0 if outcome.passed else 1), text + "\n" + _json_value(payload, 0)


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

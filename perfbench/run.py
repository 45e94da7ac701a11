"""Campaign throughput benchmark for hhverify.

    python3 perfbench/run.py --workload full_mix --seed 1 --seconds 20 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory, never from an installed copy. One run of a workload

1. with ``--trace 0``, times several fresh processes from start to their
   first trial (``setup_s``);
2. runs one warm-up round, then whole rounds until ``--seconds`` have passed.
   A round runs each campaign of the workload in-process through
   ``hhverify verify --out`` and replays, with ``demo_trial``, the worst trial
   the report names for every theorem;
3. checks every round's output (see ``check_campaign`` and ``replay``) and,
   after timing, recomputes a fixed sample of trials with scipy and mpmath
   (``oracle.py``);
4. prints one JSON line with the unscaled wall-clock figures and the machine
   slowdown they are rescaled by (``speed.py``; also written to
   ``runs/.../unscaled.json``), then, as the last line, one JSON line:
   ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
   (``--trace 0``) or the per-layer metrics (``--trace 1``).

With ``--trace 1`` the timed rounds alternate between untraced and traced;
the per-layer numbers come from the traced rounds, and the difference in
trials/s between the two kinds is reported as the tracing overhead.
"""

import os

# one BLAS thread, set before numpy is first imported; children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from workloads import DEFAULT_SEED, DIMS, WORKLOADS, Workload, trial_seed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"
SETUP_LAUNCHES = 7
PROBE_TIMEOUT_S = 60
# one machine-speed sample per this many seconds of timed campaign and replay
PROBE_EVERY_S = 0.1


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def import_program():
    """Import hhverify from this checkout's src/ and nowhere else."""
    package = SRC / "hhverify" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no hhverify source at {package.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import hhverify
    from hhverify import campaign, cli, sampler

    if Path(hhverify.__file__).resolve() != package.resolve():
        raise BenchError(f"hhverify imported from {hhverify.__file__}, not from src/")
    return campaign, cli, sampler


def measure_setup(workload: Workload, seed: int) -> tuple[float, float]:
    """Median, over fresh processes, of start-to-first-trial time in seconds,
    and the machine slowdown measured between the launches."""
    camp = workload.campaigns[0]
    argv = [
        "verify", "--theorem", camp.theorems[0], "--trials", "1", "--dim", str(camp.dim),
        "--seed", str(camp.master_seed(seed)),
    ]
    if camp.ablation:
        argv += ["--ablation", camp.ablation]
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *argv]
    times = []
    speed = SpeedProbe()
    for _ in range(SETUP_LAUNCHES):
        for _ in range(5):
            speed.sample()
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if not line.startswith("ready ") or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {line.strip()} {err.strip()}")
        times.append(elapsed)
    for _ in range(5):
        speed.sample()
    return statistics.median(times), speed.slowdown()


class Runner:
    """Runs rounds of one workload, checks their output, keeps the tallies."""

    def __init__(self, workload: Workload, seed: int, outdir: Path, program):
        self.workload = workload
        self.campaign_mod, self.cli, self.sampler = program
        self.outdir = outdir
        camps = workload.campaigns
        self.masters = [c.master_seed(seed) for c in camps]
        # trial seed -> trial index, from the benchmark's own splitmix64
        self.seed_maps = [
            {trial_seed(m, c.dim, t): t for t in range(c.trials)}
            for c, m in zip(camps, self.masters)
        ]
        self.replay_cfgs = [
            self.campaign_mod.CampaignConfig(
                ablation=frozenset({c.ablation}) if c.ablation else frozenset()
            )
            for c in camps
        ]
        self.reference: list[bytes | None] = [None] * len(camps)
        self.worst: dict[tuple[int, str], tuple] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        # timed rounds, campaign seconds and trials, untraced (False) and traced (True)
        self.rounds = {False: 0, True: 0}
        self.campaign_s = {False: 0.0, True: 0.0}
        self.trials = {False: 0, True: 0}
        self.replay_s: list[float] = []
        self.speed = SpeedProbe()

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def check_seeds(self) -> None:
        """The benchmark's splitmix64 must reproduce derive_trial_seed."""
        for camp, master, seeds in zip(self.workload.campaigns, self.masters, self.seed_maps):
            for s, t in seeds.items():
                if self.sampler.derive_trial_seed(master, camp.dim, t) != s:
                    self.problem(f"derive_trial_seed({master}, {camp.dim}, {t}) != splitmix64 key")
                    return
            if len(seeds) != camp.trials:
                self.problem(f"trial seeds collide for master seed {master}")

    def round(self, timed: bool, traced: bool = False) -> None:
        """Run every campaign once, with its replays. In a timed round each
        campaign with its replays is followed by speed samples in proportion
        to its length, so their mean weighs the run's stretches by time."""
        seconds = 0.0
        trials = 0
        violations = dict.fromkeys(self.workload.must_violate, 0)
        for i, camp in enumerate(self.workload.campaigns):
            out = self.outdir / f"campaign{i}.json"
            argv = camp.argv(self.masters[i], str(out))
            text = io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(text):
                    code = self.cli.main(argv)
            except Exception as exc:  # a raising campaign fails all its trials
                self.problem(f"campaign {i} raised {exc!r}")
                self.attempted += camp.size
                self.failed += camp.size
                continue
            elapsed = perf_counter() - start
            trials += camp.size
            data = out.read_bytes()
            self.attempted += camp.size
            self.failed += self.check_campaign(i, camp, code, text.getvalue(), data, violations)
            for tid, row in json.loads(data)["theorems"].items():
                self.replay(i, tid, row, timed and not traced)
            if timed:
                seconds += elapsed
                for _ in range(math.ceil((perf_counter() - start) / PROBE_EVERY_S)):
                    self.speed.sample()
        for tid, count in violations.items():
            if count < 1:
                self.problem(f"{tid}: the ablation induced no violation in a round")
        if timed and trials:
            self.rounds[traced] += 1
            self.campaign_s[traced] += seconds
            self.trials[traced] += trials

    def check_campaign(self, i, camp, code, summary: str, data: bytes, violations) -> int:
        """Check one campaign's report; return how many of its trials failed."""
        if self.reference[i] is None:
            self.reference[i] = data
        elif data != self.reference[i]:
            self.problem(f"campaign {i}: report bytes differ between rounds")
            return camp.size
        doc = json.loads(data)
        stats = doc["theorems"]
        ok = list(stats) == list(camp.theorems)
        if not ok:
            self.problem(f"campaign {i}: report lists {list(stats)}")
        rows = {}
        for line in summary.splitlines():
            parts = line.split()
            if len(parts) == 7 and parts[0] in stats:
                rows[parts[0]] = parts
        failed = 0
        total = sum(s["trials_run"] for s in stats.values())
        unreliable = sum(s["unreliable_count"] for s in stats.values())
        genuine = False
        for tid, s in stats.items():
            counts = (s["pass_count"], s["fail_count"], s["unreliable_count"])
            if s["trials_run"] != camp.trials or sum(counts) != s["trials_run"]:
                self.problem(f"{tid}: counts {counts} do not add up to {s['trials_run']}")
                ok = False
            row = rows.get(tid)
            if row is None or tuple(map(int, row[1:5])) != (s["trials_run"], *counts):
                self.problem(f"{tid}: summary row {row} disagrees with the report")
                ok = False
            verdict = row[6] if row else None
            failed += s["unreliable_count"]
            if s["unreliable_count"] and tid not in camp.known_fault_ids:
                self.problem(f"{tid}: {s['unreliable_count']} unreliable trials")
            if camp.ablation is None:
                if s["fail_count"] or verdict != "PASS":
                    self.problem(f"{tid}: {s['fail_count']} violations of a proven theorem")
                    failed += s["fail_count"]
                    genuine = True
            elif verdict != ("EXPECTED_VIOLATION" if s["fail_count"] else "PASS"):
                self.problem(f"{tid}: verdict {verdict} under ablation")
                failed += s["fail_count"]
            elif tid in violations:
                violations[tid] += s["fail_count"]
        expected = 1 if genuine else 3 if unreliable > 0.01 * total else 0
        if code != expected or f"exit code {code}" not in summary:
            self.problem(f"campaign {i}: exit code {code}, the counts imply {expected}")
            ok = False
        return failed if ok else camp.size

    def replay(self, i: int, tid: str, row: dict, timed: bool) -> None:
        """Replay the named worst trial; its margin must match bit for bit."""
        self.attempted += 1
        seed = row["worst_trial_seed"]
        if seed not in self.seed_maps[i]:
            self.problem(f"{tid}: worst_trial_seed {seed} is no trial of the campaign")
            self.failed += 1
            return
        dim = self.workload.campaigns[i].dim
        start = perf_counter()
        try:
            _, payload, outcome = self.campaign_mod.demo_trial(tid, seed, dim, self.replay_cfgs[i])
        except Exception as exc:
            self.problem(f"{tid}: replay of seed {seed} raised {exc!r}")
            self.failed += 1
            return
        elapsed = perf_counter() - start
        if not outcome.quad_reliable or float(outcome.min_margin) != row["min_margin"]:
            self.problem(
                f"{tid}: replay margin {outcome.min_margin!r} != reported {row['min_margin']!r}"
            )
            self.failed += 1
            return
        if timed:
            self.replay_s.append(elapsed)
        self.worst[i, tid] = (seed, dim, payload)


def oracle_samples(runner: Runner):
    """Per id and campaign: the reported worst trial, and trial 0 where the
    dimension is the largest."""
    for i, camp in enumerate(runner.workload.campaigns):
        for tid in camp.theorems:
            if (i, tid) in runner.worst:
                yield camp, tid, *runner.worst[i, tid]
            if camp.dim != DIMS[-1]:
                continue
            seed0 = trial_seed(runner.masters[i], camp.dim, 0)
            _, payload, outcome = runner.campaign_mod.demo_trial(
                tid, seed0, camp.dim, runner.replay_cfgs[i]
            )
            if outcome.quad_reliable:
                yield camp, tid, seed0, camp.dim, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]
    program = import_program()
    outdir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)

    setup = measure_setup(workload, args.seed) if args.trace == 0 else None
    runner = Runner(workload, args.seed, outdir, program)
    runner.round(timed=False)  # warm-up; also fixes the reference reports
    tracer = None
    if args.trace:
        from tracer import Tracer, TracerError

        tracer = Tracer()
        try:  # fail before the timed rounds when an entry point is missing
            tracer.install()
        except TracerError as exc:
            raise BenchError(f"cannot trace this hhverify: {exc}") from None
        tracer.uninstall()
    start = perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        try:
            runner.round(timed=True, traced=traced)
        finally:
            if traced:
                tracer.uninstall()
        k += 1
        if perf_counter() - start >= args.seconds and (tracer is None or k >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runner.check_seeds()
    import oracle

    for camp, tid, seed, dim, payload in oracle_samples(runner):
        for text in oracle.check(camp, tid, seed, dim, payload):
            runner.problem(f"{tid} seed {seed} dim {dim}: {text}")
            runner.failed += 1

    if not (runner.rounds[False] and runner.replay_s) or (tracer and not runner.rounds[True]):
        raise BenchError("no timed campaign or replay completed: " + "; ".join(runner.problems[:3]))
    # timed figures are rescaled to the reference machine speed (speed.py)
    slowdown = runner.speed.slowdown()
    untraced_tps = runner.trials[False] / runner.campaign_s[False]
    # the wall-clock figures before rescaling, for auditing a claim against
    # raw time; the result line itself may carry only the four keys
    unscaled = {"slowdown": slowdown, "trials_per_s": untraced_tps}
    if tracer is None:
        replay_ms = 1000.0 * statistics.median(runner.replay_s)
        unscaled["replay_ms"] = replay_ms
        unscaled["setup_s"], unscaled["setup_slowdown"] = setup
        metrics = {
            "trials_per_s": (untraced_tps * slowdown, "trials/s"),
            "setup_s": (setup[0] / setup[1], "s"),
            "replay_ms": (replay_ms / slowdown, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from tracer import PER_LAYER, per_layer_metrics

        tracer.dump(outdir / "spans.npz")
        layer = per_layer_metrics(tracer, runner.rounds[True])
        metrics = {
            key: (layer[key] / slowdown if unit == "ms" else layer[key], unit)
            for key, unit in PER_LAYER
        }
        traced_tps = runner.trials[True] / runner.campaign_s[True]
        unscaled["traced_trials_per_s"] = traced_tps
        overhead = (untraced_tps - traced_tps) * slowdown
        metrics["trace.overhead_trials_per_s"] = (overhead, "trials/s")
    for text in runner.problems:
        print(f"perfbench: {text}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{workload.name:<15} {key:<30} {value:>14.6g} {unit}")
    (outdir / "unscaled.json").write_text(json.dumps(unscaled) + "\n")
    print(json.dumps({"unscaled": unscaled}))
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

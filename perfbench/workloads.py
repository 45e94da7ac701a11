"""Workload definitions and the benchmark's own seed arithmetic.

A workload is a fixed list of campaigns, one per dimension for each group of
theorems. One round runs each campaign once through ``hhverify verify --out``
and replays, after each campaign, the worst trial its report names for every
theorem; one campaign per dimension makes the replayed trials cover every
dimension on every seed. Every round of a run is identical, so each run
attempts whole rounds of the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass

MASK64 = (1 << 64) - 1
DIMS = (2, 3, 5, 8)

# the seed of record, and a seed held out for confirming later claims
DEFAULT_SEED = 1
HELD_OUT_SEED = 20151121


def splitmix64(x: int) -> int:
    """splitmix64 finalizer of x + gamma, in plain Python integers."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_seed(master: int, dim: int, trial: int) -> int:
    """Seed of one campaign trial: splitmix64(master ^ ((dim << 32) + trial))."""
    return splitmix64(master ^ (((dim << 32) + trial) & MASK64))


@dataclass(frozen=True)
class Campaign:
    theorems: tuple[str, ...]
    trials: int
    dim: int
    # campaigns of one group share a master seed, so their trials are those
    # of a single campaign over all of DIMS
    group: int = 0
    ablation: str | None = None
    # a master seed pinned here instead of drawn from --seed
    fixed_master: int | None = None
    # ids whose unreliable trials are a known program fault, counted as failed
    # but not as incorrect output
    known_fault_ids: frozenset[str] = frozenset()

    def master_seed(self, workload_seed: int) -> int:
        if self.fixed_master is not None:
            return self.fixed_master
        return splitmix64((workload_seed << 4) + self.group)

    def argv(self, master: int, out_path: str) -> list[str]:
        args = [
            "verify",
            "--theorem", ",".join(self.theorems),
            "--trials", str(self.trials),
            "--dim", str(self.dim),
            "--seed", str(master),
            "--out", out_path,
        ]
        if self.ablation:
            args += ["--ablation", self.ablation]
        return args

    @property
    def size(self) -> int:
        return len(self.theorems) * self.trials


def per_dim(theorems, trials, **kwargs) -> tuple[Campaign, ...]:
    return tuple(Campaign(tuple(theorems), trials, d, **kwargs) for d in DIMS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    campaigns: tuple[Campaign, ...]
    # ablated ids that must show at least one expected violation per round
    must_violate: frozenset[str] = frozenset()


ALL_IDS = (
    "scalar_ag", "scalar_gg", "scalar_means", "dragomir", "op_gg_hh", "op_ag_midpoint",
    "op_norm_gg", "exp_norm", "trace_sqrt", "trace_squared", "det_ag", "am_gm_loewner",
    "norm_power", "kittaneh", "phi_operator", "phi_sandwich", "phi_diagonal",
    "uin_symmetric", "uin_end_left", "uin_end_right", "uin_full", "uin_diagonal",
)
SCAN_IDS = (
    "scalar_ag", "scalar_gg", "op_gg_hh", "op_ag_midpoint",
    "phi_operator", "phi_sandwich", "phi_diagonal",
)
CLOSED_FORM_IDS = ("scalar_means", "det_ag", "am_gm_loewner", "norm_power", "kittaneh")
NC_SEEDED_IDS = ("op_gg_hh", "op_ag_midpoint", "trace_sqrt", "trace_squared", "phi_operator")
NC_FAULT_IDS = ("op_norm_gg", "exp_norm")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full_mix",
            "all 22 ids: the default campaign scaled down, every layer does a share of the work",
            per_dim(ALL_IDS, 5),
        ),
        Workload(
            "convexity_scan",
            "the 7 ids that run the convexity grid scan (hypothesis checks and witnesses)",
            per_dim(SCAN_IDS, 10),
        ),
        Workload(
            "closed_form",
            "5 ids with no integral and no grid scan: sampler and linalg per-call overhead",
            per_dim(CLOSED_FORM_IDS, 40),
        ),
        Workload(
            "ablation_nc",
            "DROP_COMMUTATIVITY on its 7 ids: the non-commuting runners and per-node integrators",
            # every id runs the same number of trials, as one
            # `verify --ablation DROP_COMMUTATIVITY --trials 10` campaign would
            per_dim(NC_SEEDED_IDS, 10, ablation="DROP_COMMUTATIVITY")
            # the op_norm_gg / exp_norm kink fault, on the same inputs in every run
            + per_dim(
                NC_FAULT_IDS, 10, group=1, ablation="DROP_COMMUTATIVITY", fixed_master=0,
                known_fault_ids=frozenset(NC_FAULT_IDS),
            ),
            must_violate=frozenset({"op_gg_hh", "op_ag_midpoint"}),
        ),
    )
}

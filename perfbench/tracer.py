"""Span tracing of hhverify's layers, installed from outside the package.

Each layer is one hhverify module. Its entry points are wrapped in every
hhverify module that holds them, under any name (``chains`` and ``campaign`` bind
``_scan_fine_grid``, ``eigh``, the integrators and the samplers with
``from ... import``), so a call is traced wherever it is made from. A wrapper
records a span (name, start, end, parent) into flat in-memory arrays each
time the layer is entered from another layer (a call nested in its own layer
adds no span, since it moves no time between layers) and bumps the layer's
work counters; nothing is written until :meth:`Tracer.dump`.

Counters are taken at the same boundaries:

* ``<layer>.calls``: entries into the layer from another layer;
* ``sampler.words``: uint64 draws, counted in ``RandomStream.u64``;
* ``linalg.decompositions``: LAPACK decompositions made by ``hhverify.linalg``;
* ``quadrature.nodes`` / ``quadrature.unreliable``: integrand nodes evaluated
  and doubling checks failed, per outermost integrator call;
* ``functions.triples``: (i, j, lambda) triples tested by the grid scans;
* ``norms.matrices``: matrices whose norm the layer evaluated;
* ``campaign.trials`` / ``campaign.report_bytes``: trials run (campaign and
  replay) and bytes serialized.

The integrand a caller hands to an integrator runs as a child span named
``<caller layer>.integrand``, so quadrature self time excludes it and the
integrand time is reported on its own.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("sampler", "linalg", "quadrature", "functions", "norms", "chains", "campaign", "cli")

# module-level functions per layer. Every name must exist: install() refuses
# to run when one is missing, so a renamed or inlined entry point shows as an
# error here and not as a layer whose figures quietly drop to zero.
ENTRY_POINTS = {
    "sampler": (
        "splitmix64", "derive_trial_seed", "random_general", "random_orthogonal",
        "_log_uniform", "random_spd", "random_commuting_pair",
    ),
    "linalg": (
        "check_matrix", "check_symmetric", "eigh", "matrix_function", "operator_norm_sym",
        "loewner_compare", "det_pd", "pd_power", "power_from_decomp",
        "weighted_geometric_mean", "commuting_weighted_product",
    ),
    "quadrature": (
        "gl_rule", "integrate_scalar", "integrate_matrix", "integrate_scalar_checked",
        "integrate_matrix_checked", "integrate_stack_checked",
    ),
    "functions": (
        "is_ag_convex", "is_gg_convex", "_scan_fine_grid", "_scan_midpoint_only",
        "_positive_logs", "_check_grid_n", "scalar_mean_chain", "parse_function",
        "ag_gg_transport_check",
    ),
    "norms": (
        "norm", "norms_of_stack", "norms_from_eig_rows", "norm_from_eigs",
        "singular_values", "trace", "trace_property_check", "parse_norm",
    ),
    "chains": (
        "scalar_hh_chain", "scalar_mean_chain_report", "dragomir_operator_chain",
        "det_ag_concavity_check", "am_gm_loewner_check", "norm_power_check",
        "kittaneh_check", "operator_gg_hh_order_chain", "operator_ag_midpoint_order_chain",
        "operator_norm_gg_chain", "trace_chain", "ag_convexity_witness", "uin_chain",
        "_chain_report", "_order_report_from_rows", "_order_report_from_matrices",
    ),
    "campaign": (
        "run_campaign", "run_trial", "resolve_params", "select_theorems", "demo_trial",
        "serialize_report", "config_echo", "outcome_to_dict", "outcome_to_text",
        "repro_command",
    ),
    "cli": ("main",),
}

# methods per layer, as (module, class, method names)
METHODS = {
    "sampler": (("sampler", "RandomStream", ("u64", "uniform", "gaussian")),),
    "linalg": (
        ("linalg", "SpectralDecomp", ("apply", "reconstruct")),
        ("linalg", "CommutingPair", ("__post_init__", "materialize", "matrix_a", "matrix_b")),
    ),
    "functions": (
        (
            "functions", "FunctionSpec",
            ("eval_array", "defined_at", "__call__", "contains_interval"),
        ),
    ),
    "norms": (("norms", "NormSpec", ("of_singular_values",)),),
    "campaign": (("campaign", "CampaignConfig", ("validate",)),),
}

MODULES = ("sampler", "functions", "linalg", "norms", "quadrature", "chains", "campaign", "cli")

_INTEGRATORS = frozenset(ENTRY_POINTS["quadrature"]) - {"gl_rule"}
_DECOMPOSITIONS = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "qr", "cholesky")

# per-layer metrics the benchmark reports, in order
PER_LAYER = (
    ("sampler.calls", "count"), ("sampler.self_ms", "ms"), ("sampler.words", "count"),
    ("linalg.calls", "count"), ("linalg.self_ms", "ms"), ("linalg.decompositions", "count"),
    ("quadrature.calls", "count"), ("quadrature.self_ms", "ms"),
    ("quadrature.integrand_ms", "ms"), ("quadrature.nodes", "count"),
    ("quadrature.unreliable", "count"),
    ("functions.calls", "count"), ("functions.self_ms", "ms"), ("functions.triples", "count"),
    ("norms.calls", "count"), ("norms.self_ms", "ms"), ("norms.matrices", "count"),
    ("chains.calls", "count"), ("chains.self_ms", "ms"),
    ("campaign.trials", "count"), ("campaign.self_ms", "ms"),
    ("campaign.serialize_ms", "ms"), ("campaign.report_bytes", "bytes"),
    ("cli.self_ms", "ms"),
)


def _node_count(x) -> int:
    return int(np.size(x)) if isinstance(x, np.ndarray) else 1


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_checked(counts, args, kwargs, result):
    if not result[1]:
        counts["quadrature.unreliable"] += 1


def _count_stack(counts, args, kwargs, result):
    counts["norms.matrices"] += int(np.shape(args[0])[0])


def _count_one_matrix(counts, args, kwargs, result):
    counts["norms.matrices"] += 1


def _count_serialized(counts, args, kwargs, result):
    counts["campaign.report_bytes"] += len(result.encode("utf-8"))


def _count_fine_triples(counts, args, kwargs, result):
    counts["functions.triples"] += (int(_arg(args, kwargs, 2, "grid_n")) + 1) ** 3


def _count_midpoint_pairs(counts, args, kwargs, result):
    counts["functions.triples"] += int(np.size(args[0])) ** 2


# counters bumped when the layer is entered from another layer
_OUTER_HOOKS = {
    **{("quadrature", n): _count_checked for n in _INTEGRATORS if n.endswith("_checked")},
    **{("norms", n): _count_one_matrix for n in ENTRY_POINTS["norms"]},
    ("norms", "norms_of_stack"): _count_stack,
    ("norms", "norms_from_eig_rows"): _count_stack,
    ("norms", "NormSpec.of_singular_values"): _count_one_matrix,
    ("norms", "parse_norm"): None,
    ("campaign", "serialize_report"): _count_serialized,
}
# counters bumped on every call, nested or not
_ALWAYS_HOOKS = {
    ("functions", "_scan_fine_grid"): _count_fine_triples,
    ("functions", "_scan_midpoint_only"): _count_midpoint_pairs,
}


class TracerError(Exception):
    """An entry point the tracer must wrap is missing from hhverify."""


class _CountingNamespace:
    """Stands in for ``numpy`` (and ``numpy.linalg``) inside one module and
    counts the decompositions that module asks for."""

    def __init__(self, real, counts: Counter, key: str, counted=()):
        self._real = real
        for fname in counted:
            setattr(self, fname, self._counted(getattr(real, fname), counts, key))

    @staticmethod
    def _counted(fn, counts, key):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    def __getattr__(self, name):
        value = getattr(self._real, name)
        setattr(self, name, value)
        return value


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_layer: list[int] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = [(-1, -1)]  # (span index, layer index)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._name_layer.append(layer)
        return nid

    def _wrap(self, layer_name: str, name: str, fn):
        layer = LAYERS.index(layer_name)
        nid = self._name_id(f"{layer_name}.{name}", layer)
        calls_key = f"{layer_name}.calls"
        tracer = self
        stack = self._stack
        counts = self.counts
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        is_integrator = layer_name == "quadrature" and name in _INTEGRATORS
        outer_hook = _OUTER_HOOKS.get((layer_name, name))
        always_hook = _ALWAYS_HOOKS.get((layer_name, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer = stack[-1]
            if parent_layer == layer:  # nested in its own layer: no span
                result = fn(*args, **kwargs)
                if always_hook is not None:
                    always_hook(counts, args, kwargs, result)
                return result
            counts[calls_key] += 1
            if is_integrator and args:
                args = (tracer._integrand(args[0], parent_layer),) + args[1:]
            idx = len(starts)
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            stack.append((idx, layer))
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if outer_hook is not None:
                outer_hook(counts, args, kwargs, result)
            if always_hook is not None:
                always_hook(counts, args, kwargs, result)
            return result

        return traced

    def _integrand(self, g, caller_layer: int):
        """Child span around the caller's integrand, in the caller's layer."""
        if not callable(g):
            return g
        layer_name = LAYERS[caller_layer] if caller_layer >= 0 else "bench"
        nid = self._name_id(f"{layer_name}.integrand", caller_layer)
        stack, counts = self._stack, self.counts
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )

        def integrand(x):
            counts["quadrature.nodes"] += _node_count(x)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0])
            ends.append(0.0)
            stack.append((idx, caller_layer))
            starts.append(perf_counter())
            try:
                return g(x)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return integrand

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in every hhverify module that binds it.

        Raises :class:`TracerError`, with nothing left patched, when a listed
        entry point, class or method is missing."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        mods = [importlib.import_module(f"hhverify.{m}") for m in MODULES]
        mods.append(importlib.import_module("hhverify"))
        for layer_name, fnames in ENTRY_POINTS.items():
            home = importlib.import_module(f"hhverify.{layer_name}")
            for fname in fnames:
                original = home.__dict__.get(fname)
                if not callable(original):
                    raise TracerError(f"hhverify.{layer_name} has no function {fname}")
                wrapped = self._wrap(layer_name, fname, original)
                for mod in mods:
                    for attr, value in list(mod.__dict__.items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)
        for layer_name, entries in METHODS.items():
            for mod_name, cls_name, methods in entries:
                cls = importlib.import_module(f"hhverify.{mod_name}").__dict__.get(cls_name)
                if not isinstance(cls, type):
                    raise TracerError(f"hhverify.{mod_name} has no class {cls_name}")
                for meth in methods:
                    original = cls.__dict__.get(meth)
                    if not callable(original):
                        raise TracerError(f"hhverify.{mod_name}.{cls_name} has no method {meth}")
                    wrapped = self._wrap(layer_name, f"{cls_name}.{meth}", original)
                    self._patch(cls, meth, wrapped)
        # every uint64 draw goes through RandomStream.u64
        sampler = importlib.import_module("hhverify.sampler")
        traced_u64 = sampler.RandomStream.u64
        counts = self.counts

        @functools.wraps(traced_u64)
        def u64(stream, k):
            counts["sampler.words"] += int(k)
            return traced_u64(stream, k)

        self._patch(sampler.RandomStream, "u64", u64)
        # decompositions requested by the linalg layer itself
        linalg = importlib.import_module("hhverify.linalg")
        fake_np = _CountingNamespace(np, counts, "linalg.decompositions")
        fake_np.linalg = _CountingNamespace(
            np.linalg, counts, "linalg.decompositions", _DECOMPOSITIONS
        )
        self._patch(linalg, "np", fake_np)
        # each trial, campaign or replay, is one run_trial call
        campaign = importlib.import_module("hhverify.campaign")
        traced_run_trial = campaign.run_trial

        @functools.wraps(traced_run_trial)
        def run_trial(*args, **kwargs):
            counts["campaign.trials"] += 1
            return traced_run_trial(*args, **kwargs)

        self._patch(campaign, "run_trial", run_trial)

    def _patch(self, owner, attr: str, value) -> None:
        if attr not in owner.__dict__:
            raise TracerError(f"{owner.__name__} has no attribute {attr}")
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_times_ms(self) -> dict[str, float]:
        """Self time per layer and total integrand time, in milliseconds."""
        n = len(self.span_start)
        out = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
        out["quadrature.integrand_ms"] = 0.0
        out["campaign.serialize_ms"] = 0.0
        if n == 0:
            return out
        start = np.frombuffer(self.span_start, dtype=np.float64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        layer = np.asarray(self._name_layer, dtype=np.int64)[name]
        known = layer >= 0
        per_layer = np.bincount(layer[known], weights=self_time[known], minlength=len(LAYERS))
        for i, layer_name in enumerate(LAYERS):
            out[f"{layer_name}.self_ms"] = 1000.0 * float(per_layer[i])
        integrand_ids = [i for i, s in enumerate(self.names) if s.endswith(".integrand")]
        serialize_ids = [i for i, s in enumerate(self.names) if s == "campaign.serialize_report"]
        out["quadrature.integrand_ms"] = 1000.0 * float(dur[np.isin(name, integrand_ids)].sum())
        out["campaign.serialize_ms"] = 1000.0 * float(dur[np.isin(name, serialize_ids)].sum())
        return out

    def dump(self, path) -> None:
        """Write the spans as a compressed .npz (names table plus four arrays)."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Every PER_LAYER metric as an amount per traced round."""
    values = dict(tracer.layer_times_ms())
    for key, count in tracer.counts.items():
        values[key] = count
    out = {}
    for key, unit in PER_LAYER:
        total = values.get(key, 0)
        if unit == "ms":
            out[key] = total / rounds
        else:
            if total % rounds:
                raise RuntimeError(f"{key}: {total} is not the same in each of {rounds} rounds")
            out[key] = total // rounds
    return out

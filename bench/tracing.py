"""Parent-linked spans around calls into each snrloss layer.

The program is not instrumented.  Instead, :func:`install` replaces, in
every snrloss module, each function name that module imported from another
snrloss module (for example ``snrloss.cli.simulate_loss_direct`` or
``snrloss.mismatch.cholesky``) with a wrapper that records a span.  The
closed-form and shifted-fit cdf evaluators are reached through objects, not
bound names, so their class methods are wrapped too; ``gammaincc`` as bound
in ``snrloss.approximation`` is wrapped by an element counter.  Calls inside
one module stay unwrapped, so every span marks a crossing between layers.

A span is ``[name, parent, start, end, size]``: ``parent`` indexes the
enclosing span of the same command (-1 for the command itself) and ``size``
is the number of points or trials the call worked on, where that applies.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "sampling", "scenarios", "mismatch", "approximation", "montecarlo", "cli")
ROOT = "cli.main"


class Tracer:
    """In-memory span recorder for one benchmark run (one thread)."""

    def __init__(self):
        self.commands: list[dict] = []
        self._spans: list | None = None
        self._counts: dict | None = None
        self._stack: list[int] = []

    def command(self, fn, *args):
        """Run ``fn(*args)`` as the root span of a new command."""
        self._spans, self._counts, self._stack = [], defaultdict(int), []
        try:
            return self.call(ROOT, fn, args, {})
        finally:
            self.commands.append({"spans": self._spans, "counts": dict(self._counts)})
            self._spans = self._counts = None

    def call(self, name, fn, args, kwargs, size=0):
        if self._spans is None:  # outside a traced command
            return fn(*args, **kwargs)
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, size]
        self._stack.append(len(self._spans))
        self._spans.append(record)
        record[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def count(self, key, amount):
        if self._counts is not None:
            self._counts[key] += amount


def _philox_position(rng) -> int:
    """64-bit words drawn so far from an RngStream's Philox generator."""
    state = rng.generator.bit_generator.state
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"])


def _span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _direct_sampler(tracer, fn):
    """Span for the direct sampler that also counts the Philox words it
    consumes, read from its stream before and after the call."""

    @functools.wraps(fn)
    def wrapper(pair, n_training, trials, rng, *args, **kwargs):
        before = _philox_position(rng)
        try:
            return tracer.call("montecarlo.simulate_loss_direct", fn,
                               (pair, n_training, trials, rng) + args, kwargs, size=trials)
        finally:
            tracer.count("direct_words", _philox_position(rng) - before)

    return wrapper


def _trials_span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(spec, trials, *args, **kwargs):
        return tracer.call(name, fn, (spec, trials) + args, kwargs, size=trials)

    return wrapper


def _cdf_span(tracer, name, method):
    @functools.wraps(method)
    def wrapper(self, x):
        return tracer.call(name, method, (self, x), {}, size=int(np.size(x)))

    return wrapper


def _element_counter(tracer, key, ufunc):
    def wrapper(*args, **kwargs):
        out = ufunc(*args, **kwargs)
        tracer.count(key, int(np.size(out)))
        return out

    return wrapper


def install(tracer) -> list:
    """Replace the cross-layer names with tracing wrappers; returns the
    patches for :func:`uninstall`."""
    modules = {layer: sys.modules[f"snrloss.{layer}"] for layer in LAYERS}
    patches = []
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", "") or ""
            if not (isinstance(obj, types.FunctionType) and owner.startswith("snrloss.")
                    and owner != module.__name__):
                continue
            layer = owner.split(".")[1]
            if name == "simulate_loss_direct":
                wrapper = _direct_sampler(tracer, obj)
            elif name == "simulate_loss_representation":
                wrapper = _trials_span(tracer, f"{layer}.{name}", obj)
            else:
                wrapper = _span(tracer, f"{layer}.{name}", obj)
            patches.append((module, name, obj, wrapper))
    approximation = modules["approximation"]
    for cls, span in ((approximation.LossDistribution, "approximation.closed_cdf"),
                      (approximation.PearsonLossDistribution, "approximation.pearson_cdf")):
        patches.append((cls, "cdf", cls.cdf, _cdf_span(tracer, span, cls.cdf)))
    patches.append((approximation, "gammaincc", approximation.gammaincc,
                    _element_counter(tracer, "gammaincc", approximation.gammaincc)))
    for target, name, _, wrapper in patches:
        setattr(target, name, wrapper)
    return patches


def uninstall(patches) -> None:
    for target, name, original, _ in reversed(patches):
        setattr(target, name, original)


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(spans)]


def command_metrics(command, realizations, target) -> dict:
    """Per-layer numbers of one traced command.

    ``realizations`` is the number of scenario pairs the command built and
    ``target`` the span-name prefixes of the layer the workload stresses.
    Per-point and per-call figures read 0 when the layer did no work.
    """
    spans, counts = command["spans"], command["counts"]
    selfs = _self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    size = defaultdict(int)
    for (name, _, start, end, n), own in zip(spans, selfs):
        total[name] += end - start
        self_s[name] += own
        calls[name] += 1
        size[name] += n

    def per(name, scale, base):
        return scale * total[name] / base if base else 0.0

    def layer_self(prefix):
        return sum(own for (name, *_), own in zip(spans, selfs) if name.startswith(prefix))

    pearson_points = size["approximation.pearson_cdf"]
    trials = size["montecarlo.simulate_loss_direct"]
    linalg_calls = sum(n for name, n in calls.items() if name.startswith("linalg."))
    metrics = {
        "approximation.pearson_cdf.us_per_point": per("approximation.pearson_cdf", 1e6, pearson_points),
        "approximation.pearson_cdf.gammaincc_per_point":
            counts.get("gammaincc", 0) / pearson_points if pearson_points else 0.0,
        "approximation.closed_cdf.us_per_point":
            per("approximation.closed_cdf", 1e6, size["approximation.closed_cdf"]),
        "approximation.loss_mean.ms_per_call":
            per("approximation.loss_mean", 1e3, calls["approximation.loss_mean"]),
        "approximation.loss_mean.calls": calls["approximation.loss_mean"],
        "approximation.scaled_f_fit.us_per_call":
            per("approximation.scaled_f_fit", 1e6, calls["approximation.scaled_f_fit"]),
        "montecarlo.direct.us_per_trial": per("montecarlo.simulate_loss_direct", 1e6, trials),
        "sampling.direct_words_per_trial": counts.get("direct_words", 0) / trials if trials else 0.0,
        "montecarlo.representation.us_per_trial":
            per("montecarlo.simulate_loss_representation", 1e6,
                size["montecarlo.simulate_loss_representation"]),
        "montecarlo.ks_statistic.self_s": self_s["montecarlo.ks_statistic"],
        "montecarlo.two_sample_ks.self_s": self_s["montecarlo.two_sample_ks"],
        "montecarlo.empirical_summary.self_s": self_s["montecarlo.empirical_summary"],
        "linalg.calls_per_realization": linalg_calls / realizations,
        "sampling.sample_wishart.calls": calls["sampling.sample_wishart"],
        "sampling.sample_wishart.self_s": self_s["sampling.sample_wishart"],
        "scenarios.pair.self_s": layer_self("scenarios."),
        "mismatch.build_omega.self_s": self_s["mismatch.build_omega"],
        "mismatch.cumulants_q.us_per_call":
            per("mismatch.cumulants_q", 1e6, calls["mismatch.cumulants_q"]),
        "cli.self_s": selfs[0],
        "trace.target_share": sum(layer_self(prefix) for prefix in target) / total[ROOT],
    }
    for name in ("cholesky", "herm_eig", "solve_hermitian", "orth_complement"):
        metrics[f"linalg.{name}.calls"] = calls[f"linalg.{name}"]
        metrics[f"linalg.{name}.self_s"] = self_s[f"linalg.{name}"]
    for layer in ("linalg", "sampling", "mismatch", "approximation", "montecarlo"):
        metrics[f"{layer}.self_s"] = layer_self(f"{layer}.")
    return metrics


def median_metrics(per_command: list[dict]) -> dict:
    return {key: statistics.median(m[key] for m in per_command) for key in per_command[0]}

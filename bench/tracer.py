"""Span and counter tracing of thzest, installed from outside the package.

``Tracer.install()`` replaces module-level functions of the thzest modules
with wrappers.  Functions in ``SPANNED`` record a span each call: name,
start, end, span id, parent span id and the (sweep index, trial, user) of
the trial that caused it.  Every other public function only bumps a call
counter, which keeps hot leaves such as ``update_perturbation_diag`` (called
thousands of times per trial) down to one dict update per call.

Records stay in memory.  Pool workers forked while the wrappers are in
place inherit them; a worker appends its records to ``worker-<pid>.jsonl``
in the trace directory each time its outermost span ends, so the file is
complete before the parent receives that chunk's result.  ``collect()``
merges those files with the parent's records.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("arrays", "channel", "sbce", "refine", "baselines", "crb",
          "harness", "cli")

# Functions that get a span; every other public function is only counted.
# The two private harness functions give the per-chunk worker span and the
# trial id that every span below it carries.
SPANNED = {
    "arrays": ("build_dictionary",),
    "channel": ("gen_channel", "gen_pilot_matrix", "observe"),
    "sbce": ("run_sbce",),
    "refine": ("refine_direction",),
    "baselines": ("ls_estimate", "omp_estimate_joint", "mmse_estimate",
                  "oracle_covariance"),
    "crb": ("crb",),
    "harness": ("run_sweep", "run_point", "summarize_point",
                "records_to_csv", "_trial_chunk", "_run_single"),
    "cli": ("main",),
}

TRIAL_SPAN = "harness._run_single"
CHUNK_SPAN = "harness._trial_chunk"


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.spans: list[tuple] = []   # (name, t0, t1, id, parent, trial, pid)
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[tuple] = []  # (span id, trial id)
        self._fork_parent = (None, None)
        self._next = 0
        self._owner_pid = os.getpid()
        self._patched: list[tuple] = []  # (module, attr, original)
        self._active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import thzest  # noqa: F401  (loads every layer module)

        modules = {name: sys.modules[f"thzest.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            spanned = SPANNED[layer]
            for attr in spanned:
                if not inspect.isfunction(getattr(module, attr, None)):
                    self.missing.append(f"{layer}.{attr}")
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if attr in spanned:
                    wrappers[id(fn)] = (fn, self._span_wrapper(name, fn))
                elif not attr.startswith("_"):
                    wrappers[id(fn)] = (fn, self._count_wrapper(name, fn))
        # Rebind every module-level reference, including `from x import y`
        # copies held by other modules and the package namespace.
        for module in [sys.modules["thzest"], *modules.values()]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._active = True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._active = False

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        post = _POST_HOOKS.get(name)
        trial_of = _trial_binder(fn) if name == TRIAL_SPAN else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, trial = stack[-1] if stack else self._fork_parent
            if trial_of is not None:
                trial = trial_of(args, kwargs)
            self._next += 1
            sid = (os.getpid() << 32) | self._next
            stack.append((sid, trial))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((name, t0, t1, sid, parent, trial, os.getpid()))
            if post is not None:
                post(self.counts, args, kwargs, out)
            if not stack and os.getpid() != self._owner_pid:
                self._flush_worker()
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- worker processes ---------------------------------------------------

    def _after_fork(self) -> None:
        if not self._active:
            return
        # The child starts with a copy of the parent's records; drop them so
        # that each record is written once.  Its root spans hang under the
        # parent span that was open when the pool forked.
        self._fork_parent = self._stack[-1] if self._stack else (None, None)
        self._stack.clear()
        self.spans.clear()
        self.counts.clear()

    def _flush_worker(self) -> None:
        path = self.trace_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
        self.spans.clear()
        self.counts.clear()

    def collect(self):
        """All spans and summed counts, the parent's and every worker's."""
        spans = list(self.spans)
        counts = dict(self.counts)
        for path in sorted(self.trace_dir.glob("worker-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if "span" in rec:
                        spans.append(tuple(rec["span"]))
                    else:
                        for key, value in rec["counts"].items():
                            counts[key] = counts.get(key, 0) + value
            path.unlink()
        spans.sort(key=lambda s: s[1])
        return spans, counts

    def write(self, path: Path, spans, counts) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, sid, parent, trial, pid in spans:
                fh.write(json.dumps({
                    "name": name, "start": t0, "end": t1, "id": sid,
                    "parent": parent, "trial": trial, "pid": pid}) + "\n")
            fh.write(json.dumps({"counts": counts}) + "\n")


def _trial_binder(fn):
    sig = inspect.signature(fn)

    def trial_of(args, kwargs):
        bound = sig.bind_partial(*args, **kwargs).arguments
        return [bound.get("sweep_idx"), bound.get("trial"), bound.get("user")]

    return trial_of


def _post_run_sbce(counts, args, kwargs, result):
    counts["sbce.results"] = counts.get("sbce.results", 0) + 1
    counts["sbce.iterations_sum"] = (counts.get("sbce.iterations_sum", 0)
                                     + int(result.iterations))
    if not result.converged:
        counts["sbce.cap_hits"] = counts.get("sbce.cap_hits", 0) + 1


def _post_refine(counts, args, kwargs, result):
    coarse = args[0] if args else kwargs["coarse_dir"]
    counts["refine.results"] = counts.get("refine.results", 0) + 1
    if result == coarse:
        counts["refine.fallbacks"] = counts.get("refine.fallbacks", 0) + 1


_POST_HOOKS = {"sbce.run_sbce": _post_run_sbce,
               "refine.refine_direction": _post_refine}


# -- per-layer metrics --------------------------------------------------------

PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values):
    """Highest of PERCENTILES with at least ten samples beyond it; the last
    one, p50, when none has."""
    n = len(values)
    for pct in PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            break
    return pct, _percentile(values, pct)


def _percentile(values, pct):
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _self_times(spans):
    """Span duration minus the time its direct child spans cover."""
    child_time: dict[int, float] = {}
    for _, t0, t1, _, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    return {s[3]: (s[2] - s[1]) - child_time.get(s[3], 0.0) for s in spans}


def layer_metrics(spans, counts, workers: int) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced sweep."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    selfs = _self_times(spans)

    def total(*names):
        return sum(s[2] - s[1] for n in names for s in by_name.get(n, ()))

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in ("arrays.build_dictionary", "baselines.oracle_covariance",
                 "refine.refine_direction", "baselines.ls_estimate",
                 "baselines.omp_estimate_joint", "baselines.mmse_estimate",
                 "crb.crb"):
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = calls(name)
    channel = ("channel.gen_channel", "channel.gen_pilot_matrix",
               "channel.observe")
    out["channel.s"] = total(*channel)
    out["channel.calls"] = calls(*channel)

    sbce = by_name.get("sbce.run_sbce", [])
    durations_ms = [(s[2] - s[1]) * 1e3 for s in sbce]
    out["sbce.run_sbce.s"] = total("sbce.run_sbce")
    out["sbce.run_sbce.self_s"] = sum(selfs[s[3]] for s in sbce)
    out["sbce.run_sbce.calls"] = len(sbce)
    out["sbce.run_sbce.p50_ms"] = _percentile(durations_ms, 50.0)
    out["sbce.run_sbce.ptail_ms"] = tail_percentile(durations_ms)[1]
    out["sbce.perturbation_rebuilds"] = counts.get(
        "sbce.update_perturbation_diag", 0)
    out["sbce.iterations.mean"] = ratio(counts.get("sbce.iterations_sum", 0),
                                        counts.get("sbce.results", 0))
    out["sbce.cap_hit_ratio"] = ratio(counts.get("sbce.cap_hits", 0),
                                      counts.get("sbce.results", 0))
    out["refine.fallback_ratio"] = ratio(counts.get("refine.fallbacks", 0),
                                         counts.get("refine.results", 0))

    run_point = total("harness.run_point")
    out["harness.run_point.s"] = run_point
    out["harness.summarize.s"] = total("harness.summarize_point",
                                       "harness.records_to_csv")
    out["harness.worker_busy_ratio"] = ratio(total(CHUNK_SPAN),
                                             workers * run_point)
    out["cli.overhead_s"] = total("cli.main") - total("harness.run_sweep")
    return out

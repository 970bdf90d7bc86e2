"""Per-layer tracing installed from outside the program.

``Tracer.install`` wraps the public functions and methods of every
``byzreg`` module.  A name that one module imports from another
(``from .core import ws_of``) is a separate binding, so every module's
binding of a wrapped function is replaced; methods are wrapped on the
classes that define them, so subclasses that inherit a method share its
wrapper.  Each call records a span (function, parent span, start, end) in
memory.  ``flush`` turns the spans of one operation into self and
inclusive times and drops them, which keeps memory flat over long runs;
``per_layer`` writes everything out at the end.

The layer of a function is the module that defines it.  A few hot
predicates (``enabled`` and ``done`` on the machines) and the checker's
private ``_scan_finals`` are counted without a span, so their time stays
in their caller's self time.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("engine", "protocol", "registers", "crypto", "core", "adversary", "checker", "cli")

# inclusive-time groups: a span counts once, not again under a span of
# its own group
GROUPS = {
    "engine.clone_s": {"engine.Simulation.clone"},
    "engine.state_key_s": {"engine.Simulation.state_key"},
    "protocol.form_inform_s": {"protocol.form_inform_set"},
    "protocol.find_latest_s": {"protocol.find_latest"},
    "registers.op_s": {"registers.RegisterBank.read", "registers.RegisterBank.write"},
    "registers.codec_s": {"registers.encode_value", "registers.decode_value"},
    "registers.atomicity_s": {"registers.atomicity_violations"},
    "core.ws_of_s": {"core.ws_of"},
    "adversary.build_machines_s": {"adversary.build_machines"},
    "checker.stabilization_s": {"checker.detect_stabilizations"},
    "checker.linearizability_s": {
        "checker.check_register_linearizability",
        "checker.check_byzantine_linearization",
    },
    "cli.load_s": {"cli.load_scenario"},
    "cli.digest_s": {"cli.campaign_digest"},
}
SCHEDULER = {
    "engine.Simulation.step_process",
    "engine.Simulation.enabled_pids",
    "engine.Simulation.workload_complete",
}
COUNTED = {"enabled", "done"}  # machine methods counted without a span
COUNTED_PRIVATE = {"checker._scan_finals"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer: list[str] = []
        self.bits: list[int] = []
        self.fid: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack = [-1]
        self.active = True
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[int, int] = defaultdict(int)
        self.self_s: dict[int, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.group_bit = {g: 1 << i for i, g in enumerate(GROUPS)}
        self.machine_methods: set[int] = set()
        self.choosers: set[int] = set()
        self.ws_of_in_formation = 0
        self.formations = 0
        self.state_hashes: set[int] = set()
        self.modules: dict[str, object] = {}
        self.caches: dict[str, object] = {}

    # --- installing ---------------------------------------------------------

    def install(self) -> None:
        self.modules = {m: importlib.import_module(f"byzreg.{m}") for m in LAYERS}
        protocol = self.modules["protocol"]
        self.caches = {
            "protocol.form_inform_cache": getattr(protocol, "_form_inform_cached", None),
            "protocol.ws_of_cache": getattr(protocol, "cached_ws_of", None),
        }
        machine_base = protocol.ProcessMachine
        for layer, mod in self.modules.items():
            for obj in list(vars(mod).values()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, BaseException) and not isinstance(obj, enum.EnumMeta):
                        self._wrap_class(obj, layer, issubclass(obj, machine_base))
        wrappers: dict[int, object] = {}
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if not _wrappable(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("byzreg."):
                    continue
                qual = f"{home[len('byzreg.'):]}.{obj.__qualname__}"
                if attr.startswith("_") and qual not in COUNTED_PRIVATE:
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    w = wrappers[id(obj)] = self._wrap_function(obj, qual)
                setattr(mod, attr, w)

    def _wrap_function(self, fn, qual: str):
        if qual in COUNTED_PRIVATE:
            return self._counter(fn, qual)
        if qual == "protocol.form_inform_set":
            return self._formation(self._span(fn, self._register(qual)))
        return self._span(fn, self._register(qual))

    def _wrap_class(self, cls, layer: str, is_machine: bool) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            kind = None
            if isinstance(member, staticmethod):
                kind, fn = staticmethod, member.__func__
            elif isinstance(member, classmethod):
                kind, fn = classmethod, member.__func__
            elif inspect.isfunction(member):
                fn = member
            else:
                continue
            if inspect.isgeneratorfunction(fn):
                continue
            qual = f"{layer}.{fn.__qualname__}"
            if is_machine and name in COUNTED:
                w = self._counter(fn, name)
            else:
                fid = self._register(qual)
                if is_machine and name in ("next_op", "apply"):
                    self.machine_methods.add(fid)
                if layer == "engine" and name == "choose":
                    self.choosers.add(fid)
                w = self._span(fn, fid)
                if qual == "engine.Simulation.state_key":
                    w = self._state_key(w)
            setattr(cls, name, kind(w) if kind else w)

    def _register(self, qual: str) -> int:
        fid = len(self.names)
        self.names.append(qual)
        self.layer.append(qual.split(".", 1)[0])
        self.bits.append(sum(b for g, b in self.group_bit.items() if qual in GROUPS[g]))
        self.fid[qual] = fid
        return fid

    def _span(self, fn, fid: int):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [fid, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _counter(self, fn, key: str):
        counts, tracer = self.counts, self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _formation(self, span):
        """Count formations computed on a cache miss that produced a set."""
        cache = self.caches["protocol.form_inform_cache"]
        tracer = self

        def wrapper(*args, **kwargs):
            if cache is None or not tracer.active:
                return span(*args, **kwargs)
            before = cache.cache_info().misses
            result = span(*args, **kwargs)
            if result is not None and cache.cache_info().misses > before:
                tracer.formations += 1
            return result

        return functools.update_wrapper(wrapper, span)

    def _state_key(self, span):
        hashes, tracer = self.state_hashes, self

        def wrapper(*args, **kwargs):
            key = span(*args, **kwargs)
            if tracer.active:
                hashes.add(hash(key))
            return key

        return functools.update_wrapper(wrapper, span)

    @contextmanager
    def paused(self):
        """Run benchmark-side work (digests, its own checks) untraced."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # --- accounting ---------------------------------------------------------

    def flush(self) -> None:
        """Fold the spans recorded so far into per-function totals."""
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        above = [0] * n  # group bits of every enclosing span
        bits = self.bits
        for i, (fid, parent, t0, t1) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                above[i] = above[parent] | bits[spans[parent][0]]
        ws_of = self.fid.get("core.ws_of", -1)
        formation = self.group_bit["protocol.form_inform_s"]
        for i, (fid, parent, t0, t1) in enumerate(spans):
            d = t1 - t0
            self.calls[fid] += 1
            self.self_s[fid] += d - child[i]
            own = bits[fid] & ~above[i]
            if own:
                for g, b in self.group_bit.items():
                    if own & b:
                        self.group_s[g] += d
            if fid == ws_of and above[i] & formation:
                self.ws_of_in_formation += 1
        spans.clear()

    def calls_of(self, *quals: str) -> int:
        return sum(self.calls[self.fid[q]] for q in quals if q in self.fid)

    def self_of(self, fids) -> float:
        return sum(self.self_s[f] for f in fids)

    def per_layer(self, histories: int, traced_s: float, untraced_s: float) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        fids = range(len(self.names))
        by_layer = {
            layer: self.self_of(f for f in fids if self.layer[f] == layer) for layer in LAYERS
        }
        steps = self.calls_of("engine.Simulation.step_process")
        per_run = max(histories, 1)
        scheduler = [self.fid[q] for q in SCHEDULER if q in self.fid] + sorted(self.choosers)
        protocol_machines = [f for f in self.machine_methods if self.layer[f] == "protocol"]
        adversary_machines = [f for f in self.machine_methods if self.layer[f] == "adversary"]
        out = {
            "engine.steps": (steps, "count"),
            "engine.schedule_s": (self.self_of(scheduler), "s"),
            "engine.enabled_scans_per_step": (self.counts["enabled"] / max(steps, 1), "1/step"),
            "engine.states_visited": (len(self.state_hashes), "count"),
            "protocol.machine_s": (self.self_of(protocol_machines), "s"),
            "protocol.form_inform_calls": (self.calls_of("protocol.form_inform_set"), "count"),
            "protocol.ws_of_per_formation": (
                self.ws_of_in_formation / self.formations if self.formations else 0.0,
                "ratio",
            ),
            "registers.ops": (
                self.calls_of("registers.RegisterBank.read", "registers.RegisterBank.write"),
                "count",
            ),
            "registers.codec_calls": (
                self.calls_of("registers.encode_value", "registers.decode_value"),
                "count",
            ),
            "crypto.sign_calls": (
                self.calls_of("crypto.KeyedDigestScheme.sign", "crypto.Ed25519Scheme.sign"),
                "count",
            ),
            "crypto.verify_calls": (
                self.calls_of("crypto.KeyedDigestScheme.verify", "crypto.Ed25519Scheme.verify"),
                "count",
            ),
            "crypto.s": (by_layer["crypto"], "s"),
            "core.ws_of_calls": (self.calls_of("core.ws_of"), "count"),
            "core.mapsto_compare_calls": (self.calls_of("core.mapsto_compare"), "count"),
            "adversary.machine_s": (self.self_of(adversary_machines), "s"),
            "checker.s": (by_layer["checker"], "s"),
            "checker.hli_ops_per_run": (self.calls_of("checker.hli_ops") / per_run, "count/run"),
            "checker.sort_stabilizations_per_run": (
                self.calls_of("checker.sort_stabilizations") / per_run,
                "count/run",
            ),
            "checker.scan_finals_per_run": (
                self.counts["checker._scan_finals"] / per_run,
                "count/run",
            ),
            "checker.full_timestamps_per_run": (
                self.calls_of("checker.build_full_timestamps") / per_run,
                "count/run",
            ),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
        }
        for g in GROUPS:
            out[g] = (self.group_s[g], "s")
        for layer in ("engine", "protocol", "registers", "core", "adversary", "cli"):
            out[f"{layer}.self_s"] = (by_layer[layer], "s")
        out.update(self.cache_sizes())
        return out

    def cache_sizes(self) -> dict:
        """Entries and hit counts of the program's module-level caches."""
        registers = self.modules["registers"]
        crypto = self.modules["crypto"]
        out = {
            "registers.codec_cache_entries": (
                len(getattr(registers, "_encode_cache", ()))
                + len(getattr(registers, "_decode_cache", ())),
                "count",
            ),
        }
        for prefix, cache in self.caches.items():
            info = cache.cache_info() if hasattr(cache, "cache_info") else None
            out[f"{prefix}_hits"] = (info.hits if info else 0, "count")
            out[f"{prefix}_misses"] = (info.misses if info else 0, "count")
            out[f"{prefix}_entries"] = (info.currsize if info else 0, "count")
        rings = list(getattr(crypto, "_RING_CACHE", {}).values())
        out["crypto.ring_cache_entries"] = (len(rings), "count")
        out["checker.final_validation_entries"] = (
            sum(len(getattr(r, "_final_validation_cache", ())) for r in rings),
            "count",
        )
        return out

    def top(self, limit: int = 25) -> list[tuple[str, int, float]]:
        """The functions with the most self time: (name, calls, self seconds)."""
        rows = [(self.names[f], self.calls[f], self.self_s[f]) for f in range(len(self.names))]
        rows.sort(key=lambda r: -r[2])
        return rows[:limit]


def _wrappable(obj) -> bool:
    if inspect.isclass(obj):
        return False
    if inspect.isfunction(obj):
        return not inspect.isgeneratorfunction(obj)
    return callable(obj) and hasattr(obj, "cache_info")

"""Span tracing of the steerqkd layers from outside the package.

:class:`Tracer` replaces the public functions at each module boundary with
wrappers that record a span (name, start, end, parent, op) and count work
done, then puts the originals back.  No source file changes: the wrappers
are installed into every ``steerqkd`` module namespace that holds the
original function, because modules import each other's names directly.
Spans are kept in memory and summarised when the run ends; a layer's self
time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from steerqkd import cli, families, filtering, protocol, qber, qstate, steering
from steerqkd.errors import FilterAnnihilates

# (module, attribute, span name) of each traced function.
TRACED = (
    (qstate, "bloch_decompose", "qstate.bloch_decompose"),
    (qstate, "tensor_spectrum", "qstate.tensor_spectrum"),
    (families, "make_werner", "families.make"),
    (families, "make_gamma", "families.make"),
    (families, "make_bell_diagonal", "families.make"),
    (steering, "verdict", "steering.verdict"),
    (qber, "classify_usefulness", "qber.classify_usefulness"),
    (qber, "optimal_triads", "qber.optimal_triads"),
    (filtering, "apply_local_filters", "filtering.apply_local_filters"),
    (filtering, "modified_protocol_useful", "filtering.modified_protocol_useful"),
    (protocol, "run_protocol", "protocol.run_protocol"),
    (cli, "useful_q_start", "onset.useful_q_start"),
)

ROOT_SPAN = "cli.main"

# Spans whose self time or call count is reported.
TIMED_LAYERS = (
    "qstate.bloch_decompose", "qstate.validate", "families.make",
    "qstate.tensor_spectrum", "filtering.apply_local_filters",
)
SELF_ONLY_LAYERS = (
    "steering.verdict", "qber.classify_usefulness", "protocol.run_protocol",
    "qber.optimal_triads",
)


def _count_protocol(c: Counter, args, report) -> None:
    cfg = args[1]
    p = report.p_succ_empirical
    c["protocol.rounds"] += cfg.rounds
    c["protocol.kept"] += cfg.rounds if p is None else round(p * cfg.rounds)
    c["protocol.sifted"] += report.sifted_count
    c["protocol.disclosed"] += report.disclosed_count
    c["protocol.key_bits"] += len(report.raw_key_alice)


def _count_probe(c: Counter, args, useful: bool) -> None:
    c["filtering.useful_probes"] += bool(useful)


# Work counters updated from a traced call's arguments and result.
COUNTERS = {
    "protocol.run_protocol": _count_protocol,
    "filtering.modified_protocol_useful": _count_probe,
}


@dataclass(frozen=True)
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Records spans and work counters while installed (``with tracer:``)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1

    # --- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; spans outside a root span are not kept."""
        if not self._stack and name != ROOT_SPAN:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(self.op, name, start, end, parent)

    def call_main(self, op: int, argv: list[str]) -> int:
        """Run ``cli.main(argv)`` as the root span of operation ``op``."""
        self.op = op
        return self.span(ROOT_SPAN, cli.main, argv)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = self.span(name, fn, *args, **kwargs)
            except FilterAnnihilates:
                if name == "filtering.apply_local_filters" and self._stack:
                    self.counters["filtering.annihilated"] += 1
                raise
            if count is not None and self._stack:
                count(self.counters, args, result)
            return result

        return wrapper

    # --- installing ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "steerqkd" or name.startswith("steerqkd."))]
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
            for key, (params_cls, maker, fields) in list(cli._FAMILY_MAKERS.items()):
                if maker is original:
                    self._set(cli._FAMILY_MAKERS, key, (params_cls, wrapper, fields))
        post_init = qstate.DensityMatrix.__post_init__

        def validate(obj):
            return self.span("qstate.validate", post_init, obj)

        self._set(qstate.DensityMatrix, "__post_init__", validate)
        return self

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._restore.append((target, key, target[key]))
            target[key] = value
        else:
            self._restore.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def __exit__(self, *exc) -> None:
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()

    # --- summarising -----------------------------------------------------

    def layer_totals(self) -> tuple[Counter, defaultdict]:
        """Span count and self time (s) per span name."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.end - span.start
            if span.parent >= 0:
                self_s[self.spans[span.parent].name] -= span.end - span.start
        return calls, self_s


def per_layer_metrics(tracer: Tracer, ops: int, output_bytes: int,
                      overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the bases of the ratios.

    Counts and times are per ``cli.main`` call so that runs which get
    through different numbers of calls stay comparable.
    """
    calls, self_s = tracer.layer_totals()
    c = tracer.counters
    m: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.calls"] = (calls[layer] / ops, "calls/op")
        m[f"{layer}.self_s"] = (self_s[layer] / ops, "s/op")
    for layer in SELF_ONLY_LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer] / ops, "s/op")
    m["cli.self_s"] = (self_s[ROOT_SPAN] / ops, "s/op")
    m["cli.output_bytes"] = (output_bytes / ops, "B/op")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    probes = calls["filtering.modified_protocol_useful"]
    m["filtering.annihilated"] = (c["filtering.annihilated"] / ops, "count/op")
    m["filtering.useful_ratio"] = (ratio(c["filtering.useful_probes"], probes), "ratio")
    m["onset.probes_per_onset"] = (ratio(probes, calls["onset.useful_q_start"]), "probes")
    m["protocol.rounds"] = (c["protocol.rounds"] / ops, "rounds/op")
    m["protocol.kept_ratio"] = (ratio(c["protocol.kept"], c["protocol.rounds"]), "ratio")
    m["protocol.sift_ratio"] = (ratio(c["protocol.sifted"], c["protocol.kept"]), "ratio")
    m["protocol.disclosed"] = (c["protocol.disclosed"] / ops, "rounds/op")
    m["protocol.key_bits"] = (c["protocol.key_bits"] / ops, "bits/op")
    m["trace.overhead"] = (overhead, "ratio")
    bases = {"ops": ops, **c, "span_calls": dict(calls), "span_self_s": dict(self_s)}
    return m, bases

"""Span tracer that wraps todgen's public functions from outside.

Each wrapped function records a span (name, start, end, parent, dialog id)
in memory. A name that is already open on the stack (a recursive call) is
counted but not spanned, so its time is that of the outermost calls. Every
module that bound the original function is patched, so
``from .realizer import render_template`` in ``qc`` is traced too.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter

STAGES = ("personas", "contexts", "plots", "realize", "qc", "stats", "split")

# (module, attribute, span name, how the span learns its dialog id)
# "seq" numbers the calls within a stage in dialog order; "kw:<name>" reads a
# keyword argument; "arg0.id" reads the id of the first positional argument.
TARGETS = (
    ("todgen.persona", "generate_pool", "persona.generate_pool", None),
    ("todgen.context", "generate_contexts", "context.generate_contexts", "seq"),
    ("todgen.sampler", "sample_specimen", "sampler.sample_specimen", "kw:dialog_id"),
    ("todgen.plot", "build_plot", "plot.build_plot", "seq"),
    ("todgen.plot", "Plot.from_dict", "plot.from_dict", None),
    ("todgen.mr", "parse_action", "mr.parse_action", None),
    ("todgen.mr", "print_action", "mr.print_action", None),
    ("todgen.realizer", "realize_dialog", "realizer.realize_dialog", "seq"),
    ("todgen.realizer", "render_template", "realizer.render_template", None),
    ("todgen.realizer", "build_history", "realizer.build_history", None),
    ("todgen.config", "data_path", "config.data_path", None),
    ("todgen.qc", "check_unformatted", "qc.check_unformatted", "arg0.id"),
    ("todgen.qc", "check_slot_coverage", "qc.check_slot_coverage", "arg0.id"),
    ("todgen.qc", "evaluate_consistency", "qc.evaluate_consistency", "arg0.id"),
    ("todgen.dataset", "read_dataset", "dataset.read_dataset", None),
    ("todgen.dataset", "write_dataset", "dataset.write_dataset", None),
    ("todgen.dataset", "compute_stats", "dataset.compute_stats", None),
    ("todgen.dataset", "split", "dataset.split", None),
    ("todgen.schema", "load_schema_set", "schema.load_schema_set", None),
    ("todgen.llm", "Backend.complete", "llm.complete", None),
) + tuple(("todgen.cli", f"stage_{s}", f"cli.{s}", None) for s in STAGES)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, dialog id or None]
        self.spans: list = []
        self.calls: Counter = Counter()
        self.http_sends = 0
        self._stack: list = []
        self._open: Counter = Counter()
        self._seq: Counter = Counter()
        self.complete_sends: list = []  # (llm.complete span, HTTP sends in it)
        self._clock = time.perf_counter

    def _dialog_of(self, how, name, args, kwargs):
        if how is None:
            return None
        if how == "seq":
            n = self._seq[name]
            self._seq[name] += 1
            return f"dlg-{n:05d}"
        if how.startswith("kw:"):
            return kwargs.get(how[3:])
        return getattr(args[0], "id", None) if args else None

    def wrap(self, fn, name: str, how=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if tracer._open[name]:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            dialog = tracer._dialog_of(how, name, args, kwargs)
            if dialog is None and parent >= 0:
                dialog = tracer.spans[parent][4]
            if name.startswith("cli."):
                tracer._seq.clear()
            sends = tracer.http_sends
            idx = len(tracer.spans)
            span = [name, tracer._clock(), None, parent, dialog]
            tracer.spans.append(span)
            stack.append(idx)
            tracer._open[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = tracer._clock()
                tracer._open[name] -= 1
                stack.pop()
                if name == "llm.complete":
                    tracer.complete_sends.append((idx, tracer.http_sends - sends))

        return traced

    def install(self) -> None:
        """Wrap every target and the HTTP transport; call once, after the
        todgen modules are imported."""
        for module_name, attr, name, how in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, name, how)))
                else:
                    setattr(cls, meth, self.wrap(raw, name, how))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name, how)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "todgen" or mod_name.startswith("todgen."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
        self._wrap_http_send()

    def _wrap_http_send(self) -> None:
        import requests.sessions

        send = requests.sessions.Session.send
        tracer = self

        @functools.wraps(send)
        def counted_send(session, request, **kwargs):
            tracer.http_sends += 1
            return send(session, request, **kwargs)

        requests.sessions.Session.send = counted_send

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, dialog in self.spans:
                f.write(json.dumps([name, round(start, 7), round(end, 7),
                                    parent, dialog]))
                f.write("\n")


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def layer_metrics(tracer: Tracer, dialogs: int, tag_calls: Counter,
                  latency_s: float) -> dict:
    """Per-layer numbers from the spans; values only, units live in
    workloads.json."""
    durations: dict[str, list] = {}
    self_s: Counter = Counter()
    for name, start, end, parent, _ in tracer.spans:
        durations.setdefault(name, []).append(end - start)
        self_s[name] += end - start
        if parent >= 0:
            self_s[tracer.spans[parent][0]] -= end - start

    def total(name):
        return sum(durations.get(name, ()))

    m: dict = {}
    for stage in STAGES:
        m[f"cli.{stage}_s"] = total(f"cli.{stage}")
        m[f"cli.{stage}_self_s"] = self_s[f"cli.{stage}"]
    for tag in ("persona_details", "persona_intro", "context", "slot_values",
                "db_query", "user_turn", "system_turn", "qc_eval"):
        m[f"llm.calls.{tag}"] = tag_calls.get(tag, 0) / dialogs
    complete_ms = [d * 1000 for d in durations.get("llm.complete", ())]
    m["llm.busy_s"] = total("llm.complete")
    m["llm.complete_ms_p50"] = quantile(complete_ms, 0.5)
    m["llm.complete_ms_p99"] = quantile(complete_ms, 0.99)
    overhead = []
    for idx, sends in tracer.complete_sends:
        _, start, end, _, _ = tracer.spans[idx]
        overhead.append((end - start - latency_s * sends) * 1000)
    m["llm.overhead_ms_p50"] = quantile(overhead, 0.5)
    realize_ms = [d * 1000 for d in durations.get("realizer.realize_dialog", ())]
    m["realizer.realize_dialog_ms_p50"] = quantile(realize_ms, 0.5)
    m["realizer.realize_dialog_ms_p99"] = quantile(realize_ms, 0.99)
    for name in ("realizer.render_template", "plot.from_dict",
                 "mr.parse_action", "mr.print_action"):
        m[f"{name}_calls"] = tracer.calls[name]
        m[f"{name}_s"] = total(name)
    m["config.data_path_calls"] = tracer.calls["config.data_path"]
    for name in ("realizer.build_history", "plot.build_plot",
                 "context.generate_contexts", "sampler.sample_specimen",
                 "persona.generate_pool", "schema.load_schema_set",
                 "qc.check_unformatted", "qc.check_slot_coverage",
                 "qc.evaluate_consistency", "dataset.read_dataset",
                 "dataset.write_dataset", "dataset.compute_stats",
                 "dataset.split"):
        m[f"{name}_s"] = total(name)
    return m

"""Spans around crsdiag's public functions, recorded from outside the program.

Tracer.install() rebinds each target function, in every crsdiag module
namespace that holds it, to a wrapper that records a span: function,
start, end, parent span and op id.  Spans stay in memory; self time is
computed from them when the run ends.  uninstall() puts every original
function back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer (module) -> public functions timed in it
TARGETS = {
    "cli": ("main",),
    "dsl": ("parse_file", "print_file", "diagram_json"),
    "front": ("parse_front_word", "trace_components", "classical_invariants"),
    "core": ("validate_diagram", "check_nice"),
    "bridge": ("pair_pm1_diagram", "joint_pairs_to_pm1", "kirby1_gadget"),
    "homology": ("h1_dehn", "h1_round_diagram", "h1_round1", "h1_round2",
                 "smith_normal_form", "det"),
    "slopes": ("normalize_slopes", "neg_cf", "honda_count", "enumerate_configurations"),
    "dividing": ("glue_annuli", "giroux_overtwisted"),
}
LAYERS = tuple(TARGETS)


def _max_bits(matrix):
    return max((abs(x).bit_length() for row in matrix.entries for x in row), default=0)


# counters read from a call's arguments and result, outside its timed span
def _count_parse_file(t, args, result):
    t.counters["dsl.bytes_parsed"] += len(args[0])


def _count_front_word(t, args, result):
    t.counters["front.events"] += len(result.events)


def _count_trace(t, args, result):
    t.words.add((t.op, hash(args[0].events)))


def _count_gadget(t, args, result):
    t.counters["bridge.gadget_components"] += len(result.components)


def _count_smith(t, args, result):
    m = args[0]
    c = t.counters
    c["homology.smith_dim_max"] = max(c["homology.smith_dim_max"], m.nrows, m.ncols)
    bits = max(_max_bits(result.left), _max_bits(result.right))
    c["homology.smith_cert_bits_max"] = max(c["homology.smith_cert_bits_max"], bits)


def _count_configs(t, args, result):
    t.counters["slopes.configs_emitted"] += len(result)


def _count_curves(t, args, result):
    t.counters["dividing.curves"] += len(result.curves)


HOOKS = {
    "dsl.parse_file": _count_parse_file,
    "front.parse_front_word": _count_front_word,
    "front.trace_components": _count_trace,
    "bridge.kirby1_gadget": _count_gadget,
    "homology.smith_normal_form": _count_smith,
    "slopes.enumerate_configurations": _count_configs,
    "dividing.glue_annuli": _count_curves,
}


def self_times(spans):
    """Self time per span: its duration minus the union of its children.

    A span is (name, start, end, outer_end, parent, op) with parent an index
    into spans or -1; outer_end >= end includes the wrapper's counting work,
    which belongs to no layer.
    """
    children = defaultdict(list)
    for span in spans:
        if span[4] >= 0:
            children[span[4]].append((span[1], span[3]))
    out = []
    for i, (_name, start, end, _outer, _parent, _op) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = defaultdict(int)
        self.words = set()
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (name, start, end, end, parent, self.op)
            if hook is not None:
                hook(self, args, result)
                spans[me] = (name, start, end, clock(), parent, self.op)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "crsdiag" or n.startswith("crsdiag."))]
        for layer, names in TARGETS.items():
            home = sys.modules[f"crsdiag.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_metrics(self):
        """Per-layer metrics in seconds and counts, from the recorded spans."""
        spans = [s for s in self.spans if s is not None]
        by_name = defaultdict(float)
        calls = defaultdict(int)
        for span, own in zip(spans, self_times(spans)):
            by_name[span[0]] += own / 1e9
            calls[span[0]] += 1
        m = {
            "cli.main_self_s": by_name["cli.main"],
            "dsl.parse_file_s": by_name["dsl.parse_file"],
            "dsl.parse_file_calls": calls["dsl.parse_file"],
            "dsl.print_file_s": by_name["dsl.print_file"],
            "dsl.diagram_json_s": by_name["dsl.diagram_json"],
            "front.parse_front_word_s": by_name["front.parse_front_word"],
            "front.trace_components_s": by_name["front.trace_components"],
            "front.trace_components_calls": calls["front.trace_components"],
            "front.traces_per_word": calls["front.trace_components"] / max(1, len(self.words)),
            "front.classical_invariants_s": by_name["front.classical_invariants"],
            "core.validate_diagram_s": by_name["core.validate_diagram"],
            "core.validate_diagram_calls": calls["core.validate_diagram"],
            "core.check_nice_s": by_name["core.check_nice"],
            "core.check_nice_calls": calls["core.check_nice"],
            "bridge.pair_pm1_diagram_s": by_name["bridge.pair_pm1_diagram"],
            "bridge.joint_pairs_to_pm1_s": by_name["bridge.joint_pairs_to_pm1"],
            "bridge.kirby1_gadget_s": by_name["bridge.kirby1_gadget"],
            "homology.h1_self_s": sum(by_name[f"homology.{f}"] for f in
                                      ("h1_dehn", "h1_round_diagram", "h1_round1", "h1_round2")),
            "homology.smith_normal_form_s": by_name["homology.smith_normal_form"],
            "homology.smith_normal_form_calls": calls["homology.smith_normal_form"],
            "homology.det_s": by_name["homology.det"],
            "slopes.normalize_slopes_s": by_name["slopes.normalize_slopes"],
            "slopes.normalize_slopes_calls": calls["slopes.normalize_slopes"],
            "slopes.neg_cf_s": by_name["slopes.neg_cf"],
            "slopes.honda_count_s": by_name["slopes.honda_count"],
            "slopes.enumerate_configurations_s": by_name["slopes.enumerate_configurations"],
            "dividing.glue_annuli_s": by_name["dividing.glue_annuli"],
            "dividing.glue_annuli_calls": calls["dividing.glue_annuli"],
            "dividing.giroux_overtwisted_s": by_name["dividing.giroux_overtwisted"],
        }
        for key in ("dsl.bytes_parsed", "front.events", "bridge.gadget_components",
                    "homology.smith_dim_max", "homology.smith_cert_bits_max",
                    "slopes.configs_emitted", "dividing.curves"):
            m[key] = self.counters[key]
        layer_self = defaultdict(float)
        for name, seconds in by_name.items():
            layer_self[name.split(".")[0]] += seconds
        total = sum(layer_self.values()) or 1.0
        for layer in LAYERS:
            m[f"{layer}.share"] = layer_self[layer] / total
        return m

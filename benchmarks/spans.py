"""Span tracing of chainmat from outside the library.

``Tracer.install`` replaces each public function of a layer with a wrapper
that records a span (layer, parent span, start, end) and, for some layers,
counts work from the call's arguments and return value.  The wrapper is
installed under every ``chainmat`` module attribute bound to the same
function object, so names re-imported elsewhere (``codes.span``,
``gallery.check_matroid``, ``cli.make_ring``) are traced too.  Spans stay
in memory, and only inside a job's root span (``Tracer.job``); a
layer's self time is the length of its spans minus the part their child
spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

from chainmat import cli, codes, enumgeo, gallery, indepsys, linalg, modindep, rings

HARNESS = "bench"  # root span of every job: benchmark code and unwrapped calls


def _count_span(counters, args, result):
    counters["modindep.span.vectors"] += len(result)


def _count_build(counters, args, result):
    counters["indepsys.family_size"] += len(result.family)


def _count_dual_code(counters, args, result):
    c = args[0]
    # dual_code scans all of R^n unless the code is zero or (over a chain
    # ring) free; the route is read back from public properties.
    if c.generator_count and not (c.ring.is_chain and c.is_free):
        counters["codes.kernel_scan.candidates"] += c.ring.size ** c.length
        counters["codes.kernel_scan.dual_words"] += len(result.codewords)


# layer -> (functions as (owner, attribute name), counter hook)
LAYERS = {
    "rings.make_ring": ([(rings, "make_ring")], None),
    "linalg.snf": ([(linalg, "snf_exponents"), (linalg, "smith_normal_form")], None),
    "linalg.systematic": ([(linalg, "systematic_form")], None),
    "modindep.indep_tests": ([(modindep, "is_modular_independent")], None),
    "modindep.span": ([(modindep, "span")], _count_span),
    "modindep.ideal_multiple": ([(modindep, "ideal_multiple")], None),
    "indepsys.build": ([(indepsys, "build_from_matrix")], _count_build),
    "indepsys.check_matroid": ([(indepsys, "check_matroid")], None),
    "indepsys.rank": ([(indepsys.IndependenceSystem, "rank")], None),
    "indepsys.circuits": ([(indepsys.IndependenceSystem, "circuits")], None),
    "indepsys.dual": ([(indepsys.IndependenceSystem, "dual")], None),
    "indepsys.is_isomorphic": ([(indepsys, "is_isomorphic")], None),
    "codes.from_matrix": ([(codes.Code, "from_matrix")], None),
    "codes.from_codeword_set": ([(codes.Code, "from_codeword_set")], None),
    "codes.dual_code": ([(codes, "dual_code")], _count_dual_code),
    "codes.minors": ([(codes, n) for n in ("puncture", "shorten", "is_contractible", "contract_code")], None),
    "enumgeo": ([(enumgeo, n) for n in (
        "torsion_subgroup_size", "count_cyclic_submodules", "projective_line",
        "uniform_rank2_representation", "simple_size_bound", "cyclic_submodules",
        "max_antichain", "cyc_antichain_bound")], None),
    "gallery.verify_entry": ([(gallery, "verify_entry")], None),
    "cli": ([(cli, "main")], None),
}


class Tracer:
    def __init__(self):
        self.layers = [HARNESS, *LAYERS]
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = Counter()
        self.counters = Counter()
        self._stack = [-1]
        self._restore = []

    # -- recording -------------------------------------------------------------

    def job(self, fn, *args):
        """Run one job, fn(*args), inside a root span of the harness layer."""
        return self._wrap(self._layer_id[HARNESS], fn, None, root=True)(*args)

    def _wrap(self, layer_id: int, fn, hook, root=False):
        stack, calls, counters = self._stack, self.calls, self.counters
        s_layer, s_parent = self.span_layer, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not root and stack[-1] < 0:
                return fn(*args, **kwargs)  # outside every job, e.g. output checks
            idx = len(s_layer)
            s_layer.append(layer_id)
            s_parent.append(stack[-1])
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
                calls[layer_id] += 1
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "chainmat" or name.startswith("chainmat.")]
        for layer, (targets, hook) in LAYERS.items():
            for owner, attr in targets:
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(self._layer_id[layer], fn, hook)
                self._set(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                if isinstance(owner, type):
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn and mod is not owner:
                            self._set(mod, name, wrapped)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reduction -------------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer, each span's length minus its children's."""
        own = [0.0] * len(self.layers)
        start, end, layer, parent = self.span_start, self.span_end, self.span_layer, self.span_parent
        for i in range(len(layer)):
            d = end[i] - start[i]
            own[layer[i]] += d
            p = parent[i]
            if p >= 0:
                own[layer[p]] -= d
        return dict(zip(self.layers, own))

    def call_count(self, layer: str) -> int:
        return self.calls[self._layer_id[layer]]


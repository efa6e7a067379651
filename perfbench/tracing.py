"""Spans around the public functions of each cyclosieve module.

A traced sweep wraps the functions listed in ``SPANS`` in every namespace
that looks them up (module globals, the package namespace, class
attributes), and accumulates each span's self time: its duration minus the
time its child spans cover.  A call that re-enters the span already open at
the top of the stack joins it instead of opening a new one.  The time no
span covers is the benchmark's own (``bench.self_s``), so the self times add
up to the sweep's wall time.  Spans are aggregated per name as they close
rather than kept one by one.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# (module, attribute, span); an attribute "Class.method" is patched on the class.
SPANS = [
    ("tableaux", "enumerate_syt", "tableaux.enumerate"),
    ("tableaux", "enumerate_cst", "tableaux.enumerate"),
    ("tableaux", "enumerate_rst", "tableaux.enumerate"),
    *(("jeudetaquin", name, "jeudetaquin.action") for name in (
        "promote", "demote", "promote_power", "evacuate",
        "promote_rst", "demote_rst", "evacuate_rst")),
    ("sieving", "FiniteAction.__init__", "sieving.orbit"),
    ("sieving", "verify_csp", "sieving.verify"),
    *(("sieving", name, "sieving.report") for name in (
        "syt_csp_report", "cst_csp_report", "content_csp_report", "dihedral_report",
        "handshake_csp_report", "noncrossing_csp_report", "bn_csp_report")),
    *(("qpolys", name, "qpolys.predict") for name in (
        "q_hook_formula", "schur_principal_specialization", "schur_evaluate",
        "kostka_foulkes", "mn_character", "q_catalan", "q_binomial")),
    ("cyclotomic", "eval_at_root", "cyclotomic.eval"),
    ("cyclotomic", "as_integer", "cyclotomic.eval"),
    *(("ribbons", name, "ribbons.count") for name in (
        "count_ribbon_cst", "kf_root_of_unity_check", "spin_sign")),
    ("klcells", "KLTable.__init__", "klcells.build"),
    ("klcells", "KLTable.dump_triples", "klcells.dump"),
    *(("klcells", name, "klcells.query") for name in (
        "verify_promotion_identity", "mu_promotion_invariance",
        "vanishing_criterion_check", "kl_immanant")),
    ("permutations", "rsk", "permutations.rsk"),
    ("permutations", "rsk_inverse", "permutations.rsk"),
    ("cli", "run", "cli.self"),
]

# Arithmetic on CyclotomicElement, counted as cyclotomic.ring_ops.
RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__pow__")


def _count_elements(result, args):
    return "tableaux.elements", len(result)


def _count_orbits(result, args):
    return "sieving.orbits", len(args[0].orbit_sizes())


def _count_pairs(result, args):
    return "klcells.pairs", args[0].comparable_pairs()


COUNTERS = {
    "tableaux.enumerate": _count_elements,
    "sieving.orbit": _count_orbits,
    "klcells.build": _count_pairs,
}

# Per-layer metrics: (name, unit, span self time or counter it reports).
LAYER_METRICS = [
    ("tableaux.enumerate_s", "s", "tableaux.enumerate"),
    ("tableaux.elements", "count", "tableaux.elements"),
    ("jeudetaquin.action_s", "s", "jeudetaquin.action"),
    ("jeudetaquin.calls", "count", "jeudetaquin.action"),
    ("sieving.orbit_s", "s", "sieving.orbit"),
    ("sieving.verify_s", "s", "sieving.verify"),
    ("sieving.report_s", "s", "sieving.report"),
    ("sieving.orbits", "count", "sieving.orbits"),
    ("qpolys.predict_s", "s", "qpolys.predict"),
    ("qpolys.calls", "count", "qpolys.predict"),
    ("cyclotomic.eval_s", "s", "cyclotomic.eval"),
    ("cyclotomic.ring_ops", "count", "cyclotomic.ring_ops"),
    ("ribbons.count_s", "s", "ribbons.count"),
    ("ribbons.calls", "count", "ribbons.count"),
    ("klcells.build_s", "s", "klcells.build"),
    ("klcells.dump_s", "s", "klcells.dump"),
    ("klcells.query_s", "s", "klcells.query"),
    ("klcells.pairs", "count", "klcells.pairs"),
    ("permutations.rsk_s", "s", "permutations.rsk"),
    ("cli.self_s", "s", "cli.self"),
    ("cli.output_bytes", "count", "cli.output_bytes"),
]

# Counts that must not depend on the order of the ops.
EXACT_COUNTS = ("tableaux.elements", "sieving.orbits", "klcells.pairs",
                "cyclotomic.ring_ops", "cli.output_bytes")


def null_span(name):
    return nullcontext()


def package_modules(package) -> list:
    """The loaded modules of ``package``, the package itself included."""
    prefix = package.__name__ + "."
    return [module for name, module in list(sys.modules.items())
            if name == package.__name__ or name.startswith(prefix)]


class Tracer:
    """Accumulates span self times (seconds) and counts, keyed by span name."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0  # total duration of spans opened at the top level
        self._stack: list[list] = []  # open spans: [name, start, child seconds]

    def _enter(self, name):
        if self._stack and self._stack[-1][0] == name:
            return None
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration

    @contextmanager
    def span(self, name):
        frame = self._enter(name)
        try:
            yield
        finally:
            if frame is not None:
                self._exit(frame)

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if frame is not None:
                    self._exit(frame)
            if counter is not None:
                key, amount = counter(result, args)
                counts[key] += amount
            return result

        return traced

    def count_calls(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Patch every span function of the loaded ``package`` modules."""
        modules = package_modules(package)
        for module_name, attribute, name in SPANS:
            owner = getattr(package, module_name, None)
            cls_name, _, method = attribute.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None)
            if original is None:
                print(f"trace: {module_name}.{attribute} not found, not traced",
                      file=sys.stderr)
                continue
            wrapped = self.wrap(original, name)
            if cls_name:
                setattr(owner, method, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        element = package.cyclotomic.CyclotomicElement
        for method in RING_OPS:
            original = element.__dict__.get(method)
            if original is not None:
                setattr(element, method, self.count_calls(original, "cyclotomic.ring_ops"))

    def report(self) -> dict:
        """Self times and counts as a plain dict, for the sweep's result."""
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "covered_s": self.covered_s}

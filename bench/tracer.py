"""Span tracer for the per-layer metrics of the benchmark.

``Tracer.install`` replaces each traced public function of ``nistab`` at every
module-global binding site in ``nistab.*`` (the defining module, the package
namespace and every ``from .x import f`` in a sibling), so calls made inside
the package nest as spans too.  ``uninstall`` puts the originals back.  Spans
are kept in memory as ``[name, start, end, parent, tag]`` and written out by
the caller when the run ends.

A span's self time is its duration minus the durations of its child spans;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: traced functions per module; None means every public function it defines
TRACED = {
    "niclass": ("classify_ni", "classify_sni", "imaginary_axis_residue"),
    "ltimodel": ("is_minimal", "minimality_margin", "eval_tf", "closed_loop",
                 "is_hurwitz", "spectral_abscissa", "modal_to_ss"),
    "freebody": ("stability_verdict", "to_block_diagonal", "laurent_coefficients",
                 "direct_stability", "random_ni_plant", "random_sni_controller",
                 "projector_p", "build_f_matrix", "montecarlo_agreement"),
    "matrixcore": None,
    "ircsynth": ("make_irc",),
    "beamcase": ("find_modal_roots", "modal_residue", "finite_dim_approx",
                 "emit_residue_scan", "beam_tf", "d_of_s"),
    "simcli": ("run_analysis", "step_response", "load_model"),
}

#: span tags computed from a return value
TAGS = {"freebody.stability_verdict": lambda verdict: verdict.outcome.value}

CLASSIFY = ("niclass.classify_ni", "niclass.classify_sni")
DECISIVE = ("stable", "unstable")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.names: list = []
        self._stack: list = []
        self._patches: list = []

    def _open(self, name):
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around calls into the layers."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if tag is not None:
                span[4] = tag(out)
            return out
        return traced

    def install(self):
        package = [mod for name, mod in sys.modules.items()
                   if name == "nistab" or name.startswith("nistab.")]
        self.names.clear()
        for short, names in TRACED.items():
            module = sys.modules[f"nistab.{short}"]
            if names is None:
                names = [n for n, f in vars(module).items()
                         if inspect.isfunction(f) and not n.startswith("_")
                         and f.__module__ == module.__name__]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                self.names.append(f"{short}.{fname}")
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def summarize(self, lo: int, hi: int, scale: float,
                  paused=lambda t0, t1: 0.0) -> tuple[dict, dict]:
        """Per-layer metrics of ``spans[lo:hi]``, and self time by stage and layer.

        The metrics hold ``<module>.<function>.{calls,self_s}`` for every traced
        function, ``<module>.{calls,self_s}`` summed over a module,
        ``niclass.sweep_points`` (eval_tf calls made directly by a classify
        span) and ``freebody.decisive_ratio`` (STABLE + UNSTABLE verdicts over
        all verdicts).  Stages are the benchmark's own ``bench.<stage>`` spans.
        Self times are multiplied by ``scale``, the pass's factor from wall
        time to time at the nominal machine speed.  ``paused(t0, t1)`` is the
        time within [t0, t1] that belongs to no span (the speed sampler's).
        """
        spans = self.spans
        child = defaultdict(float)
        for _name, t0, t1, parent, _tag in spans[lo:hi]:
            child[parent] += t1 - t0 - paused(t0, t1)
        calls, self_s = Counter(), defaultdict(float)
        stage_of, by_stage = {}, defaultdict(lambda: defaultdict(float))
        sweep = verdicts = decisive = 0
        for i in range(lo, hi):
            name, t0, t1, parent, tag = spans[i]
            own = (t1 - t0 - paused(t0, t1) - child[i]) * scale
            calls[name] += 1
            self_s[name] += own
            stage_of[i] = name[6:] if name.startswith("bench.") else stage_of.get(parent)
            by_stage[stage_of[i]][name.split(".")[0]] += own
            if name == "ltimodel.eval_tf" and parent >= lo and spans[parent][0] in CLASSIFY:
                sweep += 1
            if name == "freebody.stability_verdict":
                verdicts += 1
                decisive += tag in DECISIVE
        metrics = {"niclass.sweep_points": sweep,
                   "freebody.decisive_ratio": decisive / verdicts if verdicts else 0.0}
        for name in self.names:
            layer = name.split(".")[0]
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
            metrics[f"{layer}.calls"] = metrics.get(f"{layer}.calls", 0) + calls[name]
            metrics[f"{layer}.self_s"] = metrics.get(f"{layer}.self_s", 0.0) + self_s[name]
        stages = {stage: dict(layers) for stage, layers in by_stage.items() if stage}
        return metrics, stages

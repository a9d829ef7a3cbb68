"""Spans around the public functions that `vsb bench` calls, from outside.

``Tracer.install`` replaces each traced function, in every module of the
package that holds a reference to it, by a wrapper that records a span:
its name, a key (node count, regime, variant), start, end and the index of
the enclosing span. Spans stay in memory; ``Tracer.drain`` turns them into
per-name summaries after each `vsb bench` call. Nothing in the package
changes on disk.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

# Spans that fire tens of thousands of times per round keep only a count
# and a total, not one duration each.
SUMMED = {"graphs.d_separated"}


def _regime(data) -> str:
    """'std' when every column has unit sample variance, as after `standardize`."""
    return "std" if np.allclose(data.x.var(axis=0), 1.0, rtol=0.0, atol=1e-9) else "raw"


def _pair_key(g_true, g_est) -> str:
    return hashlib.blake2b(g_true.adj.tobytes() + g_est.adj.tobytes(), digest_size=8).hexdigest()


def _targets(vsb):
    """(module, function name, span name, key(args), info(args, result)) per traced call."""
    learners, contlearn, metrics, graphs, scm, varsort, harness = (
        vsb.learners, vsb.contlearn, vsb.metrics, vsb.graphs, vsb.scm, vsb.varsort, vsb.harness,
    )
    fit_key = lambda a: f"{_regime(a[0])}.d{a[0].d}"
    return [
        (harness, "run_benchmark", "harness.run_benchmark", None, None),
        (harness, "write_records", "harness.write_records", None, None),
        (graphs, "sample_er_dag", "graphs.sample", None, None),
        (graphs, "sample_sf_dag", "graphs.sample", None, None),
        (scm, "simulate", "scm.simulate", None, None),
        (scm, "standardize", "scm.standardize", None, None),
        (varsort, "varsortability", "varsort.varsortability", None, None),
        (learners, "sortnregress", "learners.sortnregress.fit", fit_key, None),
        (learners, "randomregress", "learners.randomregress.fit", fit_key, None),
        (contlearn, "golem_fit", "contlearn.golem_fit", lambda a: f"{a[1]}.{_regime(a[0])}",
         lambda a, out: {"steps": out[1].rows[-1].outer_iter if out[1].rows else 0}),
        (contlearn, "threshold_and_break_cycles", "contlearn.threshold_and_break_cycles", None, None),
        (metrics, "shd", "metrics.shd", None, None),
        (metrics, "sid", "metrics.sid", lambda a: f"d{a[0].d}",
         lambda a, out: {"pair": _pair_key(a[0], a[1])}),
        (metrics, "favorable_threshold_shd", "metrics.favorable_threshold_shd", None, None),
        (metrics, "sid_cpdag_bounds", "metrics.sid_cpdag_bounds", None, None),
        (graphs, "d_separated_adj", "graphs.d_separated", None, None),
        (graphs, "enumerate_mec", "graphs.enumerate_mec", None,
         lambda a, out: {"members": len(out)}),
        (graphs, "dag_to_cpdag", "graphs.dag_to_cpdag", None, None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, key, start, end, parent, info]
        self.summed: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.stack: list[int] = []

    def install(self, vsb) -> None:
        """Wrap every traced function wherever the package refers to it."""
        modules = [m for name, m in sys.modules.items() if name.startswith(vsb.__name__) and m]
        for module, attr, span, key, info in _targets(vsb):
            original = getattr(module, attr)
            wrapper = self._wrap(original, span, key, info)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def _wrap(self, fn, span, key, info):
        if span in SUMMED:
            cell = self.summed[span]

            def summed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell[0] += 1
                    cell[1] += time.perf_counter() - start

            return summed

        def traced(*args, **kwargs):
            label = key(args) if key else ""
            record = [span, label, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.spans.append(record)
            self.stack.append(len(self.spans) - 1)
            record[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            if info:
                record[5] = info(args, out)
            return out

        return traced

    def drain(self) -> dict:
        """Summaries of the spans since the last drain, then forget them.

        ``durations`` maps "name" and "name|key" to the duration of every
        call; ``info`` maps the same names to the per-call details; ``summed``
        maps a name to [calls, total seconds]; ``self_s`` is each root
        span's duration minus the time its direct children cover.
        """
        durations: dict[str, list] = defaultdict(list)
        infos: dict[str, list] = defaultdict(list)
        child_time = defaultdict(float)
        for name, label, start, end, parent, info in self.spans:
            for k in (name, f"{name}|{label}") if label else (name,):
                durations[k].append(end - start)
                if info is not None:
                    infos[k].append(info)
            if parent >= 0:
                child_time[parent] += end - start
        self_s = [
            (end - start) - child_time[i]
            for i, (_, _, start, end, parent, _) in enumerate(self.spans)
            if parent < 0
        ]
        out = {
            "durations": dict(durations),
            "info": dict(infos),
            "summed": {k: list(v) for k, v in self.summed.items()},
            "self_s": self_s,
        }
        self.spans.clear()
        for cell in self.summed.values():  # the wrappers hold these lists
            cell[0], cell[1] = 0, 0.0
        return out

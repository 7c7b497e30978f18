"""Timing spans around the program's layer boundaries, installed from the
benchmark by rebinding module and class attributes (the program's sources are
not edited).

Names are patched where the caller looks them up: ``mfglearn.learner``
imported ``step``, ``reward``, ``adam_step`` and the meanfield helpers by
name, so those are rebound on the learner module; methods are rebound on
their class; the oracle helpers call each other through the oracle module's
globals.  The wrappers are installed only while a traced op runs, so the
checks between ops and the untraced ops run the program's own functions.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from mfglearn import approx, learner, meanfield, oracle

LAYERS = ("learner", "approx", "meanfield", "envs", "oracle")

# (owner, attribute, span name)
SPANS = [
    (learner, "rollout", "learner.rollout"),
    (learner, "fp_update_state", "learner.fp_update_state"),
    (learner, "td_update", "learner.td_update"),
    (learner, "pg_update", "learner.pg_update"),
    # forward() delegates to forward_with_hidden(), so only the latter is wrapped
    (approx.Mlp, "forward_with_hidden", "approx.mlp_forward"),
    (approx.Mlp, "backward", "approx.mlp_backward"),
    (approx.GaussianPolicy, "logprob_grad", "approx.logprob_grad"),
    (learner, "adam_step", "approx.adam_step"),
    (learner, "build_empirical_measure", "meanfield.build_empirical_measure"),
    (learner, "density_at", "meanfield.density_at"),
    (learner, "belief_update", "meanfield.belief_update"),
    (learner, "step", "envs.step"),
    (learner, "reward", "envs.reward"),
    (learner, "sample_initial", "envs.sample_initial"),
    (oracle, "fictitious_play", "oracle.fictitious_play"),
    (oracle, "best_response", "oracle.best_response"),
    (oracle, "induced_flow", "oracle.induced_flow"),
    (oracle, "policy_value", "oracle.policy_value"),
    (oracle, "exploitability", "oracle.exploitability"),
    (oracle, "nplayer_payoff", "oracle.nplayer_payoff"),
    (oracle, "nplayer_gap", "oracle.nplayer_gap"),
    (oracle, "simulate_population_value", "oracle.simulate_population_value"),
]
SPAN_NAMES = [name for _, _, name in SPANS]
OP = "op"


def _count_forward(counts, self, x):
    counts["approx.mlp_forward.rows"] += np.atleast_2d(np.asarray(x)).shape[0]


def _count_backward(counts, self, x, upstream, hidden=None):
    up = np.atleast_2d(np.asarray(upstream))
    counts["approx.mlp_backward.rows"] += up.shape[0]
    if hidden is None:
        counts["approx.mlp_backward.recompute_rows"] += up.shape[0]
    counts["approx.mlp_backward.zero_upstream_rows"] += int(np.count_nonzero(~up.any(axis=1)))


def _count_measure(counts, positions, template):
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    outside = ((pts[:, 0] < template.x_min) | (pts[:, 0] >= template.x_max)
               | (pts[:, 1] < template.y_min) | (pts[:, 1] >= template.y_max))
    counts["meanfield.binned_points"] += pts.shape[0]
    counts["meanfield.out_of_grid_points"] += int(np.count_nonzero(outside))


COUNTERS = {
    "approx.mlp_forward": _count_forward,
    "approx.mlp_backward": _count_backward,
    "meanfield.build_empirical_measure": _count_measure,
}


class Tracer:
    """In-memory spans [name, start, end, parent index] plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kw):
            if counter is not None:
                counter(counts, *args, **kw)
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return traced

    def install(self):
        for owner, attr, name in SPANS:
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))
        original = meanfield.DensityGrid.__dict__["__post_init__"]
        self._undo.append((meanfield.DensityGrid, "__post_init__", original))
        counts = self.counts

        def counted(grid):
            counts["meanfield.grids_built"] += 1
            original(grid)
        meanfield.DensityGrid.__post_init__ = counted

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def run_op(self, op, ctx):
        """Run one op as a root span, with the wrappers installed only for
        its duration, and return its result."""
        self.install()
        rec = [OP, 0.0, 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return op(ctx)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self.uninstall()

    def summary(self) -> dict:
        """Per-op inclusive ms, self ms and calls of every span name, the
        counters, and the shares of op time the layers account for."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        names = [s[0] for s in self.spans]
        ops = [i for i, nm in enumerate(names) if nm == OP]
        n_ops = max(len(ops), 1)
        op_time = float(dur[ops].sum()) if ops else 0.0
        incl, self_, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        root_time = 0.0
        for i, nm in enumerate(names):
            incl[nm] += dur[i]
            self_[nm] += self_time[i]
            calls[nm] += 1
            if nm != OP and names[parent[i]] == OP:
                root_time += dur[i]
        out = {}
        for nm in SPAN_NAMES:
            out[nm + ".incl_ms"] = 1e3 * incl[nm] / n_ops
            out[nm + ".self_ms"] = 1e3 * self_[nm] / n_ops
            out[nm + ".calls"] = calls[nm] / n_ops
        for layer in LAYERS:
            layer_self = sum(self_[nm] for nm in SPAN_NAMES if nm.startswith(layer + "."))
            out[layer + ".self_frac"] = layer_self / op_time if op_time else 0.0
        c = self.counts
        out["approx.mlp_forward.rows"] = c["approx.mlp_forward.rows"] / n_ops
        out["approx.mlp_backward.rows"] = c["approx.mlp_backward.rows"] / n_ops
        back = c["approx.mlp_backward.rows"]
        out["approx.mlp_backward.recompute_frac"] = c["approx.mlp_backward.recompute_rows"] / back if back else 0.0
        out["approx.mlp_backward.zero_upstream_frac"] = c["approx.mlp_backward.zero_upstream_rows"] / back if back else 0.0
        out["meanfield.grids_built"] = c["meanfield.grids_built"] / n_ops
        binned = c["meanfield.binned_points"]
        out["meanfield.out_of_grid_frac"] = c["meanfield.out_of_grid_points"] / binned if binned else 0.0
        out["trace.root_cover_frac"] = root_time / op_time if op_time else 0.0
        return out

    def write(self, path):
        """Dump every span as [name, start, end, parent] in recording order."""
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, f)

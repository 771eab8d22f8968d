"""Spans and counters recorded around innerinv's public functions.

The program is not changed: `install` replaces each traced function at
every place the package binds it (module attributes and re-exports, plus
methods on the classes) with a wrapper that records a span, and restores
the originals on exit.  Counts are computed from call arguments and
results at the layer boundary; times come from the spans afterwards.

A span is (name, start, end, parent, operation id).  Spans stay in memory
until `write_spans` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        # whether a span has no enclosing span of the same name; inclusive
        # times sum only those, so recursion is not counted twice
        self.outer: list[bool] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._domain_seen: dict = {}

    # -- recording -------------------------------------------------------
    def parent_name(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.outer.append(self._active[name] == 0)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self._active[name] += 1
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.names[idx]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; its children carry op_id."""
        self.op = op_id
        self._domain_seen.clear()
        try:
            with self.span("operation"):
                yield
        finally:
            self.op = -1

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span; `name` may be a callable of (args, kwargs)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": names,
                    "spans": [
                        [index[n], s, e, p, o]
                        for n, s, e, p, o in zip(
                            self.names, self.starts, self.ends, self.parents, self.ops
                        )
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so no instant is subtracted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(s, starts[c]), min(e, ends[c])) for c in children.get(i, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (e - s) - covered))
    return out


# ---------------------------------------------------------------------------
# what is traced, and the counts taken at each boundary


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_phase_lift(tr, args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    points = int(np.size(_arg(args, kwargs, 1, "theta")))
    terms = _arg(args, kwargs, 2, "policy").tail_terms
    c = tr.counts
    c["phase_lift.points"] += points
    c["phase_lift.term_points"] += points * terms * len(spec.tails)
    c["phase_lift.atom_points"] += points * len(spec.atoms)
    if tr.active("invert_lift_many"):
        c["invert.phase_points"] += points


def _count_bound(tr, args, kwargs):
    if tr.parent_name() == "certifiable_terms":
        tr.counts["certifiable_terms.bounds"] += 1


def _record_terms(tr, result):
    c = tr.counts
    c["certifiable_terms.max_terms"] = max(c["certifiable_terms.max_terms"], int(result))


def _record_nodes(tr, result):
    tr.counts["build_phase_chart.nodes"] += len(result.thetas)


def _count_auto_build(tr, args, kwargs):
    if tr.parent_name() == "chart":
        tr.counts["chart.builds"] += 1


def _count_targets(tr, args, kwargs):
    tr.counts["invert_lift_many.targets"] += int(np.size(_arg(args, kwargs, 1, "targets")))


def _count_apply_points(tr, args, kwargs):
    tr.counts["apply_many.points"] += int(np.size(_arg(args, kwargs, 1, "thetas")))


def _count_domain(tr, args, kwargs):
    mp = args[0]
    ws = mp.workspace
    j = _arg(args, kwargs, 1, "j") % max(ws.n, 1)
    # a map is its transfer form over one workspace; the workspace is held
    # so its id cannot be reused within the operation
    key = (id(ws), mp.interval_shift, mp.offsets, j)
    if key in tr._domain_seen:
        tr.counts["domain.repeats"] += 1
    else:
        tr._domain_seen[key] = ws


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}" if argv else "cli.run"


CHECKS = (
    "check_invariance",
    "check_bijection",
    "check_relations",
    "check_phase_derivative",
    "check_garnett_identity",
    "check_frostman_types",
)
CLI_STAGES = ("classify", "group", "maps", "verify", "emit")


def _targets():
    """(owner, attribute, span name, before hook, after hook) per wrapper.

    owner is a module (the function is then replaced at every module of
    the package that binds the same object) or a class.
    """
    from innerinv import checks, circle_maps, classify, cli, document
    from innerinv import group_algebra, inner_model

    out = [
        (inner_model, "phase_lift", "phase_lift", _count_phase_lift, None),
        (inner_model, "truncation_error_bound", "truncation_error_bound", _count_bound, None),
        (inner_model, "certifiable_terms", "certifiable_terms", None, _record_terms),
        (inner_model, "build_phase_chart", "build_phase_chart", None, _record_nodes),
        (inner_model, "build_chart_auto", "build_chart_auto", _count_auto_build, None),
        (inner_model, "phase_derivative", "phase_derivative", None, None),
        (inner_model.PhaseChart, "invert_lift_many", "invert_lift_many", _count_targets, None),
        (classify, "classify_intervals", "classify_intervals", None, None),
        (classify, "one_sided_limit", "one_sided_limit", None, None),
        (group_algebra, "compute_group", "compute_group", None, None),
        (document, "parse_document", "parse_document", None, None),
        (cli, "run", _cli_name, None, None),
        (circle_maps.MapWorkspace, "chart", "chart", None, None),
        (circle_maps.MapWorkspace, "realize", "realize", None, None),
        (circle_maps.CircleMap, "apply_many", "apply_many", _count_apply_points, None),
        (circle_maps.CircleMap, "lift", "lift", None, None),
        (circle_maps.CircleMap, "domain", "domain", _count_domain, None),
        (circle_maps.CircleMap, "cert_radius", "cert_radius", None, None),
        (checks, "run_all_checks", "run_all_checks", None, None),
    ]
    out += [(checks, name, name, None, None) for name in CHECKS]
    return out


@contextmanager
def install(tracer: Tracer):
    """Trace innerinv's public functions for the duration of the block."""
    targets = _targets()  # imports every traced module first
    package = [
        m for k, m in list(sys.modules.items())
        if k == "innerinv" or k.startswith("innerinv.")
    ]
    restore = []
    try:
        for owner, attr, name, before, after in targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(name, original, before, after))
                restore.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, before, after)
            for mod in package:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    restore.append((mod, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "phase_lift.calls": "count",
    "phase_lift.points": "count",
    "phase_lift.term_points": "count",
    "phase_lift.atom_points": "count",
    "phase_lift.self_s": "s",
    "truncation_error_bound.calls": "count",
    "truncation_error_bound.self_s": "s",
    "certifiable_terms.calls": "count",
    "certifiable_terms.max_terms": "count",
    "certifiable_terms.bounds_per_call": "count",
    "certifiable_terms.self_s": "s",
    "build_phase_chart.calls": "count",
    "build_phase_chart.nodes": "count",
    "build_phase_chart.self_s": "s",
    "build_chart_auto.s": "s",
    "invert_lift_many.calls": "count",
    "invert_lift_many.targets": "count",
    "invert_lift_many.self_s": "s",
    "invert.points_per_target": "count",
    "phase_derivative.calls": "count",
    "phase_derivative.self_s": "s",
    "classify_intervals.s": "s",
    "one_sided_limit.calls": "count",
    "one_sided_limit.self_s": "s",
    "compute_group.s": "s",
    "parse_document.s": "s",
    **{f"cli.{stage}.s": "s" for stage in CLI_STAGES},
    "chart.builds": "count",
    "chart.hits": "count",
    "apply_many.calls": "count",
    "apply_many.points": "count",
    "apply_many.self_s": "s",
    "lift.calls": "count",
    "lift.self_s": "s",
    "domain.calls": "count",
    "domain.repeat_frac": "frac",
    "cert_radius.calls": "count",
    "cert_radius.self_s": "s",
    "realize.s": "s",
    **{f"{name}.s": "s" for name in CHECKS},
    "run_all_checks.s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_METRICS value; a layer the run never entered reads 0."""
    calls: Counter = Counter(tracer.names)
    self_s: defaultdict = defaultdict(float)
    incl_s: defaultdict = defaultdict(float)
    own_s = self_times(tracer.starts, tracer.ends, tracer.parents)
    for name, s, e, outer, own in zip(
        tracer.names, tracer.starts, tracer.ends, tracer.outer, own_s
    ):
        self_s[name] += own
        if outer:
            incl_s[name] += e - s
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
        elif kind == "s":
            out[metric] = incl_s[layer]
        else:
            out[metric] = c[metric]
    out["certifiable_terms.bounds_per_call"] = ratio(
        c["certifiable_terms.bounds"], calls["certifiable_terms"]
    )
    out["invert.points_per_target"] = ratio(
        c["invert.phase_points"], c["invert_lift_many.targets"]
    )
    out["chart.hits"] = calls["chart"] - c["chart.builds"]
    out["domain.repeat_frac"] = ratio(c["domain.repeats"], calls["domain"])
    return out

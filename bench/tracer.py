"""Span recorder for the traced run, attached from outside the program.

``install`` replaces module attributes of ``squeezelab`` with timing wrappers
for as long as the returned undo callable is not called.  The program looks
its collaborators up as module attributes at call time, so the wrappers see
every call between layers without any change to the program.  Spans are
kept in memory as (name, start, end, parent, op) and written out when the
benchmark ends.

Spans: ``op`` (one ``cli.main`` call), ``cli.parse``, ``cli.resolve``,
``cli.write``, ``spectrum.detected``, ``capacity.suite``, ``tracesim.psd``,
``tracesim.synth``, ``tracesim.rng``, ``tracesim.shape_fft`` and
``tracesim.welch``.  The public functions of ``gaussian``, ``cavity`` and
``homodyne`` are counted, not spanned; each takes well under 1 ms.
"""
from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.root = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, stack[-1] if stack else self.root, self.op_id))
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, t0, t1) + self.spans[idx][3:]

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.root = len(self.spans)
        self.spans.append(("op", time.perf_counter(), 0.0, -1, op_id))

    def end_op(self) -> None:
        name, t0, _, parent, op = self.spans[self.root]
        self.spans[self.root] = (name, t0, time.perf_counter(), parent, op)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(result, *args, **kwargs)
            return result
        return wrapper

    def counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)
        return wrapper


class _RngProxy:
    """Generator stand-in that times and counts normal draws.  The longest
    draw of a sweep is its synthesized length (``draw_max``)."""

    def __init__(self, tracer: Tracer, rng):
        self._tracer, self._rng = tracer, rng
        self.draw_max = 0

    def standard_normal(self, size=None, *args, **kwargs):
        out = self._tracer.call("tracesim.rng", self._rng.standard_normal, size, *args, **kwargs)
        self._tracer.add("tracesim.rng_samples", np.size(out))
        self.draw_max = max(self.draw_max, np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _Namespace:
    """Module stand-in: overridden attributes first, the module for the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _public_functions(module):
    return [
        name for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_")
    ]


def install(tracer: Tracer):
    """Attach ``tracer`` to the squeezelab modules; return a callable that undoes it."""
    from squeezelab import capacity, cavity, cli, gaussian, homodyne, spectrum, tracesim

    saved: list[tuple[object, str, object]] = []

    def patch(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # cli: argument parsing, scenario resolution, output writing
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = tracer.call("cli.parse", build_parser)
        parser.parse_known_args = tracer.wrap("cli.parse", parser.parse_known_args)
        return parser

    patch(cli, "build_parser", traced_build_parser)
    patch(cli, "resolve_scenario", tracer.wrap("cli.resolve", cli.resolve_scenario))
    patch(cli, "write_metadata", tracer.wrap("cli.write", cli.write_metadata))
    patch(spectrum, "write_traces_csv", tracer.wrap("cli.write", spectrum.write_traces_csv))
    patch(capacity, "write_curves_csv", tracer.wrap("cli.write", capacity.write_curves_csv))

    # physics layers
    def count_detected(result, *args, **kwargs):
        tracer.add("spectrum.points", np.size(result.frequencies))

    def count_suite(result, grid, *args, **kwargs):
        tracer.add("capacity.points", np.size(grid))

    patch(spectrum, "detected_spectrum",
          tracer.wrap("spectrum.detected", spectrum.detected_spectrum, count_detected))
    patch(capacity, "curve_suite", tracer.wrap("capacity.suite", capacity.curve_suite, count_suite))
    for module, key in ((gaussian, "gaussian.calls"), (cavity, "cavity.calls"),
                        (homodyne, "homodyne.calls")):
        for name in _public_functions(module):
            patch(module, name, tracer.counter(key, getattr(module, name)))

    # tracesim: sweep loop, synthesis, RNG, shaping FFTs, Welch.  The sweep's
    # generator is remembered per thread so its longest draw can be read
    # when the sweep returns.
    local = threading.local()
    sweep_rng = tracesim.sweep_rng

    def traced_sweep_rng(*args, **kwargs):
        local.rng = _RngProxy(tracer, tracer.call("tracesim.rng", sweep_rng, *args, **kwargs))
        return local.rng

    def count_sweep(result, *args, **kwargs):
        tracer.add("tracesim.sweeps")
        tracer.add("tracesim.retained_samples", np.size(result.samples))
        tracer.add("tracesim.synthesized_samples", local.rng.draw_max)

    def count_segments(result, x, cfg, *args, **kwargs):
        nperseg = cfg.segment_length  # Welch at 50 % overlap
        tracer.add("tracesim.segments", 1 + (np.size(x) - nperseg) // (nperseg - nperseg // 2))

    def fft_call(fn, size_of):
        def wrapper(a, n=None, *args, **kwargs):
            tracer.add("tracesim.fft_points", n if n is not None else size_of(a))
            return tracer.call("tracesim.shape_fft", fn, a, n, *args, **kwargs)
        return wrapper

    fft = _Namespace(np.fft, rfft=fft_call(np.fft.rfft, np.size),
                     irfft=fft_call(np.fft.irfft, lambda a: 2 * (np.size(a) - 1)))
    patch(tracesim, "averaged_psd", tracer.wrap("tracesim.psd", tracesim.averaged_psd))
    patch(tracesim, "synthesize_trace",
          tracer.wrap("tracesim.synth", tracesim.synthesize_trace, count_sweep))
    patch(tracesim, "sweep_rng", traced_sweep_rng)
    patch(tracesim, "np", _Namespace(np, fft=fft))
    patch(tracesim, "_welch_ratio", tracer.wrap("tracesim.welch", tracesim._welch_ratio, count_segments))

    def undo():
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)

    return undo


# --------------------------------------------------------------------------
# analysis


def _union(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def summarize(spans) -> dict:
    """Per-name inclusive and self time, and per-op coverage by named spans."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    op_time = covered = tracesim = 0.0
    by_op: dict[int, list[tuple[float, float, str]]] = {}
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        kids = [(spans[k][1], spans[k][2]) for k in children.get(i, [])]
        if name == "op":
            op_time += t1 - t0
            continue
        inclusive[name] += t1 - t0
        self_time[name] += (t1 - t0) - _union(kids)
        by_op.setdefault(op, []).append((t0, t1, name))
    for items in by_op.values():
        covered += _union((a, b) for a, b, _ in items)
        tracesim += _union((a, b) for a, b, n in items if n.startswith("tracesim."))
    return {
        "op_s": op_time,
        "inclusive_s": dict(inclusive),
        "self_s": dict(self_time),
        "covered_s": covered,
        "tracesim_s": tracesim,
    }

"""Layer tracing for kacmix, installed from outside the package.

The tracer replaces public functions and methods of kacmix's modules with
timing wrappers, in every module namespace that binds them (``replica_rng``
is bound in ``simulator``, ``meanfield``, ``cli`` and the package itself).
Per-event calls keep only a call count, a total time and a self time in
memory; coarse calls (engine runs, solves, sweeps, config loads, writes)
also record a span.  A self time is the call's duration minus the time of
the wrapped calls made inside it, so the self times of all layers plus the
unwrapped remainder of the root call add up to the root call's duration.

A layer whose targets no longer exist (a module deleted, a method renamed)
is reported absent instead of failing, so the tracer keeps working across
refactors of the package.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from typing import Callable, Dict, List, Optional

# Layer key -> how its targets are found.  ("func", module, name) wraps a
# module-level function wherever it is bound; ("method", module, base, name)
# wraps `name` on the base class and on every subclass that defines it.
LAYERS = {
    "laws.apply": [("method", "kacmix.laws", "CollisionLaw", "apply")],
    "laws.sample_angle": [("method", "kacmix.laws", "CollisionLaw", "sample_angle")],
    "laws.order_draw": [
        ("method", "kacmix.laws", "MixtureSpec", "order_from_uniform"),
        ("method", "kacmix.laws", "MixtureSpec", "order_from_uniform_sizebiased"),
    ],
    "simulator.replica_setup": [
        ("func", "kacmix.simulator", "replica_rng"),
        ("method", "kacmix.simulator", "InitialLaw", "sample"),
    ],
    "simulator.observe": [("method", "kacmix.simulator", "Observer", "collect")],
    "accumulators.add": [("method", "kacmix.accumulators", "ChannelAccumulator", "add")],
    "simulator.run": [("func", "kacmix.simulator", "run")],
    "meanfield.run": [("func", "kacmix.meanfield", "meanfield_run")],
    "picard.solve": [("func", "kacmix.picard", "picard_solve_toy")],
    "chaos.sweep": [("func", "kacmix.chaos", "run_chaos_sweep")],
    "runio.write": [("func", "kacmix.runio", "write_*")],
    "config.load": [
        ("func", "kacmix.config", "load_config"),
        ("func", "kacmix.config", "parse_config"),
    ],
}

# Layers that record spans and may set the engine context of the calls
# made inside them.
COARSE = {"simulator.run", "meanfield.run", "picard.solve", "chaos.sweep", "runio.write", "config.load"}
ENGINES = {"simulator.run": "simulator", "meanfield.run": "meanfield"}


def _kacmix_modules():
    return [m for name, m in list(sys.modules.items()) if name == "kacmix" or name.startswith("kacmix.")]


def _subclasses(cls):
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _resolve(target) -> List[tuple]:
    """(owner, attribute, function) triples a target names; [] when gone."""
    kind, module_name = target[0], target[1]
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if kind == "method":
        base = getattr(module, target[2], None)
        if not isinstance(base, type):
            return []
        name = target[3]
        return [(cls, name, cls.__dict__[name]) for cls in _subclasses(base) if callable(cls.__dict__.get(name))]
    pattern = target[2]
    if pattern.endswith("*"):
        names = [n for n in getattr(module, "__all__", vars(module)) if n.startswith(pattern[:-1])]
    else:
        names = [pattern]
    found = []
    for name in names:
        fn = getattr(module, name, None)
        if not callable(fn):
            continue
        # Every kacmix namespace that binds the same object gets the wrapper.
        for mod in _kacmix_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    found.append((mod, attr, fn))
    return found


def _group_count(args) -> int:
    """Groups in one law.apply call: (K, d) is one group, (B, K, d) is B."""
    shape = getattr(args[2], "shape", None) if len(args) > 2 else None
    if shape is None or len(shape) < 2:
        return 1
    return math.prod(shape[:-2])


class Tracer:
    """Counts and times calls into kacmix's layers; one per traced process."""

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}  # key -> [calls, total_s, self_s]
        self.groups: Dict[Optional[str], int] = {"simulator": 0, "meanfield": 0, None: 0}
        self.sweeps = 0
        self.spans: List[dict] = []
        self.absent: List[str] = []
        self._stack: List[float] = [0.0]  # child time of each open call
        self._span_stack: List[int] = []
        self._engine: Optional[str] = None

    # -- wrappers -------------------------------------------------------

    def _fine(self, fn: Callable, stat: List[float], count_groups: bool = False) -> Callable:
        """Wrap a per-event call: count, total and self time, nothing else."""
        stack, clock, groups = self._stack, time.perf_counter, self.groups

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_groups:
                groups[self._engine] += _group_count(args)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                stack[-1] += dt

        return wrapper

    def coarse(self, name: str, fn: Callable, stat: List[float], engine: Optional[str] = None) -> Callable:
        """Wrap a coarse call: counts, times and one span per call."""
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved_engine = self._engine
            if engine is not None:
                self._engine = engine
            parent = self._span_stack[-1] if self._span_stack else None
            span = {"name": name, "parent": parent, "start": clock(), "end": None}
            self.spans.append(span)
            self._span_stack.append(len(self.spans) - 1)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if name == "picard.solve":
                    self.sweeps += int(getattr(result, "n_iter", 0))
                return result
            finally:
                dt = clock() - t0
                span["end"] = span["start"] + dt
                child = stack.pop()
                self._span_stack.pop()
                self._engine = saved_engine
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                stack[-1] += dt

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for key, targets in LAYERS.items():
            stat = self.stats.setdefault(key, [0, 0.0, 0.0])
            found = [hit for target in targets for hit in _resolve(target)]
            if not found:
                self.absent.append(key)
                continue
            wrappers: Dict[int, Callable] = {}
            for owner, attr, fn in found:
                if id(fn) not in wrappers:
                    if key in COARSE:
                        wrappers[id(fn)] = self.coarse(key, fn, stat, ENGINES.get(key))
                    else:
                        wrappers[id(fn)] = self._fine(fn, stat, count_groups=key == "laws.apply")
                setattr(owner, attr, wrappers[id(fn)])

    def report(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "groups": {str(k): v for k, v in self.groups.items()},
            "sweeps": self.sweeps,
            "absent": self.absent,
            "spans": self.spans,
        }


def first_entry_hook(on_first: Callable[[], None]) -> None:
    """Call on_first once, at the first entry into any engine or solver.

    This marks the end of set-up (interpreter, imports, config parsing and
    law construction) without tracing: after the first entry each wrapper
    is a bare pass-through.
    """
    fired = []
    for key in ("simulator.run", "meanfield.run", "picard.solve"):
        for target in LAYERS[key]:
            for owner, attr, fn in _resolve(target):

                def wrapper(*args, _fn=fn, **kwargs):
                    if not fired:
                        fired.append(True)
                        on_first()
                    return _fn(*args, **kwargs)

                setattr(owner, attr, functools.wraps(fn)(wrapper))

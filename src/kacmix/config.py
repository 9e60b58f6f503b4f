"""Declarative run configuration: strict JSON schema with line-precise errors.

A run is described by one JSON document with fixed sections (mixture,
initial, sim, meanfield, observables, chaos, hierarchy, seed, output_dir).
Validation is strict: unknown keys anywhere are rejected, every value is
type- and domain-checked, and each complaint carries the line number of the
offending value in the original text.  The document is parsed once, by the
stdlib JSON decoder with hooks that record where each value starts; it
rejects duplicate keys and the non-standard ``NaN``/``Infinity`` constants.

Dotted overrides (``--set sim.N=200``) are applied to the raw document before
validation, so overridden values go through exactly the same checks; they
report without line numbers since they come from the command line.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from json.decoder import JSONArray, JSONObject
from json.scanner import py_make_scanner
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .chaos import ChaosBudget
from .laws import (
    BinaryMaxwell,
    CollisionLaw,
    KacToy,
    MixtureSpec,
    SymmetricK,
    SymmetricKMomentum,
)
from .observables import BoxFactor, CosineFactor, ObservableSpec, TanhFactor
from .simulator import ESTIMATOR_MODES, GaussianInitial, InitialLaw, initial_from_tag

__all__ = [
    "ConfigError",
    "parse_with_positions",
    "apply_overrides",
    "SimSection",
    "MeanfieldSection",
    "ChaosSection",
    "HierarchySection",
    "RunConfig",
    "parse_config",
    "load_config",
]

Path = Tuple[Any, ...]


class ConfigError(Exception):
    """Configuration rejection; rendered as `line N: path: problem`."""

    def __init__(self, message: str, line: Optional[int] = None, path: Optional[Path] = None):
        self.line = line
        self.path = path
        where = f"line {line}: " if line is not None else ""
        dotted = ".".join(str(p) for p in path) + ": " if path else ""
        super().__init__(f"{where}{dotted}{message}")


# ---------------------------------------------------------------------------
# JSON with positions
# ---------------------------------------------------------------------------


class _LineDecoder(json.JSONDecoder):
    """The stdlib decoder on its pure-Python scanner, hooked to record lines.

    The object and array hooks wrap ``JSONObject``/``JSONArray`` and note the
    offset where each member's value starts.  A container's map of relative
    paths to lines waits in ``inner``, keyed by its id, until its parent
    absorbs it under the member's key or index (each container lives on in
    the result, so no id is reused while it waits).
    """

    def __init__(self, text: str):
        super().__init__(parse_constant=self._reject_constant)
        self.newlines = [i for i, c in enumerate(text) if c == "\n"]
        self.inner: Dict[int, Dict[Path, int]] = {}
        self.start = 0  # offset of the value being scanned
        self.top: List[int] = []
        self.parse_object = self._object
        self.parse_array = self._array
        self.scan_once = self._recording(py_make_scanner(self), self.top)

    def line(self, offset: int) -> int:
        return bisect.bisect_left(self.newlines, offset) + 1

    def _recording(self, scan_once: Callable, starts: List[int]) -> Callable:
        def scan(s: str, idx: int):
            starts.append(idx)
            self.start = idx
            return scan_once(s, idx)

        return scan

    def _reject_constant(self, name: str):
        raise ConfigError(f"{name} is not a JSON number", line=self.line(self.start))

    def positions(self, keys, values, starts: List[int]) -> Dict[Path, int]:
        """Absorb the members' own maps under their keys; add their lines."""
        rel: Dict[Path, int] = {}
        for key, value, start in zip(keys, values, starts):
            rel[key] = self.line(start)
            for path, line in self.inner.pop(id(value), {}).items():
                rel[key + path] = line
        return rel

    def _object(self, s_and_end, strict, scan_once, object_hook, pairs_hook, memo):
        starts: List[int] = []
        scan = self._recording(scan_once, starts)
        pairs, end = JSONObject(s_and_end, strict, scan, None, list, memo)
        out: dict = {}
        for (key, value), start in zip(pairs, starts):
            if key in out:
                raise ConfigError(f"duplicate key {key!r}", line=self.line(start))
            out[key] = value
        self.inner[id(out)] = self.positions([(key,) for key in out], out.values(), starts)
        return out, end

    def _array(self, s_and_end, scan_once):
        starts: List[int] = []
        values, end = JSONArray(s_and_end, self._recording(scan_once, starts))
        self.inner[id(values)] = self.positions([(j,) for j in range(len(values))], values, starts)
        return values, end


def parse_with_positions(text: str) -> Tuple[Any, Dict[Path, int]]:
    """Parse JSON once, returning (value, {path: line where the value starts})."""
    decoder = _LineDecoder(text)
    try:
        value = decoder.decode(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    return value, decoder.positions([()], [value], decoder.top)


def apply_overrides(data: Any, sets: Sequence[str]) -> Any:
    """Apply ``key.path=json_value`` overrides onto the raw document."""
    for item in sets:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed: --set initial.kind=gaussian
        parts = key.split(".")
        node = data
        for j, part in enumerate(parts[:-1]):
            if not isinstance(node, dict):
                raise ConfigError(
                    f"override {key!r}: {'.'.join(parts[:j])} is not an object"
                )
            node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {key!r}: parent is not an object")
        node[parts[-1]] = value
    return data


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------


_REQUIRED = object()  # default of a key that must be present


class _Ctx:
    """Carries key positions so checks can blame the offending line."""

    def __init__(self, pos: Dict[Path, int]):
        self.pos = pos

    def line(self, path: Path) -> Optional[int]:
        return self.pos.get(path)

    def fail(self, path: Path, message: str) -> ConfigError:
        return ConfigError(message, line=self.line(path), path=path)

    def require_object(self, value: Any, path: Path, allowed: Sequence[str]) -> dict:
        if not isinstance(value, dict):
            raise self.fail(path, f"expected an object, got {type(value).__name__}")
        for key in value:
            if key not in allowed:
                raise self.fail(
                    path + (key,),
                    f"unknown key (allowed: {', '.join(sorted(allowed))})",
                )
        return value

    def absent(self, path: Path, key: str, default: Any) -> Any:
        if default is _REQUIRED:
            raise self.fail(path, f"missing required key {key!r}")
        return default

    def require(self, obj: dict, path: Path, key: str) -> Any:
        return obj[key] if key in obj else self.absent(path, key, _REQUIRED)

    def get_int(self, obj: dict, path: Path, key: str, default=None, minimum=None) -> Any:
        if key not in obj:
            return self.absent(path, key, default)
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, int):
            raise self.fail(path + (key,), f"expected an integer, got {v!r}")
        if minimum is not None and v < minimum:
            raise self.fail(path + (key,), f"must be >= {minimum}, got {v}")
        return v

    def get_float(self, obj: dict, path: Path, key: str, default=None, minimum=None) -> Any:
        if key not in obj:
            return self.absent(path, key, default)
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise self.fail(path + (key,), f"expected a number, got {v!r}")
        v = float(v)
        if not math.isfinite(v):
            raise self.fail(path + (key,), "must be finite")
        if minimum is not None and v < minimum:
            raise self.fail(path + (key,), f"must be >= {minimum}, got {v}")
        return v

    def get_str(self, obj: dict, path: Path, key: str, default=None, choices=None) -> Any:
        if key not in obj:
            return self.absent(path, key, default)
        v = obj[key]
        if not isinstance(v, str):
            raise self.fail(path + (key,), f"expected a string, got {v!r}")
        if choices is not None and v not in choices:
            raise self.fail(
                path + (key,), f"expected one of {sorted(choices)}, got {v!r}"
            )
        return v

    def get_number_list(self, obj: dict, path: Path, key: str, default=None) -> Any:
        if key not in obj:
            return self.absent(path, key, default)
        v = obj[key]
        if not isinstance(v, list) or not v:
            raise self.fail(path + (key,), "expected a nonempty array of numbers")
        out = []
        for j, x in enumerate(v):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise self.fail(path + (key, j), f"expected a number, got {x!r}")
            out.append(float(x))
        return out

    def get_int_list(self, obj: dict, path: Path, key: str, default=None, minimum=None) -> Any:
        if key not in obj:
            return self.absent(path, key, default)
        v = obj[key]
        if not isinstance(v, list) or not v:
            raise self.fail(path + (key,), "expected a nonempty array of integers")
        out = []
        for j, x in enumerate(v):
            if isinstance(x, bool) or not isinstance(x, int):
                raise self.fail(path + (key, j), f"expected an integer, got {x!r}")
            if minimum is not None and x < minimum:
                raise self.fail(path + (key, j), f"must be >= {minimum}, got {x}")
            out.append(x)
        return out

    def wrap(self, path: Path, build: Callable[[], Any]) -> Any:
        """Run a constructor, converting its ValueError into a placed error."""
        try:
            return build()
        except ValueError as exc:
            raise ConfigError(str(exc), line=self.line(path), path=path) from None


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

_LAW_KEYS = {
    "binary_maxwell": ("kind", "d"),
    "kac_toy": ("kind", "kernel"),
    "symmetric_k": ("kind", "k", "d"),
    "symmetric_k_momentum": ("kind", "k", "d"),
}


def _build_law(ctx: _Ctx, value: Any, path: Path) -> CollisionLaw:
    obj = ctx.require_object(value, path, ("kind", "d", "k", "kernel"))
    kind = ctx.get_str(obj, path, "kind", default=_REQUIRED)
    if kind not in _LAW_KEYS:
        raise ctx.fail(
            path + ("kind",),
            f"unknown law kind {kind!r}; expected one of {sorted(_LAW_KEYS)}",
        )
    ctx.require_object(obj, path, _LAW_KEYS[kind])
    if kind == "binary_maxwell":
        return ctx.wrap(path, lambda: BinaryMaxwell(d=ctx.get_int(obj, path, "d", default=3)))
    if kind == "kac_toy":
        kernel = ctx.get_str(obj, path, "kernel", default="uniform")
        return ctx.wrap(path, lambda: KacToy(kernel=kernel))
    k = ctx.get_int(obj, path, "k", default=2)
    d = ctx.get_int(obj, path, "d", default=3)
    if kind == "symmetric_k":
        return ctx.wrap(path, lambda: SymmetricK(k=k, d=d))
    return ctx.wrap(path, lambda: SymmetricKMomentum(k=k, d=d))


def _build_mixture(ctx: _Ctx, value: Any, path: Path) -> MixtureSpec:
    obj = ctx.require_object(value, path, ("laws", "beta"))
    laws_raw = ctx.require(obj, path, "laws")
    if not isinstance(laws_raw, list) or not laws_raw:
        raise ctx.fail(path + ("laws",), "expected a nonempty array of law objects")
    laws = tuple(
        _build_law(ctx, law, path + ("laws", j)) for j, law in enumerate(laws_raw)
    )
    beta = ctx.get_number_list(obj, path, "beta", default=_REQUIRED)
    return ctx.wrap(path, lambda: MixtureSpec(laws, tuple(beta)))


def _build_initial(ctx: _Ctx, value: Any, path: Path) -> InitialLaw:
    obj = ctx.require_object(value, path, ("kind", "a", "velocities"))
    kinds = ("gaussian", "uniform", "two_point", "deterministic")
    kind = ctx.get_str(obj, path, "kind", default=_REQUIRED, choices=kinds)
    params: dict = {}
    if kind in ("uniform", "two_point") and "a" in obj:
        params["a"] = ctx.get_float(obj, path, "a")
    if kind == "deterministic":
        v = ctx.require(obj, path, "velocities")
        if not isinstance(v, list):
            raise ctx.fail(path + ("velocities",), "expected an array of velocity rows")
        params["velocities"] = v
    return ctx.wrap(path, lambda: initial_from_tag(kind, **params))


_FACTOR_KEYS = {
    "tanh": ("kind", "a", "s"),
    "cos": ("kind", "xi", "s"),
    "box": ("kind", "lower", "upper", "s"),
}


def _build_observable(ctx: _Ctx, value: Any, path: Path) -> ObservableSpec:
    obj = ctx.require_object(value, path, ("kind", "a", "xi", "lower", "upper", "s"))
    kind = ctx.get_str(obj, path, "kind", default=_REQUIRED, choices=tuple(_FACTOR_KEYS))
    ctx.require_object(obj, path, _FACTOR_KEYS[kind])
    if kind == "tanh":
        factor = ctx.wrap(path, lambda: TanhFactor(a=ctx.get_float(obj, path, "a", default=1.0)))
    elif kind == "cos":
        xi = ctx.get_number_list(obj, path, "xi", default=[1.0])
        factor = ctx.wrap(path, lambda: CosineFactor(tuple(xi)))
    else:
        lower = ctx.get_number_list(obj, path, "lower", default=[-1.0])
        upper = ctx.get_number_list(obj, path, "upper", default=[1.0])
        factor = ctx.wrap(path, lambda: BoxFactor(tuple(lower), tuple(upper)))
    s = ctx.get_int(obj, path, "s", default=1, minimum=1)
    return ctx.wrap(path, lambda: ObservableSpec(tuple([factor] * s)))


@dataclass(frozen=True)
class SimSection:
    N: int
    t_end: float
    replicas: int
    times: Tuple[float, ...]
    estimator: str


def _build_sim(ctx: _Ctx, value: Any, path: Path) -> SimSection:
    obj = ctx.require_object(value, path, ("N", "t_end", "replicas", "times", "estimator"))
    n = ctx.get_int(obj, path, "N", default=_REQUIRED, minimum=1)
    t_end = ctx.get_float(obj, path, "t_end", default=_REQUIRED, minimum=0.0)
    replicas = ctx.get_int(obj, path, "replicas", default=1, minimum=1)
    times = ctx.get_number_list(obj, path, "times", default=[t_end])
    estimator = ctx.get_str(obj, path, "estimator", default="first", choices=ESTIMATOR_MODES)
    return SimSection(n, t_end, replicas, tuple(times), estimator)


@dataclass(frozen=True)
class PicardGrid:
    L: float = 8.0
    n_v: int = 513
    n_theta: int = 64
    n_time: int = 32
    n_iter: int = 8


@dataclass(frozen=True)
class MeanfieldSection:
    n: int
    t_end: float
    replicas: int
    times: Tuple[float, ...]
    solver: str
    grid: PicardGrid


def _build_meanfield(ctx: _Ctx, value: Any, path: Path) -> MeanfieldSection:
    obj = ctx.require_object(
        value, path, ("n", "t_end", "replicas", "times", "solver", "grid")
    )
    n = ctx.get_int(obj, path, "n", default=_REQUIRED, minimum=1)
    t_end = ctx.get_float(obj, path, "t_end", default=_REQUIRED, minimum=0.0)
    replicas = ctx.get_int(obj, path, "replicas", default=1, minimum=1)
    times = ctx.get_number_list(obj, path, "times", default=[t_end])
    solver = ctx.get_str(
        obj, path, "solver", default="meanfield", choices=("meanfield", "picard", "both")
    )
    gpath = path + ("grid",)
    gobj = ctx.require_object(
        obj.get("grid", {}), gpath, ("L", "n_v", "n_theta", "n_time", "n_iter")
    )
    L = ctx.get_float(gobj, gpath, "L", default=8.0)
    if L is not None and L <= 0.0:
        raise ctx.fail(gpath + ("L",), f"grid half-width L must be > 0, got {L}")
    grid = PicardGrid(
        L=L,
        n_v=ctx.get_int(gobj, gpath, "n_v", default=513, minimum=3),
        n_theta=ctx.get_int(gobj, gpath, "n_theta", default=64, minimum=1),
        n_time=ctx.get_int(gobj, gpath, "n_time", default=32, minimum=2),
        n_iter=ctx.get_int(gobj, gpath, "n_iter", default=8, minimum=1),
    )
    return MeanfieldSection(n, t_end, replicas, tuple(times), solver, grid)


@dataclass(frozen=True)
class ChaosSection:
    N_grid: Tuple[int, ...]
    s_list: Tuple[int, ...]
    t_list: Tuple[float, ...]
    factors: Tuple[Any, ...]
    budget: ChaosBudget
    pass_threshold: float
    estimator: str


def _build_chaos(ctx: _Ctx, value: Any, path: Path) -> ChaosSection:
    obj = ctx.require_object(
        value,
        path,
        ("N_grid", "s_list", "t_list", "factors", "budget", "pass_threshold", "estimator"),
    )
    n_grid = ctx.get_int_list(obj, path, "N_grid", default=_REQUIRED, minimum=1)
    s_list = ctx.get_int_list(obj, path, "s_list", default=[1, 2], minimum=1)
    t_list = ctx.get_number_list(obj, path, "t_list", default=_REQUIRED)
    factors: List[Any] = []
    if "factors" in obj:
        raw = obj["factors"]
        if not isinstance(raw, list) or not raw:
            raise ctx.fail(path + ("factors",), "expected a nonempty array of factor objects")
        for j, f in enumerate(raw):
            spec = _build_observable(ctx, f, path + ("factors", j))
            if spec.s != 1:
                raise ctx.fail(
                    path + ("factors", j),
                    "chaos factors are one-particle; use s_list for products",
                )
            factors.append(spec.factors[0])
    else:
        factors = [TanhFactor(), CosineFactor((1.0,))]
    bpath = path + ("budget",)
    bobj = ctx.require_object(
        obj.get("budget", {}),
        bpath,
        ("samples_per_point", "min_replicas", "ref_factor", "ref_replicas", "stderr_target"),
    )
    budget = ChaosBudget(
        samples_per_point=ctx.get_int(bobj, bpath, "samples_per_point", default=250_000, minimum=1),
        min_replicas=ctx.get_int(bobj, bpath, "min_replicas", default=8, minimum=2),
        ref_factor=ctx.get_int(bobj, bpath, "ref_factor", default=10, minimum=1),
        ref_replicas=ctx.get_int(bobj, bpath, "ref_replicas", default=16, minimum=2),
        stderr_target=ctx.get_float(bobj, bpath, "stderr_target", default=2e-3, minimum=0.0),
    )
    threshold = ctx.get_float(obj, path, "pass_threshold", default=0.95, minimum=0.0)
    if threshold > 1.0:
        raise ctx.fail(path + ("pass_threshold",), f"must be <= 1, got {threshold}")
    estimator = ctx.get_str(obj, path, "estimator", default="all", choices=ESTIMATOR_MODES)
    return ChaosSection(
        tuple(n_grid), tuple(s_list), tuple(t_list), tuple(factors), budget, threshold, estimator
    )


@dataclass(frozen=True)
class HierarchySection:
    epsilon: float
    T: Optional[float]
    N_grid: Tuple[int, ...]
    s_list: Tuple[int, ...]
    k_list: Optional[Tuple[int, ...]]


def _build_hierarchy(ctx: _Ctx, value: Any, path: Path) -> HierarchySection:
    obj = ctx.require_object(value, path, ("epsilon", "T", "N_grid", "s_list", "k_list"))
    epsilon = ctx.get_float(obj, path, "epsilon", default=_REQUIRED)
    if not 0.0 <= epsilon < 1.0:
        raise ctx.fail(
            path + ("epsilon",), f"tail weight epsilon must lie in [0, 1), got {epsilon}"
        )
    T = ctx.get_float(obj, path, "T", minimum=0.0)
    n_grid = ctx.get_int_list(
        obj, path, "N_grid", default=[10, 32, 100, 316, 1000, 3162, 10000], minimum=2
    )
    s_list = ctx.get_int_list(obj, path, "s_list", default=[1, 2, 3, 5], minimum=1)
    k_list = ctx.get_int_list(obj, path, "k_list", default=None, minimum=0)
    return HierarchySection(
        epsilon, T, tuple(n_grid), tuple(s_list), None if k_list is None else tuple(k_list)
    )


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

_SECTIONS = (
    "mixture",
    "initial",
    "sim",
    "meanfield",
    "observables",
    "chaos",
    "hierarchy",
    "seed",
    "output_dir",
)


@dataclass
class RunConfig:
    """Validated run description; sections are None when absent, initial data Gaussian."""

    raw: dict
    seed: int = 0
    output_dir: str = "."
    mixture: Optional[MixtureSpec] = None
    initial: InitialLaw = field(default_factory=GaussianInitial)
    sim: Optional[SimSection] = None
    meanfield: Optional[MeanfieldSection] = None
    observables: Tuple[ObservableSpec, ...] = ()
    chaos: Optional[ChaosSection] = None
    hierarchy: Optional[HierarchySection] = None

    def require(self, section: str) -> Any:
        value = getattr(self, section)
        if value is None:
            raise ConfigError(f"missing required config section {section!r}")
        return value


def parse_config(text: str, overrides: Sequence[str] = ()) -> RunConfig:
    data, pos = parse_with_positions(text)
    if overrides:
        data = apply_overrides(data, overrides)
        # An overridden value comes from the command line, not the file: drop
        # the file's lines at and under each overridden path.
        paths = [tuple(item.partition("=")[0].split(".")) for item in overrides]
        pos = {p: line for p, line in pos.items() if not any(p[: len(o)] == o for o in paths)}
    ctx = _Ctx(pos)
    obj = ctx.require_object(data, (), _SECTIONS)
    cfg = RunConfig(raw=data)

    seed = ctx.get_int(obj, (), "seed", default=0)
    if not 0 <= seed < 2**64:
        raise ctx.fail(("seed",), f"seed must be an unsigned 64-bit integer, got {seed}")
    cfg.seed = seed
    out_dir = ctx.get_str(obj, (), "output_dir", default=".")
    cfg.output_dir = out_dir

    if "mixture" in obj:
        cfg.mixture = _build_mixture(ctx, obj["mixture"], ("mixture",))
    if "initial" in obj:
        cfg.initial = _build_initial(ctx, obj["initial"], ("initial",))
    if "sim" in obj:
        cfg.sim = _build_sim(ctx, obj["sim"], ("sim",))
    if "meanfield" in obj:
        cfg.meanfield = _build_meanfield(ctx, obj["meanfield"], ("meanfield",))
    if "observables" in obj:
        raw = obj["observables"]
        if not isinstance(raw, list):
            raise ctx.fail(("observables",), "expected an array of observable objects")
        cfg.observables = tuple(
            _build_observable(ctx, item, ("observables", j)) for j, item in enumerate(raw)
        )
    if "chaos" in obj:
        cfg.chaos = _build_chaos(ctx, obj["chaos"], ("chaos",))
    if "hierarchy" in obj:
        cfg.hierarchy = _build_hierarchy(ctx, obj["hierarchy"], ("hierarchy",))
    return cfg


def load_config(path: str, overrides: Sequence[str] = ()) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    try:
        return parse_config(text, overrides)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

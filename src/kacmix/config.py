"""Declarative run configuration: strict JSON schema with line-precise errors.

A run is described by one JSON document with fixed sections (mixture,
initial, sim, meanfield, observables, chaos, hierarchy, seed, output_dir).
Each key is named once, at the read that checks its type and domain; an
absent key takes its default, read from the dataclass being built wherever
that field has one.  The keys an object's reads ask for are the keys it
allows: unknown keys are rejected in every object, ``initial`` included,
after its known keys are read.  Each complaint carries the line number of
the offending value in the original text.  The document is parsed once, by
the stdlib JSON decoder with hooks that record where each value starts; it
rejects duplicate keys and the non-standard ``NaN``/``Infinity`` constants.

Dotted overrides (``--set sim.N=200``) are applied to the raw document before
validation, so overridden values go through exactly the same checks; they
report without line numbers since they come from the command line.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from json.decoder import JSONArray, JSONObject
from json.scanner import py_make_scanner
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .chaos import ChaosBudget, _check_sweep
from .laws import (
    BinaryMaxwell,
    CollisionLaw,
    KacToy,
    MixtureSpec,
    SymmetricK,
    SymmetricKMomentum,
)
from .observables import BoxFactor, CosineFactor, ObservableSpec, TanhFactor
from .simulator import (
    DeterministicInitial,
    GaussianInitial,
    InitialLaw,
    ObservableObserver,
    Observer,
    SimConfig,
    TwoPointInitial,
    UniformBoxInitial,
    _check_observers,
)

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
# schema reader
# ---------------------------------------------------------------------------


_REQUIRED = object()  # default of a key that must be present


class _Obj:
    """Reader of one JSON object; each read names its key once and records it.

    A read checks the value's type and domain and blames the value's line.
    `done` rejects every key that no read asked for, so the keys read are
    exactly the keys allowed.
    """

    def __init__(self, value: Any, path: Path, pos: Dict[Path, int]):
        self.path = path
        self.pos = pos
        if not isinstance(value, dict):
            raise self.fail(f"expected an object, got {type(value).__name__}")
        self.value = value
        self.read: set = set()

    def fail(self, message: str, *keys: Any) -> ConfigError:
        path = self.path + keys
        return ConfigError(message, line=self.pos.get(path), path=path)

    def _read(self, key: str, default: Any, check: Callable[[Any], Any]) -> Any:
        self.read.add(key)
        if key in self.value:
            return check(self.value[key])
        if default is _REQUIRED:
            raise self.fail(f"missing required key {key!r}")
        return default

    def _integer(self, v: Any, keys: Path, minimum: Optional[int]) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise self.fail(f"expected an integer, got {v!r}", *keys)
        if minimum is not None and v < minimum:
            raise self.fail(f"must be >= {minimum}, got {v}", *keys)
        return v

    def _number(self, v: Any, keys: Path) -> float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise self.fail(f"expected a number, got {v!r}", *keys)
        return float(v)

    def integer(self, key: str, default: Any = _REQUIRED, minimum: Optional[int] = None) -> Any:
        return self._read(key, default, lambda v: self._integer(v, (key,), minimum))

    def number(self, key: str, default: Any = _REQUIRED, minimum: Optional[float] = None) -> Any:
        def check(v: Any) -> float:
            x = self._number(v, (key,))
            if not math.isfinite(x):
                raise self.fail("must be finite", key)
            if minimum is not None and x < minimum:
                raise self.fail(f"must be >= {minimum}, got {x}", key)
            return x

        return self._read(key, default, check)

    def text(self, key: str, default: Any = _REQUIRED, choices: Sequence[str] = ()) -> Any:
        def check(v: Any) -> str:
            if not isinstance(v, str):
                raise self.fail(f"expected a string, got {v!r}", key)
            if choices and v not in choices:
                raise self.fail(f"expected one of {sorted(choices)}, got {v!r}", key)
            return v

        return self._read(key, default, check)

    def array(self, key: str, message: str, item: Callable, default: Any, nonempty=True) -> Any:
        """The array at `key`, with `item(x, keys)` applied to each element in order."""

        def check(v: Any) -> tuple:
            if not isinstance(v, list) or (nonempty and not v):
                raise self.fail(message, key)
            return tuple(item(x, (key, j)) for j, x in enumerate(v))

        return self._read(key, default, check)

    def numbers(self, key: str, default: Any = _REQUIRED) -> Any:
        return self.array(key, "expected a nonempty array of numbers", self._number, default)

    def integers(self, key: str, default: Any = _REQUIRED, minimum: Optional[int] = None) -> Any:
        def item(x: Any, keys: Path) -> int:
            return self._integer(x, keys, minimum)

        return self.array(key, "expected a nonempty array of integers", item, default)

    def obj(self, key: str, build: Callable[["_Obj"], Any], default: Any = _REQUIRED) -> Any:
        """`build` applied to a reader of the object at `key`."""
        return self._read(key, default, lambda v: build(_Obj(v, self.path + (key,), self.pos)))

    def objects(self, key: str, build: Callable, message: str, default=_REQUIRED, nonempty=True):
        """`build` applied to a reader of each object in the array at `key`."""

        def item(x: Any, keys: Path) -> Any:
            return build(_Obj(x, self.path + keys, self.pos))

        return self.array(key, message, item, default, nonempty)

    def done(self) -> None:
        for key in self.value:
            if key not in self.read:
                raise self.fail(f"unknown key (allowed: {', '.join(sorted(self.read))})", key)

    def build(self, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Check for unknown keys, then run a constructor, placing its ValueError here."""
        self.done()
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise self.fail(str(exc)) from None


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

_LAWS = {cls.tag: cls for cls in (BinaryMaxwell, KacToy, SymmetricK, SymmetricKMomentum)}
_INITIALS = {
    cls.tag: cls
    for cls in (GaussianInitial, UniformBoxInitial, TwoPointInitial, DeterministicInitial)
}


def _build_law(o: _Obj) -> CollisionLaw:
    kind = o.text("kind")
    if kind not in _LAWS:
        raise o.fail(f"unknown law kind {kind!r}; expected one of {sorted(_LAWS)}", "kind")
    cls = _LAWS[kind]
    if cls is KacToy:
        params = {"kernel": o.text("kernel", cls.kernel)}
    else:
        params = {"k": o.integer("k", cls.k)} if issubclass(cls, SymmetricK) else {}
        params["d"] = o.integer("d", cls.d)
    return o.build(cls, **params)


def _build_mixture(o: _Obj) -> MixtureSpec:
    laws = o.objects("laws", _build_law, "expected a nonempty array of law objects")
    return o.build(MixtureSpec, laws, o.numbers("beta"))


def _build_initial(o: _Obj) -> InitialLaw:
    cls = _INITIALS[o.text("kind", choices=tuple(_INITIALS))]
    params: dict = {}
    if cls is DeterministicInitial:
        message = "expected an array of velocity rows"
        params["velocities"] = o.array("velocities", message, lambda x, keys: x, _REQUIRED, False)
    elif cls is not GaussianInitial:
        params["a"] = o.number("a", cls.a)
    return o.build(cls, **params)


def _build_observable(o: _Obj) -> ObservableSpec:
    kind = o.text("kind", choices=("tanh", "cos", "box"))
    if kind == "tanh":
        cls, params = TanhFactor, {"a": o.number("a", TanhFactor.a)}
    elif kind == "cos":
        cls, params = CosineFactor, {"xi": o.numbers("xi", (1.0,))}
    else:
        cls = BoxFactor
        params = {"lower": o.numbers("lower", cls.lower), "upper": o.numbers("upper", cls.upper)}
    s = o.integer("s", 1, minimum=1)
    return o.build(lambda: ObservableSpec((cls(**params),) * s))


@dataclass(frozen=True)
class SimSection:
    N: int
    t_end: float
    replicas: int
    times: Tuple[float, ...]
    estimator: str


def _ensemble(o: _Obj, size: str) -> tuple:
    """Ensemble size, horizon, replicas and sample times: the keys `sim` and `meanfield` share."""
    n = o.integer(size, minimum=1)
    t_end = o.number("t_end", minimum=0.0)
    return n, t_end, o.integer("replicas", 1, minimum=1), o.numbers("times", (t_end,))


def _build_sim(o: _Obj) -> SimSection:
    ensemble = _ensemble(o, "N")
    # `estimator` accepts only "all"; benchmarks/child.py is its last reader.
    return o.build(SimSection, *ensemble, o.text("estimator", "all", choices=("all",)))


@dataclass(frozen=True)
class PicardGrid:
    L: float = 8.0
    n_v: int = 513
    n_theta: int = 64
    n_time: int = 32
    n_iter: int = 8


def _build_grid(o: _Obj) -> PicardGrid:
    L = o.number("L", PicardGrid.L)
    if L <= 0.0:
        raise o.fail(f"grid half-width L must be > 0, got {L}", "L")
    return o.build(
        PicardGrid,
        L=L,
        n_v=o.integer("n_v", PicardGrid.n_v, minimum=3),
        n_theta=o.integer("n_theta", PicardGrid.n_theta, minimum=1),
        n_time=o.integer("n_time", PicardGrid.n_time, minimum=2),
        n_iter=o.integer("n_iter", PicardGrid.n_iter, minimum=1),
    )


@dataclass(frozen=True)
class MeanfieldSection:
    n: int
    t_end: float
    replicas: int
    times: Tuple[float, ...]
    solver: str
    grid: PicardGrid


def _build_meanfield(o: _Obj) -> MeanfieldSection:
    ensemble = _ensemble(o, "n")
    solver = o.text("solver", "meanfield", choices=("meanfield", "picard", "both"))
    return o.build(MeanfieldSection, *ensemble, solver, o.obj("grid", _build_grid, PicardGrid()))


@dataclass(frozen=True)
class ChaosSection:
    N_grid: Tuple[int, ...]
    s_list: Tuple[int, ...]
    t_list: Tuple[float, ...]
    factors: Tuple[Any, ...]
    budget: ChaosBudget
    pass_threshold: float


def _chaos_factor(o: _Obj) -> Any:
    spec = _build_observable(o)
    if spec.s != 1:
        raise o.fail("chaos factors are one-particle; use s_list for products")
    return spec.factors[0]


def _build_budget(o: _Obj) -> ChaosBudget:
    return o.build(
        ChaosBudget,
        samples_per_point=o.integer("samples_per_point", ChaosBudget.samples_per_point, minimum=1),
        min_replicas=o.integer("min_replicas", ChaosBudget.min_replicas, minimum=2),
        ref_factor=o.integer("ref_factor", ChaosBudget.ref_factor, minimum=1),
        ref_replicas=o.integer("ref_replicas", ChaosBudget.ref_replicas, minimum=2),
    )


def _build_chaos(o: _Obj) -> ChaosSection:
    n_grid = o.integers("N_grid", minimum=1)
    s_list = o.integers("s_list", (1, 2), minimum=1)
    t_list = o.numbers("t_list")
    message = "expected a nonempty array of factor objects"
    factors = o.objects("factors", _chaos_factor, message, (TanhFactor(), CosineFactor((1.0,))))
    budget = o.obj("budget", _build_budget, ChaosBudget())
    threshold = o.number("pass_threshold", 0.95, minimum=0.0)
    if threshold > 1.0:
        raise o.fail(f"must be <= 1, got {threshold}", "pass_threshold")
    return o.build(ChaosSection, n_grid, s_list, t_list, factors, budget, threshold)


@dataclass(frozen=True)
class HierarchySection:
    epsilon: float
    T: Optional[float]
    N_grid: Tuple[int, ...]
    s_list: Tuple[int, ...]
    k_list: Optional[Tuple[int, ...]]


def _build_hierarchy(o: _Obj) -> HierarchySection:
    epsilon = o.number("epsilon")
    if not 0.0 <= epsilon < 1.0:
        raise o.fail(f"tail weight epsilon must lie in [0, 1), got {epsilon}", "epsilon")
    T = o.number("T", None, minimum=0.0)
    if T == 0.0:
        raise o.fail("reference time T must be > 0", "T")
    return o.build(
        HierarchySection,
        epsilon,
        T,
        o.integers("N_grid", (10, 32, 100, 316, 1000, 3162, 10000), minimum=2),
        o.integers("s_list", (1, 2, 3, 5), minimum=1),
        o.integers("k_list", None, minimum=0),
    )


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Validated run description; sections are None when absent, initial data Gaussian."""

    raw: dict
    seed: int = 0
    output_dir: str = "."
    mixture: Optional[MixtureSpec] = None
    initial: InitialLaw = GaussianInitial()
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
    o = _Obj(data, (), pos)
    seed = o.integer("seed", RunConfig.seed)
    if not 0 <= seed < 2**64:
        raise o.fail(f"seed must be an unsigned 64-bit integer, got {seed}", "seed")
    cfg = o.build(
        RunConfig,
        raw=data,
        seed=seed,
        output_dir=o.text("output_dir", RunConfig.output_dir),
        mixture=o.obj("mixture", _build_mixture, RunConfig.mixture),
        initial=o.obj("initial", _build_initial, RunConfig.initial),
        sim=o.obj("sim", _build_sim, RunConfig.sim),
        meanfield=o.obj("meanfield", _build_meanfield, RunConfig.meanfield),
        observables=o.objects(
            "observables",
            _build_observable,
            "expected an array of observable objects",
            RunConfig.observables,
            nonempty=False,
        ),
        chaos=o.obj("chaos", _build_chaos, RunConfig.chaos),
        hierarchy=o.obj("hierarchy", _build_hierarchy, RunConfig.hierarchy),
    )
    if cfg.mixture is not None:
        _check_runs(o, cfg, cfg.mixture)
    return cfg


def _check_runs(o: _Obj, cfg: RunConfig, mixture: MixtureSpec) -> None:
    """The checks that join sections, made by each run before its engine starts, as config errors."""
    sim, mf, chaos = cfg.sim, cfg.meanfield, cfg.chaos
    try:
        if sim is not None:
            section, specs = "sim", cfg.observables
            config = SimConfig(sim.N, mixture, sim.t_end, cfg.seed, sim.replicas, cfg.initial)
            observer = ObservableObserver(sim.times, specs) if specs else Observer(sim.times)
            _check_observers([observer], config)
        if mf is not None and mf.solver != "picard":
            section = "meanfield"
            config = SimConfig(mf.n, mixture, mf.t_end, cfg.seed, mf.replicas, cfg.initial)
            _check_observers([Observer(mf.times)], config)
        if chaos is not None:
            section = "chaos"
            _check_sweep(mixture, cfg.initial, chaos.N_grid, chaos.s_list, chaos.t_list, chaos.factors)
    except ValueError as exc:
        raise o.fail(str(exc), section) from None


def load_config(path: str, overrides: Sequence[str] = ()) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    try:
        return parse_config(text, overrides)
    except ConfigError as exc:
        exc.args = (f"{path}: {exc}",)  # keep the error's line and path
        raise

"""Config layer: position-tracking parser, overrides, strict schema checks."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacmix.chaos import ChaosBudget
from kacmix.config import (
    ConfigError,
    PicardGrid,
    apply_overrides,
    load_config,
    parse_config,
    parse_with_positions,
)
from kacmix.laws import BinaryMaxwell, KacToy, SymmetricK
from kacmix.simulator import DeterministicInitial, GaussianInitial, TwoPointInitial

FULL_TEXT = """{
 "mixture": {
  "laws": [
   {"kind": "symmetric_k", "k": 1, "d": 1},
   {"kind": "kac_toy", "kernel": "uniform"}
  ],
  "beta": [0.0, 1.0]
 },
 "initial": {"kind": "two_point", "a": 2.0},
 "sim": {"N": 16, "t_end": 0.5, "replicas": 3, "times": [0.25, 0.5]},
 "meanfield": {"n": 64, "t_end": 0.5, "solver": "both", "grid": {"n_v": 65}},
 "observables": [
  {"kind": "tanh", "a": 0.5, "s": 2},
  {"kind": "cos", "xi": [2.0]},
  {"kind": "box", "lower": [-1.0], "upper": [1.0]}
 ],
 "chaos": {"N_grid": [8, 16], "t_list": [0.5], "budget": {"ref_factor": 2}},
 "hierarchy": {"epsilon": 0.25, "s_list": [1, 2]},
 "seed": 42,
 "output_dir": "out"
}"""


# ---------------------------------------------------------------------------
# position-tracking JSON reader
# ---------------------------------------------------------------------------


def test_positions_track_key_lines():
    text = '{\n "sim": {\n  "N": 10,\n  "t_end": 1.0\n },\n "seed": 3\n}'
    value, pos = parse_with_positions(text)
    assert value == {"sim": {"N": 10, "t_end": 1.0}, "seed": 3}
    assert pos[("sim",)] == 2
    assert pos[("sim", "N")] == 3
    assert pos[("sim", "t_end")] == 4
    assert pos[("seed",)] == 6


def test_positions_track_array_elements():
    text = '{\n "xs": [\n  1,\n  2\n ]\n}'
    value, pos = parse_with_positions(text)
    assert value == {"xs": [1, 2]}
    assert pos[("xs", 0)] == 3
    assert pos[("xs", 1)] == 4


def test_parser_preserves_number_types():
    value, _ = parse_with_positions('{"a": 3, "b": 3.0, "c": 3e2, "d": -7}')
    assert isinstance(value["a"], int) and isinstance(value["d"], int)
    assert isinstance(value["b"], float) and isinstance(value["c"], float)


def test_duplicate_keys_are_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'N'"):
        parse_with_positions('{\n "N": 1,\n "N": 2\n}')


def test_invalid_json_reports_stdlib_line():
    with pytest.raises(ConfigError, match="line 3: invalid JSON"):
        parse_with_positions('{\n "a": 1\n "b": 2\n}')


def test_trailing_content_rejected():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_with_positions('{"a": 1} {"b": 2}')


def test_non_finite_constants_are_rejected_with_their_line():
    with pytest.raises(ConfigError, match="line 2: NaN"):
        parse_with_positions('{\n "a": NaN\n}')
    with pytest.raises(ConfigError, match="line 3: -Infinity"):
        parse_config('{\n "sim": {"N": 4,\n  "t_end": -Infinity}\n}')


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(value=json_values)
def test_reader_agrees_with_stdlib_on_arbitrary_documents(value):
    for text in (json.dumps(value), json.dumps(value, indent=1)):
        parsed, _ = parse_with_positions(text)
        assert parsed == json.loads(text)


# ---------------------------------------------------------------------------
# overrides
# ---------------------------------------------------------------------------


def test_overrides_set_nested_and_fresh_paths():
    data = {"sim": {"N": 10}}
    apply_overrides(data, ["sim.N=20", "sim.t_end=1.5", "hierarchy.epsilon=0.5"])
    assert data == {"sim": {"N": 20, "t_end": 1.5}, "hierarchy": {"epsilon": 0.5}}


def test_overrides_fall_back_to_bare_strings():
    data = {}
    apply_overrides(data, ["initial.kind=gaussian", "output_dir=runs/x"])
    assert data == {"initial": {"kind": "gaussian"}, "output_dir": "runs/x"}


def test_overrides_parse_json_values():
    data = {}
    apply_overrides(data, ['chaos.N_grid=[8,16]', 'sim.times=[0.5, 1.0]'])
    assert data["chaos"]["N_grid"] == [8, 16]
    assert data["sim"]["times"] == [0.5, 1.0]


def test_override_syntax_errors():
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides({}, ["just-a-key"])
    with pytest.raises(ConfigError, match="not an object"):
        apply_overrides({"sim": 3}, ["sim.N=1"])


# ---------------------------------------------------------------------------
# schema: happy path
# ---------------------------------------------------------------------------


def test_full_document_builds_every_section():
    cfg = parse_config(FULL_TEXT)
    assert cfg.seed == 42 and cfg.output_dir == "out"
    assert isinstance(cfg.mixture.laws[0], SymmetricK)
    assert isinstance(cfg.mixture.laws[1], KacToy)
    assert cfg.mixture.beta == (0.0, 1.0)
    assert isinstance(cfg.initial, TwoPointInitial) and cfg.initial.a == 2.0
    assert cfg.sim.N == 16 and cfg.sim.times == (0.25, 0.5)
    assert cfg.sim.estimator == "all"
    assert cfg.meanfield.solver == "both" and cfg.meanfield.grid.n_v == 65
    assert cfg.meanfield.grid.L == 8.0  # untouched grid keys keep defaults
    names = [spec.name for spec in cfg.observables]
    assert names == ["tanh[0.5]*tanh[0.5]", "cos[2]", "box[-1:1]"]
    assert cfg.chaos.N_grid == (8, 16) and cfg.chaos.budget.ref_factor == 2
    assert cfg.chaos.budget.samples_per_point == 250_000
    assert cfg.chaos.pass_threshold == 0.95
    assert len(cfg.chaos.factors) == 2  # default tanh + cos pair
    assert cfg.hierarchy.epsilon == 0.25 and cfg.hierarchy.k_list is None


def test_empty_document_gives_defaults():
    cfg = parse_config("{}")
    assert cfg.seed == 0 and cfg.output_dir == "."
    assert cfg.mixture is None and cfg.sim is None and cfg.observables == ()
    assert isinstance(cfg.initial, GaussianInitial)
    with pytest.raises(ConfigError, match="missing required config section 'sim'"):
        cfg.require("sim")


def test_overrides_flow_through_validation():
    cfg = parse_config(FULL_TEXT, overrides=["sim.N=99", "seed=7"])
    assert cfg.sim.N == 99 and cfg.seed == 7
    with pytest.raises(ConfigError, match="sim.N: must be >= 1, got 0"):
        parse_config(FULL_TEXT, overrides=["sim.N=0"])


@pytest.mark.parametrize("override", ["sim.N=0", 'sim={"N": 0, "t_end": 0.5}'])
def test_override_errors_carry_no_file_line(override):
    """The file holds a valid sim.N on line 10; the bad value comes from the override."""
    with pytest.raises(ConfigError) as exc:
        parse_config(FULL_TEXT, overrides=[override])
    assert exc.value.line is None
    assert str(exc.value) == "sim.N: must be >= 1, got 0"


def test_omitted_keys_take_the_class_defaults():
    cfg = parse_config(
        '{"mixture": {"laws": [{"kind": "symmetric_k", "k": 1}, {"kind": "binary_maxwell"}],'
        ' "beta": [0.0, 1.0]},'
        ' "meanfield": {"n": 8, "t_end": 1.0}, "chaos": {"N_grid": [8], "t_list": [0.5]}}'
    )
    assert cfg.mixture.laws[1] == BinaryMaxwell()
    assert cfg.meanfield.grid == PicardGrid()
    assert cfg.chaos.budget == ChaosBudget()


def test_deterministic_initial_via_config():
    text = '{"initial": {"kind": "deterministic", "velocities": [[1.0], [2.0]]}}'
    cfg = parse_config(text)
    assert isinstance(cfg.initial, DeterministicInitial)
    assert cfg.initial.velocities == ((1.0,), (2.0,))


# ---------------------------------------------------------------------------
# schema: rejections, each with its position
# ---------------------------------------------------------------------------


def test_unknown_top_level_key_lists_sections():
    with pytest.raises(ConfigError, match=r"line 2: typo: unknown key \(allowed: .*sim"):
        parse_config('{\n "typo": 1\n}')


def test_unknown_nested_key_is_line_precise():
    text = '{\n "sim": {\n  "N": 4,\n  "t_end": 1.0,\n  "replucas": 2\n }\n}'
    with pytest.raises(ConfigError, match="line 5: sim.replucas: unknown key"):
        parse_config(text)


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="sim: missing required key 'N'"):
        parse_config('{"sim": {"t_end": 1.0}}')
    with pytest.raises(ConfigError, match="missing required key 't_end'"):
        parse_config('{"sim": {"N": 4}}')
    with pytest.raises(ConfigError, match="hierarchy: missing required key 'epsilon'"):
        parse_config('{"hierarchy": {}}')
    with pytest.raises(ConfigError, match="chaos: missing required key 'N_grid'"):
        parse_config('{"chaos": {"t_list": [0.5]}}')


def test_type_errors_carry_path_and_value():
    with pytest.raises(ConfigError, match=r"sim.N: expected an integer, got 4.5"):
        parse_config('{"sim": {"N": 4.5, "t_end": 1.0}}')
    with pytest.raises(ConfigError, match=r"sim.N: expected an integer, got True"):
        parse_config('{"sim": {"N": true, "t_end": 1.0}}')
    with pytest.raises(ConfigError, match=r"seed: expected an integer"):
        parse_config('{"seed": "zero"}')


def test_seed_must_fit_unsigned_64_bits():
    assert parse_config(f'{{"seed": {2**64 - 1}}}').seed == 2**64 - 1
    with pytest.raises(ConfigError, match="unsigned 64-bit"):
        parse_config('{"seed": -1}')
    with pytest.raises(ConfigError, match="unsigned 64-bit"):
        parse_config(f'{{"seed": {2**64}}}')


def test_unknown_law_kind_lists_choices():
    text = '{"mixture": {"laws": [{"kind": "maxwelll"}], "beta": [1.0]}}'
    with pytest.raises(ConfigError, match=r"unknown law kind 'maxwelll'; expected one of \['binary_maxwell'"):
        parse_config(text)


def test_law_key_mismatch_for_kind():
    text = '{"mixture": {"laws": [{"kind": "kac_toy", "d": 3}], "beta": [1.0]}}'
    with pytest.raises(ConfigError, match=r"mixture.laws.0.d: unknown key \(allowed: kernel, kind\)"):
        parse_config(text)


LAW_PAIR = '[{"kind": "symmetric_k", "k": 1, "d": 1}, {"kind": "kac_toy"}]'


def test_mixture_weight_errors_are_placed():
    text = f'{{\n "mixture": {{\n  "laws": {LAW_PAIR},\n  "beta": [0.4, 0.5]\n }}\n}}'
    with pytest.raises(ConfigError, match="line 2: mixture: .*sum to"):
        parse_config(text)
    text = f'{{"mixture": {{"laws": {LAW_PAIR}, "beta": [1.0]}}}}'
    with pytest.raises(ConfigError, match="mixture: "):
        parse_config(text)
    # a law sitting at the wrong slot for its collision order
    text = '{"mixture": {"laws": [{"kind": "kac_toy"}], "beta": [1.0]}}'
    with pytest.raises(ConfigError, match="order 1, got 2"):
        parse_config(text)


def test_initial_kind_choices():
    with pytest.raises(ConfigError, match=r"initial.kind: expected one of \['deterministic'"):
        parse_config('{"initial": {"kind": "dirac"}}')


def test_initial_rejects_keys_of_other_kinds():
    with pytest.raises(ConfigError, match=r"initial.a: unknown key \(allowed: kind\)"):
        parse_config('{"initial": {"kind": "gaussian", "a": 5}}')
    with pytest.raises(
        ConfigError, match=r"initial.velocities: unknown key \(allowed: a, kind\)"
    ):
        parse_config('{"initial": {"kind": "uniform", "velocities": [[1]]}}')


def test_observable_errors():
    with pytest.raises(ConfigError, match="observables.0.s: must be >= 1"):
        parse_config('{"observables": [{"kind": "tanh", "s": 0}]}')
    with pytest.raises(ConfigError, match="observables.0: .*lower"):
        parse_config('{"observables": [{"kind": "box", "lower": [2.0], "upper": [1.0]}]}')
    with pytest.raises(ConfigError, match=r"observables.0.xi: unknown key"):
        parse_config('{"observables": [{"kind": "tanh", "xi": [1.0]}]}')


def test_meanfield_grid_errors():
    with pytest.raises(ConfigError, match=r"grid.L: grid half-width L must be > 0"):
        parse_config('{"meanfield": {"n": 8, "t_end": 1.0, "grid": {"L": 0.0}}}')
    with pytest.raises(ConfigError, match=r"meanfield.solver: expected one of"):
        parse_config('{"meanfield": {"n": 8, "t_end": 1.0, "solver": "exact"}}')


def test_chaos_section_errors():
    with pytest.raises(ConfigError, match="pass_threshold: must be <= 1"):
        parse_config('{"chaos": {"N_grid": [8], "t_list": [0.5], "pass_threshold": 1.5}}')
    text = '{"chaos": {"N_grid": [8], "t_list": [0.5], "factors": [{"kind": "tanh", "s": 2}]}}'
    with pytest.raises(ConfigError, match="factors are one-particle"):
        parse_config(text)


def test_hierarchy_epsilon_domain():
    assert parse_config('{"hierarchy": {"epsilon": 0.0}}').hierarchy.epsilon == 0.0
    with pytest.raises(ConfigError, match=r"tail weight epsilon must lie in \[0, 1\)"):
        parse_config('{"hierarchy": {"epsilon": 1.0}}')
    with pytest.raises(ConfigError, match="tail weight epsilon"):
        parse_config('{"hierarchy": {"epsilon": -0.5}}')


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def test_load_config_prefixes_path(tmp_path):
    p = tmp_path / "run.json"
    p.write_text('{\n "sim": {"N": 0, "t_end": 1.0}\n}')
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert str(p) in str(err.value)
    assert "line 2" in str(err.value)


def test_load_config_keeps_the_error_position(tmp_path):
    p = tmp_path / "run.json"
    p.write_text('{\n "seed": -1\n}')
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert err.value.line == 2
    assert err.value.path == ("seed",)
    assert str(err.value).startswith(f"{p}: line 2: seed: ")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/nonexistent/nope.json")

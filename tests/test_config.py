import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ar2lab import (
    ARCoefficients,
    ExperimentConfig,
    NoiseSpec,
    ParseError,
    SeriesParams,
    StreamKey,
    ValidationError,
    bound_report,
    companion_spectrum,
    parse_config,
    parse_config_text,
    partial_series,
    simulate_path,
    weight_sequence,
)


def render_config(config: ExperimentConfig) -> str:
    """Config text for config; .17g keeps every double, so parsing it back is exact."""
    keys = {
        "a": config.coeffs.a, "b": config.coeffs.b, "p": config.params.p, "r": config.params.r,
        "epsilon": config.params.epsilon, "noise.family": config.noise.family,
        **{f"noise.param{i}": value for i, value in enumerate(config.noise.params, start=1)},
        "grid_max": config.grid_max, "replications": config.replications, "seed": config.master_seed,
        "output": config.output_path,
    }
    return "".join(f"{key} = {value:.17g}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in keys.items())


MINIMAL = """
a = 0.3
b = 0.2
p = 1
r = 2
epsilon = 1
noise.family = normal
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.coeffs == ARCoefficients(0.3, 0.2)
    assert cfg.noise == NoiseSpec("normal")
    assert cfg.params == SeriesParams(p=1.0, r=2.0, epsilon=1.0)
    assert cfg.grid_max == 128
    assert cfg.replications == 100000
    assert cfg.master_seed == 1
    assert cfg.output_path == "results"


def test_full_config_and_comments():
    cfg = parse_config_text(
        "# experiment: uniform noise\n"
        "a = -0.4\n"
        "b = 0.1   # inline comment\n"
        "\n"
        "p = 0.5\n"
        "r = 1.5\n"
        "epsilon = 0.25\n"
        "noise.family = uniform\n"
        "noise.param1 = 2.0\n"
        "grid_max = 64\n"
        "replications = 5000\n"
        "seed = 424242\n"
        "output = /tmp/run7\n"
    )
    assert cfg.noise == NoiseSpec("uniform", (2.0,))
    assert cfg.grid_max == 64
    assert cfg.replications == 5000
    assert cfg.master_seed == 424242
    assert cfg.output_path == "/tmp/run7"


def test_pareto_takes_two_params():
    cfg = parse_config_text(
        MINIMAL.replace("noise.family = normal",
                        "noise.family = pareto\nnoise.param1 = 2.5\nnoise.param2 = 1.0")
    )
    assert cfg.noise == NoiseSpec("pareto", (2.5, 1.0))


# --- parse errors (with line numbers) ---------------------------------------

def test_unknown_key_names_the_line():
    with pytest.raises(ParseError, match=r"line 2: unknown key 'alpha'"):
        parse_config_text("a = 0.3\nalpha = 1\n")


def test_duplicate_key_points_at_both_lines():
    with pytest.raises(ParseError, match=r"line 3: duplicate key 'a' \(first set on line 1\)"):
        parse_config_text("a = 0.3\nb = 0.2\na = 0.4\n")


def test_missing_equals_sign():
    with pytest.raises(ParseError, match=r"line 1: expected 'key = value'"):
        parse_config_text("just some words\n")


def test_empty_value():
    with pytest.raises(ParseError, match=r"line 2: key 'b' has no value"):
        parse_config_text("a = 0.3\nb =\n")


def test_non_numeric_value():
    with pytest.raises(ParseError, match=r"key 'a' needs a number, got 'fast'"):
        parse_config_text("a = fast\n" + MINIMAL.replace("a = 0.3\n", ""))


def test_non_integer_replications():
    with pytest.raises(ParseError, match=r"key 'replications' needs an integer, got '1e5'"):
        parse_config_text(MINIMAL + "replications = 1e5\n")


# --- validation errors (naming the condition) --------------------------------

def test_missing_required_key():
    with pytest.raises(ValidationError, match=r"missing required key 'epsilon'"):
        parse_config_text(MINIMAL.replace("epsilon = 1\n", ""))


def test_unknown_family():
    with pytest.raises(ValidationError, match=r"noise.family must be one of"):
        parse_config_text(MINIMAL.replace("normal", "cauchy"))


@pytest.mark.parametrize(
    "family,params,want",
    [
        ("normal", "noise.param1 = 1\n", 0),
        ("uniform", "", 1),
        ("student_t", "", 1),
        ("pareto", "noise.param1 = 2.5\n", 2),
    ],
)
def test_param_count_mismatch(family, params, want):
    text = MINIMAL.replace("noise.family = normal", f"noise.family = {family}") + params
    with pytest.raises(ValidationError, match=rf"takes exactly {want} parameter\(s\)"):
        parse_config_text(text)


@pytest.mark.parametrize("family", ["uniform", "pareto"])
def test_param2_needs_param1(family):
    # read as param1, uniform would get half_width 1.5 from a line that says param2
    text = MINIMAL.replace("noise.family = normal", f"noise.family = {family}") + "noise.param2 = 1.5\n"
    with pytest.raises(ValidationError, match=r"^noise.param2 needs noise.param1$"):
        parse_config_text(text)


def test_unstable_coefficients_report_the_triangle():
    text = MINIMAL.replace("a = 0.3", "a = 0.9").replace("b = 0.2", "b = 0.5")
    with pytest.raises(ValidationError, match=r"-1 < b < 1 - \|a\|, got a=0.9, b=0.5"):
        parse_config_text(text)


def test_series_invariants_become_validation_errors():
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("p = 1", "p = 2.5"))
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("r = 2", "r = 0.5"))
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("epsilon = 1", "epsilon = -1"))
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("a = 0.3", "a = nan"))


def test_noise_param_invariants_become_validation_errors():
    bad = MINIMAL.replace("noise.family = normal",
                          "noise.family = pareto\nnoise.param1 = -2\nnoise.param2 = 1")
    with pytest.raises(ValidationError):
        parse_config_text(bad)


def test_range_checks():
    with pytest.raises(ValidationError, match=r"grid_max must be >= 1, got 0"):
        parse_config_text(MINIMAL + "grid_max = 0\n")
    with pytest.raises(ValidationError, match=r"replications must be >= 100, got 99"):
        parse_config_text(MINIMAL + "replications = 99\n")
    with pytest.raises(ValidationError, match=r"seed must fit in 64 unsigned bits"):
        parse_config_text(MINIMAL + "seed = -1\n")
    with pytest.raises(ValidationError, match=r"seed must fit in 64 unsigned bits"):
        parse_config_text(MINIMAL + f"seed = {2 ** 64}\n")

    # replace (the CLI overrides) re-validates with the same messages
    base = parse_config_text(MINIMAL)
    for change, text in [
        ({"replications": 99}, MINIMAL + "replications = 99\n"),
        ({"master_seed": -1}, MINIMAL + "seed = -1\n"),
        ({"master_seed": 2 ** 64}, MINIMAL + f"seed = {2 ** 64}\n"),
        ({"grid_max": 0}, MINIMAL + "grid_max = 0\n"),
        ({"coeffs": ARCoefficients(0.9, 0.5)}, MINIMAL.replace("a = 0.3", "a = 0.9").replace("b = 0.2", "b = 0.5")),
        ({"output_path": ""}, None),  # an empty value never parses, so only replace() reaches this check
    ]:
        with pytest.raises(ValidationError) as replaced:
            base.replace(**change)
        if text is None:
            assert str(replaced.value) == "output must be a non-empty path prefix"
        else:
            with pytest.raises(ValidationError) as parsed:
                parse_config_text(text)
            assert str(replaced.value) == str(parsed.value)


def test_counts_must_be_whole_numbers():
    # int() would accept grid_max = 12.5 and end the default grid at 12
    base = parse_config_text(MINIMAL)
    for field in ("grid_max", "replications", "master_seed"):
        with pytest.raises(ValidationError, match=r"must be a whole number, got 12.5"):
            base.replace(**{field: 12.5})
    # whole floats are stored as the ints they name
    whole = base.replace(grid_max=48.0, replications=1e3, master_seed=7.0)
    assert whole == base.replace(grid_max=48, replications=1000, master_seed=7)
    assert type(whole.grid_max) is type(whole.replications) is type(whole.master_seed) is int


def every_record_type() -> list:
    """One instance of each of the package's 12 record types."""
    config = parse_config_text(MINIMAL)
    table = weight_sequence(config.coeffs, 60)
    series = partial_series(config.coeffs, config.noise, config.params, range(1, 129), 100, 1)
    return [config, config.coeffs, config.noise, config.params, StreamKey(7, "tail", n=3, block=1),
            companion_spectrum(config.coeffs), table, bound_report(table, 60), series.tails[0], series.moments,
            series, simulate_path(config.coeffs, [1.0, -0.5, 2.0])]


def same_fields(record, other) -> bool:
    """Field-by-field equality; a numpy field compares by its values."""
    return type(other) is type(record) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(record, name), getattr(other, name)) for name in record.__slots__)
    )


def test_records_are_frozen_values_that_pickle():
    records = every_record_type()
    assert len({type(record) for record in records}) == 12
    for record in records:
        field = record.__slots__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        copy = pickle.loads(pickle.dumps(record))
        assert same_fields(record, copy) and copy is not record
        assert copy == record and hash(copy) == hash(record)
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record.__slots__)
        assert repr(record) == f"{type(record).__name__}({fields})"
    key = records[4]
    assert key != StreamKey(7, "tail", n=3, block=2) and key != (7, "tail", 3, 1)
    # the records that hold arrays compare and hash by the arrays' bits
    table, path = records[6], records[11]
    assert table == weight_sequence(table.coeffs, 60) and hash(table) == hash(weight_sequence(table.coeffs, 60))
    assert table != weight_sequence(ARCoefficients(0.5, -0.9), 60) and table != weight_sequence(table.coeffs, 59)
    assert path != simulate_path(table.coeffs, [1.0, -0.5, 2.5]) and len({path, pickle.loads(pickle.dumps(path))}) == 1
    assert simulate_path(table.coeffs, [0.0]) != simulate_path(table.coeffs, [-0.0])
    assert repr(records[1]) == "ARCoefficients(a=0.3, b=0.2, stability=<Stability.STABLE: 'Stable'>)"


def test_record_constructor_binds_each_field_once():
    # the seven records that do not validate take their fields by position, then by name
    data = [record for record in every_record_type()
            if type(record) not in (ExperimentConfig, ARCoefficients, NoiseSpec, SeriesParams, StreamKey)]
    assert len(data) == 7
    for record in data:
        cls, names = type(record), record.__slots__
        values = [getattr(record, name) for name in names]
        assert same_fields(record, cls(*values))
        assert same_fields(record, cls(*values[:2], **dict(zip(names[2:], values[2:]))))
        with pytest.raises(TypeError, match=f"{cls.__name__} is missing field\\(s\\) {names[-1]}"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match=f"{cls.__name__} takes {len(names)} fields, got {len(names) + 1}"):
            cls(*values, None)
        with pytest.raises(TypeError, match=f"{cls.__name__} got field '{names[0]}' twice"):
            cls(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError, match=f"{cls.__name__} got field 'extra' that it does not have"):
            cls(*values, extra=None)


def test_unpickling_skips_the_checks(monkeypatch):
    # a pickled record holds values its checks already passed
    noise = NoiseSpec("pareto", (2.5, 1.0))
    data = pickle.dumps(noise)

    def refuse(self, *args, **kwargs):
        raise AssertionError("checked again")

    monkeypatch.setattr(NoiseSpec, "__init__", refuse)
    assert pickle.loads(data) == noise


# --- round trip ----------------------------------------------------------------

def test_render_parse_round_trip_examples():
    for text in (
        MINIMAL,
        MINIMAL + "grid_max = 48\nreplications = 250\nseed = 99\noutput = out/x\n",
    ):
        cfg = parse_config_text(text)
        assert parse_config_text(render_config(cfg)) == cfg


@st.composite
def configs(draw):
    a = draw(st.floats(-1.8, 1.8))
    b = draw(st.floats(-0.99, 0.99))
    if not (-1 + 1e-6 < b < 1 - abs(a) - 1e-6):
        a, b = 0.3, 0.2
    p = draw(st.floats(0.05, 1.95))
    r = p + draw(st.floats(0.0, 3.0))
    epsilon = draw(st.floats(1e-6, 1e6))
    noise = draw(
        st.sampled_from(
            [
                NoiseSpec("normal"),
                NoiseSpec("rademacher"),
                NoiseSpec("uniform", (0.75,)),
                NoiseSpec("student_t", (4.5,)),
                NoiseSpec("pareto", (3.0, 0.5)),
            ]
        )
    )
    return ExperimentConfig(
        coeffs=ARCoefficients(a, b),
        noise=noise,
        params=SeriesParams(p=p, r=r, epsilon=epsilon),
        grid_max=draw(st.integers(1, 4096)),
        replications=draw(st.integers(100, 10 ** 7)),
        master_seed=draw(st.integers(0, 2 ** 64 - 1)),
        output_path="results",
    )


@given(configs())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_render_parse_round_trip_is_exact(cfg):
    # .17g preserves every double exactly, so the round trip is lossless
    again = parse_config_text(render_config(cfg))
    assert again == cfg
    assert math.copysign(1.0, again.coeffs.a) == math.copysign(1.0, cfg.coeffs.a)


def test_parse_config_reads_files(tmp_path):
    target = tmp_path / "exp.cfg"
    target.write_text(MINIMAL, encoding="utf-8")
    assert parse_config(target) == parse_config_text(MINIMAL)

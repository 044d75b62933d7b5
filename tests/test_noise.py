import inspect
import math
import re
import sys
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from ar2lab import (
    InvalidOrder,
    InvalidParameters,
    NoiseSpec,
    StreamKey,
    absolute_moment,
    generator_for,
    sample_block,
)
from ar2lab import noise
from ar2lab.estimate import SET_ASIDE
from ar2lab.noise import _COS_K, _SIN_K, _STEPS, _log2_abs_bound, _polar_pairs


# --- quadrature oracle -------------------------------------------------------

def _density(spec):
    """Independent density definitions for the continuous families."""
    if spec.family == "normal":
        return lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), -np.inf, np.inf
    if spec.family == "uniform":
        (c,) = spec.params
        return lambda x: 1.0 / (2 * c), -c, c
    if spec.family == "student_t":
        (nu,) = spec.params
        coef = math.gamma((nu + 1) / 2) / (math.sqrt(nu * math.pi) * math.gamma(nu / 2))
        return lambda x: coef * (1 + x * x / nu) ** (-(nu + 1) / 2), -np.inf, np.inf
    if spec.family == "pareto":
        alpha, x_min = spec.params
        half = alpha * x_min ** alpha / 2.0
        return lambda x: half * abs(x) ** (-alpha - 1) if abs(x) >= x_min else 0.0, -np.inf, np.inf
    raise AssertionError(spec.family)


def oracle_moment(spec, r):
    if spec.family == "rademacher":
        return 1.0
    if spec.family == "pareto":
        # integrate the magnitude directly: the split at +-x_min trips quad
        alpha, x_min = spec.params
        value, err = quad(lambda x: alpha * x_min ** alpha * x ** (r - alpha - 1), x_min, np.inf)
        return value
    density, lo, hi = _density(spec)
    value, err = quad(lambda x: abs(x) ** r * density(x), lo, hi, limit=200)
    return value


MOMENT_CASES = [
    (NoiseSpec("normal"), 1.0),
    (NoiseSpec("normal"), 2.0),
    (NoiseSpec("normal"), 4.0),
    (NoiseSpec("normal"), 1.7),
    (NoiseSpec("uniform", (1.0,)), 2.0),
    (NoiseSpec("uniform", (2.0,)), 2.0),
    (NoiseSpec("uniform", (0.5,)), 3.3),
    (NoiseSpec("student_t", (5.0,)), 2.0),
    (NoiseSpec("student_t", (3.0,)), 2.0),
    (NoiseSpec("student_t", (4.5,)), 1.25),
    (NoiseSpec("pareto", (2.5, 1.0)), 1.0),
    (NoiseSpec("pareto", (3.0, 1.3)), 2.0),
    (NoiseSpec("rademacher"), 1.0),
    (NoiseSpec("rademacher"), 3.7),
]


@pytest.mark.parametrize("spec,r", MOMENT_CASES, ids=str)
def test_absolute_moment_matches_quadrature(spec, r):
    value = absolute_moment(spec, r)
    assert math.isfinite(value)
    assert value == pytest.approx(oracle_moment(spec, r), rel=1e-8)


def test_absolute_moment_closed_values():
    assert absolute_moment(NoiseSpec("normal"), 1) == pytest.approx(math.sqrt(2 / math.pi))
    assert absolute_moment(NoiseSpec("normal"), 2) == pytest.approx(1.0)
    assert absolute_moment(NoiseSpec("normal"), 4) == pytest.approx(3.0)
    assert absolute_moment(NoiseSpec("rademacher"), 0.5) == 1.0
    assert absolute_moment(NoiseSpec("uniform", (2.0,)), 2) == pytest.approx(4.0 / 3.0)
    # Student t: E T^2 = nu / (nu - 2)
    assert absolute_moment(NoiseSpec("student_t", (5,)), 2) == pytest.approx(5.0 / 3.0)
    assert absolute_moment(NoiseSpec("pareto", (2.5, 1.0)), 1) == pytest.approx(5.0 / 3.0)


def test_absolute_moment_divergence():
    assert not math.isfinite(absolute_moment(NoiseSpec("student_t", (3.0,)), 3.0))
    assert not math.isfinite(absolute_moment(NoiseSpec("student_t", (3.0,)), 4.0))
    assert not math.isfinite(absolute_moment(NoiseSpec("pareto", (2.0, 1.0)), 2.0))
    assert not math.isfinite(absolute_moment(NoiseSpec("pareto", (1.5, 2.0)), 1.8))
    assert math.isfinite(absolute_moment(NoiseSpec("student_t", (3.0,)), 2.99))


@pytest.mark.parametrize(
    "spec, r, named",
    [
        (NoiseSpec("uniform", (1e200,)), 2, "E|theta|^2 of uniform noise (half_width = 1e+200)"),  # c^r overflows
        (NoiseSpec("normal"), 2000, "E|theta|^2000 of normal noise"),  # exp of the log-moment overflows
        (NoiseSpec("pareto", (3.0, 1e200)), 2, "E|theta|^2 of pareto noise (alpha = 3, x_min = 1e+200)"),
        (NoiseSpec("pareto", (300.0, 1e308)), 1, "E|theta|^1 of pareto noise (alpha = 300, x_min = 1e+308)"),
        (NoiseSpec("student_t", (5000.0,)), 1000, "E|theta|^1000 of student_t noise (dof = 5000)"),
    ],
    ids=["uniform", "normal", "pareto", "pareto-product", "student_t"],
)
def test_absolute_moment_refuses_a_finite_moment_beyond_the_largest_double(spec, r, named):
    # math.inf means divergence, so a finite moment that no double holds is an
    # error naming the family, its parameters and r, never an infinite value.
    # pareto-product: x_min^r = 1e308 is a double, but alpha x_min^r overflows silently to inf
    with pytest.raises(InvalidParameters, match=re.escape(named) + " is finite but overflows a double$"):
        absolute_moment(spec, r)


def test_absolute_moment_rejects_bad_order():
    with pytest.raises(InvalidOrder):
        absolute_moment(NoiseSpec("normal"), 0.0)
    with pytest.raises(InvalidOrder):
        absolute_moment(NoiseSpec("normal"), -1.0)


# --- spec validation ---------------------------------------------------------

def test_spec_validation():
    with pytest.raises(InvalidParameters):
        NoiseSpec("cauchy")
    with pytest.raises(InvalidParameters):
        NoiseSpec("uniform", (0.0,))
    with pytest.raises(InvalidParameters):
        NoiseSpec("uniform", (-1.0,))
    with pytest.raises(InvalidParameters):
        NoiseSpec("student_t", (0.0,))
    with pytest.raises(InvalidParameters):
        NoiseSpec("pareto", (0.0, 1.0))
    with pytest.raises(InvalidParameters):
        NoiseSpec("pareto", (1.0, 0.0))
    with pytest.raises(InvalidParameters):
        NoiseSpec("normal", (1.0,))
    with pytest.raises(InvalidParameters):
        NoiseSpec("pareto", (2.0,))
    with pytest.raises(InvalidParameters):
        NoiseSpec("uniform", (math.nan,))


def test_stream_key_validation():
    with pytest.raises(InvalidParameters):
        StreamKey(-1, "x")
    with pytest.raises(InvalidParameters):
        StreamKey(2 ** 64, "x")
    with pytest.raises(InvalidParameters):
        StreamKey(1, "x", n=-1)
    key = StreamKey(2 ** 64 - 1, "x", n=3, block=9)
    assert key.master_seed == 2 ** 64 - 1
    # int() would hold n = 2 and block = 0, the stream of another key
    for field in ("n", "block"):
        for bad in (2.5, 0.9, math.nan, "3"):
            with pytest.raises(InvalidParameters, match=rf"{field} must be a whole number"):
                StreamKey(1, "x", **{field: bad})
    assert StreamKey(1, "x", n=2.0, block=np.int64(1)) == StreamKey(1, "x", n=2, block=1)


# --- sampling ----------------------------------------------------------------

ALL_SPECS = [
    NoiseSpec("normal"),
    NoiseSpec("rademacher"),
    NoiseSpec("uniform", (1.5,)),
    NoiseSpec("student_t", (5.0,)),
    NoiseSpec("pareto", (3.0, 1.0)),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_sampling_is_key_deterministic(spec):
    key = StreamKey(123456789, "test", n=17, block=4)
    one = sample_block(spec, 1001, key)
    two = sample_block(spec, 1001, key)
    assert np.array_equal(one, two)


def test_different_key_fields_change_the_stream():
    base = StreamKey(7, "tail", n=8, block=0)
    ref = sample_block(NoiseSpec("normal"), 64, base)
    for other in [
        StreamKey(8, "tail", n=8, block=0),
        StreamKey(7, "moment", n=8, block=0),
        StreamKey(7, "tail", n=9, block=0),
        StreamKey(7, "tail", n=8, block=1),
    ]:
        assert not np.array_equal(ref, sample_block(NoiseSpec("normal"), 64, other))


def test_generator_for_is_reproducible():
    key = StreamKey(42, "anything", n=1, block=2)
    assert np.array_equal(generator_for(key).random(16), generator_for(key).random(16))


def test_sample_count_edges():
    key = StreamKey(5, "edge")
    assert sample_block(NoiseSpec("normal"), 0, key).size == 0
    assert sample_block(NoiseSpec("normal"), 7, key).size == 7  # odd count
    with pytest.raises(InvalidParameters):
        sample_block(NoiseSpec("normal"), -1, key)
    # int() would return 3 draws for a count of 3.7
    with pytest.raises(InvalidParameters, match="count must be a whole number"):
        sample_block(NoiseSpec("normal"), 3.7, key)
    three = sample_block(NoiseSpec("normal"), 3, key)
    for whole in (3.0, np.int64(3)):
        assert np.array_equal(sample_block(NoiseSpec("normal"), whole, key), three)


def test_support_constraints():
    key = StreamKey(11, "support")
    rad = sample_block(NoiseSpec("rademacher"), 10000, key)
    assert set(np.unique(rad)) == {-1.0, 1.0}
    uni = sample_block(NoiseSpec("uniform", (0.75,)), 10000, key)
    assert np.all(np.abs(uni) < 0.75)
    par = sample_block(NoiseSpec("pareto", (2.0, 1.5)), 10000, key)
    assert np.all(np.abs(par) >= 1.5)
    assert np.all(np.isfinite(sample_block(NoiseSpec("student_t", (1.0,)), 100000, key)))


@pytest.mark.parametrize(
    "spec",
    [
        NoiseSpec("normal"),
        NoiseSpec("rademacher"),
        NoiseSpec("uniform", (1.5,)),
        NoiseSpec("student_t", (5.0,)),
        NoiseSpec("pareto", (3.0, 1.0)),
    ],
    ids=lambda s: s.family,
)
def test_symmetry_of_sample_mean(spec):
    # families above all have a finite mean (= 0)
    x = sample_block(spec, 1_000_000, StreamKey(2024, "symmetry"))
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean()) <= 4.0 * se


MOMENT_AGREEMENT = [
    (NoiseSpec("normal"), 1.0),
    (NoiseSpec("normal"), 2.0),
    (NoiseSpec("normal"), 4.0),
    (NoiseSpec("rademacher"), 2.0),
    (NoiseSpec("uniform", (1.5,)), 3.0),
    (NoiseSpec("student_t", (5.0,)), 2.0),
    (NoiseSpec("pareto", (3.0, 1.0)), 1.0),
]


@pytest.mark.parametrize("spec,r", MOMENT_AGREEMENT, ids=str)
def test_sample_moments_match_analytic(spec, r):
    # parameter choices keep |theta|^r with finite variance, so the
    # sample standard error is a meaningful yardstick
    x = np.abs(sample_block(spec, 1_000_000, StreamKey(77, "moments"))) ** r
    se = x.std(ddof=1) / math.sqrt(x.size)
    want = absolute_moment(spec, r)
    assert abs(x.mean() - want) <= 5.0 * max(se, 1e-12)


def test_rademacher_mean_window():
    x = sample_block(NoiseSpec("rademacher"), 1_000_000, StreamKey(1, "window"))
    assert -0.004 <= x.mean() <= 0.004


def test_normal_second_moment_window():
    x = sample_block(NoiseSpec("normal"), 1_000_000, StreamKey(1, "window"))
    assert 0.995 <= np.mean(x * x) <= 1.005


# (total, start, stop): one whole block of stop - start draws written into the range
# [start, stop) of a buffer of `total` doubles, as the engine writes each strip into the
# front of its one strip buffer.  Odd counts and odd starts (a half pair for normal),
# empty and full ranges, and the whole-block counts 0, 63, 64, 65, 128, 129 and 1_000_003
RANGES = [
    (1, 0, 1), (1, 0, 0), (1, 1, 1), (2, 1, 2), (7, 0, 7), (7, 3, 4), (7, 1, 6), (7, 2, 7), (7, 7, 7),
    (8, 3, 3), (8, 2, 6), (1001, 0, 1001), (1001, 333, 1000), (1001, 500, 501), (1024, 512, 1024),
    # rademacher reads 64 values per raw word: counts at a word's edge or one off it
    (200, 0, 63), (200, 0, 64), (200, 0, 65), (200, 63, 64), (200, 63, 65), (200, 64, 128),
    (200, 65, 128), (200, 63, 129), (200, 128, 200), (128, 65, 128), (129, 64, 129),
    (1_000_003, 777_777, 999_999),  # an odd start inside a large buffer
    (0, 0, 0), (63, 0, 63), (64, 0, 64), (65, 0, 65), (128, 0, 128), (129, 0, 129),
    (1_000_003, 0, 1_000_003),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("total, start, stop", RANGES)
def test_range_draw_is_a_slice_of_the_whole_block(spec, total, start, stop):
    # the range holds the allocating call's block, bit for bit, and the rest of the buffer
    # is left as it was
    key = StreamKey(2024, "range", n=total, block=1)
    buffer = np.full(total, np.nan)
    part = sample_block(spec, stop - start, key, out=buffer[start:stop])
    whole = sample_block(spec, stop - start, key)
    assert part.shape == (stop - start,)
    assert buffer[start:stop].tobytes() == whole.tobytes()
    assert np.isnan(buffer[:start]).all() and np.isnan(buffer[stop:]).all()


# (start, stop) inside a buffer of max(OUT_TOTAL, stop) doubles that holds an earlier
# block: its start, a range inside it, its last range, and an odd start with an odd count
# (a half pair for normal); the normal ranges span more than one 8192-pair chunk of the
# angle map.  Then whole-block counts from the front of the buffer, as in COUNTS.
OUT_TOTAL = 100_001
COUNTS = [0, 1, 63, 64, 65, 128, 129, 40_001, 1_000_003]
OUT_WINDOWS = [(0, 40_000), (30_000, 70_000), (60_001, 100_001), (4_097, 41_000)] + [(0, c) for c in COUNTS]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("start, stop", OUT_WINDOWS)
def test_draws_into_out_match_the_allocating_call(spec, start, stop):
    # the draws do not depend on what out held before
    key = StreamKey(2024, "out", n=stop - start, block=2)
    want = sample_block(spec, stop - start, key)
    buffer = sample_block(spec, max(OUT_TOTAL, stop), StreamKey(2024, "earlier"))
    out = buffer[start:stop]
    got = sample_block(spec, stop - start, key, out=out)
    assert got is out
    assert out.tobytes() == want.tobytes()


def test_sample_block_keeps_its_parameter_names():
    # bench/spans.py binds spec and count by name when it wraps sample_block
    names = ["spec", "count", "stream_key", "out"]
    assert list(inspect.signature(sample_block).parameters) == names


def _bad_out(kind, count):
    read_only = np.empty(count)
    read_only.setflags(write=False)
    return {
        "float32": np.empty(count, dtype=np.float32),
        "int64": np.empty(count, dtype=np.int64),
        "short": np.empty(count - 1),
        "long": np.empty(count + 1),
        "2-d": np.empty((count, 1)),
        "strided": np.empty(2 * count)[::2],
        "read-only": read_only,
        "list": [0.0] * count,
    }[kind]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("kind", ["float32", "int64", "short", "long", "2-d", "strided", "read-only", "list"])
def test_a_bad_out_is_refused_before_any_draw(spec, kind, monkeypatch):
    def no_draw(key):
        raise AssertionError("a stream was derived for a refused out")

    monkeypatch.setattr(noise, "generator_for", no_draw)
    with pytest.raises(InvalidParameters, match="out must be"):
        sample_block(spec, 10, StreamKey(5, "out"), out=_bad_out(kind, 10))


@pytest.mark.parametrize("total, start, stop", RANGES)
def test_rademacher_draws_are_the_raw_bits(total, start, stop):
    # oracle in Python ints: draw v is 1 - 2 * (bit v % 64 of raw word v // 64); the
    # block of stop - start draws goes into the range [start, stop) of a buffer
    key = StreamKey(2024, "bits", n=total, block=start)
    count = stop - start
    part = sample_block(NoiseSpec("rademacher"), count, key, out=np.full(total, np.nan)[start:stop])
    words = generator_for(key).bit_generator.random_raw((count + 63) // 64).tolist()
    want = [1 - 2 * ((words[v // 64] >> (v % 64)) & 1) for v in range(count)]
    assert part.dtype == np.float64
    assert part.tolist() == want
    assert not (np.signbit(part) & (part == 0.0)).any()  # no -0.0


@pytest.mark.parametrize("nu", [0.3, 1.0, 3.0, 30.0])
def test_student_t_matches_the_exact_cdf(nu):
    x = sample_block(NoiseSpec("student_t", (nu,)), 1_000_000, StreamKey(31337, "ks", n=int(10 * nu)))
    # a correct sampler falls below the floor once in 10^4 keys
    assert stats.kstest(x, stats.t(nu).cdf).pvalue > 1e-4


def test_normal_matches_the_exact_cdf():
    x = sample_block(NoiseSpec("normal"), 1_000_000, StreamKey(31337, "ks"))
    assert stats.kstest(x, stats.norm.cdf).pvalue > 1e-4


def decimal_cos_sin(theta):
    """cos and sin of the double theta, by their Taylor series in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, term, n = Decimal(theta), Decimal(1), 0
        sums = [Decimal(0), Decimal(0)]  # cos, sin
        while abs(term) > Decimal("1e-70"):
            sums[n % 2] += term if n % 4 < 2 else -term
            n += 1
            term = term * x / n
        return float(sums[0]), float(sums[1])  # rounds correctly


def test_angle_table_is_correctly_rounded():
    # C_k, S_k are cos and sin of the double 2 pi k / 1024 that u = k / 1024 mapped to in layout 6
    assert len(_COS_K) == len(_SIN_K) == _STEPS + 1
    for k in range(_STEPS + 1):
        assert (_COS_K[k], _SIN_K[k]) == decimal_cos_sin(2.0 * math.pi * k / _STEPS), k


def unit_circle(u):
    out = np.empty(2 * len(u))
    out[: len(u)] = u
    _polar_pairs(np.ones(len(u)), out, np.empty((3, len(u))))
    return out[0::2], out[1::2]


def test_angle_map_matches_libm():
    grid = np.arange(_STEPS + 1) / _STEPS
    u = np.concatenate([
        np.random.default_rng(1958).random(10 ** 6),
        [0.0, np.nextafter(1.0, 0.0)],
        grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0),  # the table's angles and their neighbours
        grid[:-1] + 0.5 / _STEPS,  # the ties of rint(1024 u)
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    cos, sin = unit_circle(u)
    angle = (2.0 * math.pi * u).tolist()
    assert np.max(np.abs(cos - np.fromiter(map(math.cos, angle), float, len(u)))) <= 1e-15
    assert np.max(np.abs(sin - np.fromiter(map(math.sin, angle), float, len(u)))) <= 1e-15
    # at u = k / 1024 the map is the table: x = 0, so c(x) = 1 and s(x) = 0
    cos, sin = unit_circle(grid[:-1])
    assert np.array_equal(cos, _COS_K[:-1]) and np.array_equal(sin, _SIN_K[:-1])


def test_normal_kernel_memory_stays_within_two_and_a_half_outputs():
    # both halves' uniforms, the output and the angle map's chunk temporaries;
    # cos and sin of the whole block at once would be 3.16 x
    tracemalloc.start()
    try:
        x = sample_block(NoiseSpec("normal"), 2 ** 19, StreamKey(3, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * x.nbytes


def test_normal_kernel_holds_no_temporary_the_size_of_the_block():
    # the radii are drawn into the output's upper half and the angles one 8192-pair
    # chunk at a time, so beyond the output only four chunk rows (0.06 x) are held;
    # two half-size uniform arrays besides the output would be 2.1 x
    key = StreamKey(3, "memory")
    for out in (None, np.empty(2 ** 19)):
        tracemalloc.start()
        try:
            x = sample_block(NoiseSpec("normal"), 2 ** 19, key, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1.25 if out is None else 0.25) * x.nbytes


def test_small_normal_draws_hold_four_chunk_rows():
    # 8192 draws are one chunk of 4096 pairs: its radius copy and three rows of
    # map temporaries, each half the output, 2 x with out; the angles and the
    # table index live in the part of the output the chunk fills.  Separate
    # angle, index and polynomial arrays besides them were 3.04 x with out
    key = StreamKey(3, "memory")
    for out in (None, np.empty(8192)):
        tracemalloc.start()
        try:
            x = sample_block(NoiseSpec("normal"), 8192, key, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (3.25 if out is None else 2.25) * x.nbytes


def test_rademacher_kernel_memory_stays_within_one_and_a_quarter_outputs():
    # the output, one byte per draw for the int8 signs and the raw words;
    # a float64 temporary of the whole block would be 2 x
    tracemalloc.start()
    try:
        x = sample_block(NoiseSpec("rademacher"), 2 ** 19, StreamKey(3, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.nbytes


def _t_overflow_probability(nu):
    """Exact P{|T| > DBL_MAX}: 2 c nu^((nu+1)/2) x^(-nu) / nu, the t tail, whose
    relative error nu / x^2 vanishes here; c is the t density's constant."""
    log_c = math.lgamma((nu + 1) / 2) - 0.5 * math.log(nu * math.pi) - math.lgamma(nu / 2)
    return 2.0 * math.exp(log_c + (nu + 1) / 2 * math.log(nu) - nu * math.log(sys.float_info.max)) / nu


@pytest.mark.parametrize("nu, mean", [(0.02, 0.6486), (0.01, 802.5)])
def test_student_t_is_infinite_only_beyond_the_largest_double(nu, mean):
    # 10^6 draws: about 0.65 infinities expected at nu = 0.02 and 802 at 0.01;
    # computing w^(-2/nu) directly gives about 830 and 29,000
    count = 1_000_000
    assert count * _t_overflow_probability(nu) == pytest.approx(mean, rel=1e-3)
    x = sample_block(NoiseSpec("student_t", (nu,)), count, StreamKey(4099, "tiny dof"))
    assert not np.isnan(x).any()
    law = stats.poisson(count * _t_overflow_probability(nu))
    assert law.ppf(1e-6) <= np.isinf(x).sum() <= law.isf(1e-6)


@pytest.mark.parametrize("nu", [0.005, 0.7, 40.0])
def test_student_t_follows_the_polar_map_in_log_space(nu):
    # reference: log|T| = log(nu)/2 - log(w)/nu + log(1 - w^(2/nu))/2 + log|cos(2 pi v)|
    # from the key's own uniforms, w = 1 - u at 0..count-1 and v at count..2 count-1
    count = 100_000
    key = StreamKey(8191, "polar", n=3)
    x = sample_block(NoiseSpec("student_t", (nu,)), count, key)
    u = generator_for(key).random(2 * count)
    log_w, cos = np.log1p(-u[:count]), np.cos(2.0 * math.pi * u[count:])
    with np.errstate(divide="ignore"):
        log_t = 0.5 * math.log(nu) - log_w / nu + 0.5 * np.log(-np.expm1(2.0 * log_w / nu)) + np.log(np.abs(cos))
    overflow = log_t > math.log(sys.float_info.max)
    assert np.array_equal(np.isinf(x), overflow)
    assert np.array_equal(np.signbit(x[x != 0]), np.signbit(cos[x != 0]))
    with np.errstate(divide="ignore"):
        np.testing.assert_allclose(np.log(np.abs(x[~overflow])), log_t[~overflow], rtol=0, atol=1e-11)


# 1 - u at the largest uniform k 2^-53 that the generator returns
W_MIN = 2.0 ** -53


def extreme_draw(spec):
    """|theta| of each family's transform at its extreme uniform, in plain floats."""
    if spec.family == "normal":
        return math.sqrt(-2.0 * math.log(W_MIN))
    if spec.family == "rademacher":
        return 1.0
    if spec.family == "uniform":
        return spec.params[0]  # |c (2 u - 1)| at u = 0
    if spec.family == "student_t":
        (nu,) = spec.params
        return math.sqrt(nu) * W_MIN ** (-1.0 / nu) * math.sqrt(1.0 - W_MIN ** (2.0 / nu))
    alpha, x_min = spec.params
    return x_min * W_MIN ** (-1.0 / alpha)


BOUNDED = [
    NoiseSpec("normal"), NoiseSpec("rademacher"), NoiseSpec("uniform", (2.5,)),
    NoiseSpec("student_t", (1.0,)), NoiseSpec("student_t", (3.0,)),
    NoiseSpec("pareto", (0.5, 2.0)), NoiseSpec("pareto", (3.0, 1.0)),
]


@pytest.mark.parametrize("spec", BOUNDED, ids=lambda s: f"{s.family}{s.params}")
def test_abs_bound_holds_for_every_draw(spec):
    # 1e-12 in log2 for rounding, far inside the scan rule's factor 2
    bound = _log2_abs_bound(spec)
    assert math.log2(extreme_draw(spec)) <= bound + 1e-12
    draws = sample_block(spec, 10 ** 6, StreamKey(17, "bound"))
    assert math.log2(np.max(np.abs(draws))) <= bound
    assert bound < math.log2(SET_ASIDE) - 1  # so estimate never scans this noise


def test_abs_bound_scans_the_noise_that_can_reach_the_set_aside():
    # pareto 0.01, which the set-aside tests of test_estimate draw from, and
    # student_t 0.05 reach 2^512; in log2 their bounds stay finite
    reach = [NoiseSpec("pareto", (0.01, 1.0)), NoiseSpec("student_t", (0.05,)), NoiseSpec("uniform", (2.0 ** 600,))]
    for spec in reach:
        assert math.log2(SET_ASIDE) - 1 < _log2_abs_bound(spec) < math.inf

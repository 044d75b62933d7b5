"""Symmetric innovation families: analytic moments and keyed sampling.

Every family is symmetric about zero.  Sampling is fully deterministic:
a StreamKey (master seed, purpose tag, sequence length n, block index)
is hashed into a PCG64 stream, and each family is produced by a fixed
numpy transform of that stream's output (uniforms, or raw bits for
rademacher), so the same key always yields the same block on any worker.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence  # at import: numpy loads it lazily, at first use

from .errors import InvalidOrder, InvalidParameters


# Each family's parameters, in NoiseSpec.params order; all must be finite and > 0.
# The keys are the config-file spellings of the families.
_PARAMS = {
    "normal": (),
    "rademacher": (),
    "uniform": ("half_width",),
    "student_t": ("dof",),
    "pareto": ("alpha", "x_min"),
}


@dataclass(frozen=True)
class NoiseSpec:
    """A distribution choice plus its parameters.

    uniform:  params = (half_width,), support (-c, c)
    student_t: params = (dof,)
    pareto:   params = (alpha, x_min), density ~ |x|^(-alpha-1) beyond x_min
    normal / rademacher: no parameters
    """

    family: str
    params: tuple = ()

    def __post_init__(self):
        names = _PARAMS.get(self.family)
        if names is None:
            raise InvalidParameters(f"noise.family must be one of {sorted(_PARAMS)}, got {self.family!r}")
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if len(params) != len(names):
            raise InvalidParameters(
                f"noise.family {self.family!r} takes exactly {len(names)} parameter(s), got {len(params)}"
            )
        if not all(p > 0 and math.isfinite(p) for p in params):
            raise InvalidParameters(f"{self.family} needs " + " and ".join(f"{name} > 0" for name in names))

    @classmethod
    def standard_normal(cls) -> "NoiseSpec":
        return cls("normal")

    @classmethod
    def rademacher(cls) -> "NoiseSpec":
        return cls("rademacher")

    @classmethod
    def uniform(cls, half_width: float) -> "NoiseSpec":
        return cls("uniform", (half_width,))

    @classmethod
    def student_t(cls, dof: float) -> "NoiseSpec":
        return cls("student_t", (dof,))

    @classmethod
    def symmetric_pareto(cls, alpha: float, x_min: float) -> "NoiseSpec":
        return cls("pareto", (alpha, x_min))


def absolute_moment(spec: NoiseSpec, r: float) -> float:
    """Closed-form E|theta|^r for r > 0; math.inf when it diverges.

    normal:     2^(r/2) * Gamma((r+1)/2) / sqrt(pi)
    rademacher: 1
    uniform:    c^r / (r + 1)
    student_t:  nu^(r/2) * B((r+1)/2, (nu-r)/2) / B(1/2, nu/2), finite iff r < nu
    pareto:     alpha * x_min^r / (alpha - r), finite iff r < alpha
    """
    r = float(r)
    if not (r > 0 and math.isfinite(r)):
        raise InvalidOrder(f"moment order must satisfy r > 0, got {r}")
    fam = spec.family
    if fam == "normal":
        return math.exp(0.5 * r * math.log(2.0) + math.lgamma((r + 1.0) / 2.0) - 0.5 * math.log(math.pi))
    if fam == "rademacher":
        return 1.0
    if fam == "uniform":
        (c,) = spec.params
        return c ** r / (r + 1.0)
    if fam == "student_t":
        (nu,) = spec.params
        if r >= nu:
            return math.inf
        log_val = (
            0.5 * r * math.log(nu)
            + math.lgamma((r + 1.0) / 2.0)
            + math.lgamma((nu - r) / 2.0)
            - 0.5 * math.log(math.pi)
            - math.lgamma(nu / 2.0)
        )
        return math.exp(log_val)
    alpha, x_min = spec.params
    if r >= alpha:
        return math.inf
    return alpha * x_min ** r / (alpha - r)


# --- deterministic streams -------------------------------------------------

_FNV_OFFSET64 = 0xCBF29CE484222325
_FNV_PRIME64 = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def _as_whole(value, what: str) -> int:
    """value as an int, refused unless it is a whole number: 1e5 is, 2.5, nan, inf and "3" are not."""
    if isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise InvalidParameters(f"{what} must be a whole number, got {value!r}")


def _as_seed(seed) -> int:
    seed = _as_whole(seed, "seed")
    if not 0 <= seed <= _U64:
        raise InvalidParameters(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET64
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME64) & _U64
    return h


@dataclass(frozen=True)
class StreamKey:
    """Address of one block of random draws.

    purpose separates independent uses of the same master seed (the
    estimation paths, probe paths, ...); n and block index the grid
    point or chunk and the replication block inside a purpose.
    """

    master_seed: int
    purpose: str
    n: int = 0
    block: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _as_seed(self.master_seed))
        if int(self.n) < 0 or int(self.block) < 0:
            raise InvalidParameters("n and block must be >= 0")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "block", int(self.block))


def generator_for(key: StreamKey) -> Generator:
    """PCG64 generator derived from (master_seed, purpose, n, block).

    The purpose tag enters through FNV-1a so that distinct tags give
    unrelated streams; the remaining fields feed the seed sequence
    directly.  The derivation is fixed and forms part of the on-disk
    reproducibility contract.
    """
    entropy = [key.master_seed, _fnv1a64(key.purpose.encode("utf-8")), key.n, key.block]
    return Generator(PCG64(SeedSequence(entropy)))


# exp(x) is finite for every x <= 709 (the largest double is e^709.78...).
_EXP_FINITE = 709.0


def sample_block(
    spec: NoiseSpec, count: int, stream_key: StreamKey, start: int = 0, total: int | None = None
) -> np.ndarray:
    """Draw `count` innovations for the given key.

    Every family is a fixed numpy transform of the PCG64 stream:
    inversion of uniforms for uniform and pareto, the trigonometric pair
    map sqrt(-2 log u1) * (cos, sin)(2 pi u2) for the standard normal,
    Bailey's polar map without rejection for Student-t,
    T = sqrt(nu) * w^(-1/nu) * sqrt(1 - w^(2/nu)) * cos(2 pi v) with
    w = 1 - u1 (exact, not a quantile approximation), and one raw bit
    per sign for rademacher (bit v % 64 of 64-bit word v // 64).
    Calling twice with the same key is bit-identical.

    The block of `total` draws (default `start + count`) under this key
    is fixed; the call returns its values start .. start + count - 1,
    bit for bit, reaching each uniform or word it needs with
    bit_generator.advance instead of drawing the ones before it.
    """
    count = int(count)
    start = int(start)
    total = start + count if total is None else int(total)
    if count < 0 or start < 0 or start + count > total:
        raise InvalidParameters(f"need 0 <= start <= start + count <= total, got {start}, {count}, {total}")
    rng = generator_for(stream_key)
    advance = rng.bit_generator.advance  # one 64-bit step per double or raw word
    fam = spec.family
    if fam == "normal":
        # value v is the cos (v even) or sin (v odd) half of pair v // 2,
        # whose uniforms sit at v // 2 and pairs + v // 2 of the stream
        pairs, first, stop = (total + 1) // 2, start // 2, (start + count + 1) // 2
        advance(first)
        radius = rng.random(stop - first)
        advance(pairs + first - stop)
        angle = rng.random(stop - first)
        # sqrt(-2 log1p(-u1)) and (2 pi) u2, computed in place: the same bits
        # with fewer temporaries, which a long run pays for in page faults
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)  # 1 - u in (0, 1], no log(0)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * math.pi
        out = np.empty(2 * (stop - first))
        np.multiply(radius, np.cos(angle), out=out[0::2])
        np.multiply(radius, np.sin(angle, out=angle), out=out[1::2])
        return out[start - 2 * first : start - 2 * first + count]
    if fam == "rademacher":
        # value v is bit v % 64 (least significant first) of raw word v // 64
        first = start // 64
        advance(first)
        words = rng.bit_generator.random_raw((start + count + 63) // 64 - first)
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
        out = np.empty(count)
        np.multiply(bits[start - 64 * first : start - 64 * first + count], -2.0, out=out)
        out += 1.0
        return out
    advance(start)
    if fam == "uniform":
        (c,) = spec.params
        # c * (2 u - 1), in place
        out = rng.random(count)
        out *= 2.0
        out -= 1.0
        out *= c
        return out
    # student_t and pareto: first uniforms at 0 .. total - 1 of the stream, second at total .. 2 total - 1
    if fam == "student_t":
        (nu,) = spec.params
        # T = exp(log(nu) / 2 - log(w) / nu) * sqrt(-expm1(2 log(w) / nu)) * cos(2 pi v),
        # in log space: w^(-2/nu) would overflow long before T does
        out = rng.random(count)
        np.negative(out, out=out)
        np.log1p(out, out=out)  # log w, w = 1 - u in (0, 1]
        factor = np.multiply(out, 2.0 / nu)
        np.expm1(factor, out=factor)
        np.negative(factor, out=factor)
        np.sqrt(factor, out=factor)
        out *= -1.0 / nu
        out += 0.5 * math.log(nu)
        advance(total - count)
        angle = rng.random(count)
        angle *= 2.0 * math.pi
        np.cos(angle, out=angle)
        factor *= angle  # |factor| <= 1
        # where exp of the exponent alone may overflow, fold log|factor| in
        # first, so that T is infinite only when |T| exceeds the largest double
        big = np.flatnonzero(out > _EXP_FINITE)
        big_log = out[big] + np.log(np.abs(factor[big]))
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
            out *= factor
            out[big] = np.copysign(np.exp(big_log), factor[big])
        return out
    # pareto: x_min * (1 - u1)^(-1/alpha), negated when u2 >= 1/2, in place
    alpha, x_min = spec.params
    out = rng.random(count)
    np.subtract(1.0, out, out=out)  # 1 - u in (0, 1]
    with np.errstate(over="ignore"):  # beyond the largest double the draw is +inf, as intended
        np.power(out, -1.0 / alpha, out=out)
        out *= x_min
    advance(total - count)
    sign = rng.random(count)
    np.negative(out, out=out, where=sign >= 0.5)
    return out

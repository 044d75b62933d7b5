"""Line-oriented experiment configs.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Recognized keys:

    a, b            recursion coefficients (must be stable)
    p, r, epsilon   series exponents and threshold
    noise.family    normal | rademacher | uniform | student_t | pareto
    noise.param1    half_width (uniform), dof (student_t), alpha (pareto)
    noise.param2    x_min (pareto)
    grid_max        largest n evaluated            [default 128]
    replications    Monte Carlo replications per n [default 100000]
    seed            64-bit unsigned master seed    [default 1]
    output          prefix for result files        [default "results"]

Unknown or duplicate keys are parse errors; values that break a
documented invariant are validation errors naming the condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameters, NonFiniteInput, ParseError, UnstableCoefficients, ValidationError
from .estimate import SeriesParams, _as_replications
from .noise import NoiseSpec, _as_seed
from .recurrence import ARCoefficients, require_stable

# Raw values of the optional keys, parsed like values read from a file.
_DEFAULTS = {"grid_max": "128", "replications": "100000", "seed": "1", "output": "results"}

_REQUIRED = ("a", "b", "p", "r", "epsilon", "noise.family")

_KEYS = _REQUIRED + ("noise.param1", "noise.param2", "grid_max", "replications", "seed", "output")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs for one full series run.

    Checked on construction, so dataclasses.replace re-validates.
    """

    coeffs: ARCoefficients
    noise: NoiseSpec
    params: SeriesParams
    grid_max: int
    replications: int
    master_seed: int
    output_path: str

    def __post_init__(self):
        try:
            require_stable(self.coeffs, "config")
            _as_replications(self.replications)
            _as_seed(self.master_seed)
        except (UnstableCoefficients, InvalidParameters) as exc:
            raise ValidationError(str(exc)) from None
        if self.grid_max < 1:
            raise ValidationError(f"grid_max must be >= 1, got {self.grid_max}")
        if not self.output_path:
            raise ValidationError("output must be a non-empty path prefix")


def _parse_number(key: str, raw: str, line: int | None, kind: type):
    """raw as a float or (base-10) int; ParseError names the key and line."""
    try:
        return float(raw) if kind is float else int(raw, 10)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ParseError(f"key {key!r} needs {noun}, got {raw!r}", line) from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate config text; see the module docstring."""
    raw: dict = {}
    lines: dict = {}
    for lineno, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {full_line.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ParseError(f"duplicate key {key!r} (first set on line {lines[key]})", lineno)
        if not value:
            raise ParseError(f"key {key!r} has no value", lineno)
        raw[key] = value
        lines[key] = lineno

    for key in _REQUIRED:
        if key not in raw:
            raise ValidationError(f"missing required key {key!r}")

    raw = {**_DEFAULTS, **raw}
    a = _parse_number("a", raw["a"], lines["a"], float)
    b = _parse_number("b", raw["b"], lines["b"], float)
    p = _parse_number("p", raw["p"], lines["p"], float)
    r = _parse_number("r", raw["r"], lines["r"], float)
    epsilon = _parse_number("epsilon", raw["epsilon"], lines["epsilon"], float)
    grid_max = _parse_number("grid_max", raw["grid_max"], lines.get("grid_max"), int)
    replications = _parse_number("replications", raw["replications"], lines.get("replications"), int)
    seed = _parse_number("seed", raw["seed"], lines.get("seed"), int)
    noise_params = tuple(
        _parse_number(key, raw[key], lines[key], float)
        for key in ("noise.param1", "noise.param2")
        if key in raw
    )

    try:
        noise = NoiseSpec(raw["noise.family"], noise_params)
        coeffs = ARCoefficients(a, b)
        params = SeriesParams(p=p, r=r, epsilon=epsilon)
    except (InvalidParameters, NonFiniteInput) as exc:
        raise ValidationError(str(exc)) from None

    return ExperimentConfig(
        coeffs=coeffs,
        noise=noise,
        params=params,
        grid_max=grid_max,
        replications=replications,
        master_seed=seed,
        output_path=raw["output"],
    )


def parse_config(path) -> ExperimentConfig:
    """Read a config file (UTF-8) and parse it."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def render_config(config: ExperimentConfig) -> str:
    """Write a config back out; parse_config_text inverts this exactly."""
    fmt = lambda x: format(x, ".17g")
    out = [
        f"a = {fmt(config.coeffs.a)}",
        f"b = {fmt(config.coeffs.b)}",
        f"p = {fmt(config.params.p)}",
        f"r = {fmt(config.params.r)}",
        f"epsilon = {fmt(config.params.epsilon)}",
        f"noise.family = {config.noise.family}",
    ]
    for i, value in enumerate(config.noise.params, start=1):
        out.append(f"noise.param{i} = {fmt(value)}")
    out.append(f"grid_max = {config.grid_max}")
    out.append(f"replications = {config.replications}")
    out.append(f"seed = {config.master_seed}")
    out.append(f"output = {config.output_path}")
    return "\n".join(out) + "\n"

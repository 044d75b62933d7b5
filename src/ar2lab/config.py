"""Line-oriented experiment configs.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Recognized keys:

    a, b            recursion coefficients (must be stable)
    p, r, epsilon   series exponents and threshold
    noise.family    normal | rademacher | uniform | student_t | pareto
    noise.param1    half_width (uniform), dof (student_t), alpha (pareto)
    noise.param2    x_min (pareto); needs noise.param1
    grid_max        largest n evaluated            [default 128]
    replications    Monte Carlo replications per n [default 100000]
    seed            64-bit unsigned master seed    [default 1]
    output          prefix for result files        [default "results"]

Unknown or duplicate keys and files that are not UTF-8 are parse errors;
values that break a documented invariant are validation errors naming
the condition.
"""

from __future__ import annotations

from .errors import InvalidParameters, NonFiniteInput, ParseError, UnstableCoefficients, ValidationError
from .estimate import SeriesParams, _as_replications
from .noise import NoiseSpec, _as_seed, _as_whole, _Record
from .recurrence import ARCoefficients, require_stable

# Raw values of the optional keys, parsed like values read from a file.
_DEFAULTS = {"grid_max": "128", "replications": "100000", "seed": "1", "output": "results"}

_REQUIRED = ("a", "b", "p", "r", "epsilon", "noise.family")

# Every key with the type its value is read as, in parse order.
_KEYS = {
    "a": float, "b": float, "p": float, "r": float, "epsilon": float,
    "grid_max": int, "replications": int, "seed": int, "noise.param1": float, "noise.param2": float,
    "noise.family": str, "output": str,
}


class ExperimentConfig(_Record):
    """Validated inputs for one full series run.

    Checked on construction, so replace, which builds a new config,
    re-validates.
    """

    __slots__ = ("coeffs", "noise", "params", "grid_max", "replications", "master_seed", "output_path")

    def __init__(self, coeffs: ARCoefficients, noise: NoiseSpec, params: SeriesParams, grid_max: int,
                 replications: int, master_seed: int, output_path: str):
        try:
            require_stable(coeffs, "config")
            replications = _as_replications(replications)
            master_seed = _as_seed(master_seed)
            grid_max = _as_whole(grid_max, "grid_max")
        except (UnstableCoefficients, InvalidParameters) as exc:
            raise ValidationError(str(exc)) from None
        if grid_max < 1:
            raise ValidationError(f"grid_max must be >= 1, got {grid_max}")
        if not output_path:
            raise ValidationError("output must be a non-empty path prefix")
        super().__init__(coeffs, noise, params, grid_max, replications, master_seed, output_path)

    def replace(self, **changes) -> ExperimentConfig:
        """A new config with the named fields changed, validated like any other (the CLI overrides)."""
        return ExperimentConfig(**dict(zip(self.__slots__, self._values()), **changes))


def _parse_value(key: str, raw: str, line: int | None, kind: type):
    """raw read as kind (str, float or base-10 int); ParseError names the key and line."""
    try:
        return kind(raw)
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
    values = {key: _parse_value(key, raw[key], lines.get(key), kind) for key, kind in _KEYS.items() if key in raw}
    if "noise.param2" in values and "noise.param1" not in values:
        raise ValidationError("noise.param2 needs noise.param1")

    noise_params = tuple(values[key] for key in ("noise.param1", "noise.param2") if key in values)
    try:
        noise = NoiseSpec(values["noise.family"], noise_params)
        coeffs = ARCoefficients(values["a"], values["b"])
        params = SeriesParams(p=values["p"], r=values["r"], epsilon=values["epsilon"])
    except (InvalidParameters, NonFiniteInput) as exc:
        raise ValidationError(str(exc)) from None

    return ExperimentConfig(
        coeffs=coeffs,
        noise=noise,
        params=params,
        grid_max=values["grid_max"],
        replications=values["replications"],
        master_seed=values["seed"],
        output_path=values["output"],
    )


def parse_config(path) -> ExperimentConfig:
    """Read a config file (UTF-8) and parse it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_config_text(text)

"""Run configuration: the knob table, file parsing, manifest echoing.

Every knob is a `RunConfig` field, and each is both a config-file key
and a flag under one name: `population_size` in a file is
`--population-size` on the command line. Eight knobs also have a short
alias, accepted in both places: np, nfe, f, cr, jr, cp, k, lr (so
`-k`/`--folds` and `k = 5` set the fold count). Flag values are text,
parsed exactly as file values are.

Config files are line-oriented `key = value` text; '#' starts a
comment. An unknown key, or a knob set twice (`k = 5`, then `folds =
7`), is rejected rather than ignored or overwritten, so a typo cannot
silently fall back to a default, nor a repeat keep its last value.
"""

from dataclasses import dataclass, fields, replace

from .errors import ParameterError
from .io import _read_text
from .local_search import METHODS, LocalSearchConfig
from .mlp import MlpTopology
from .optimizer import CodelConfig

__all__ = ["RunConfig", "parse_config", "ALIASES"]

ALIASES = {
    "np": "population_size",
    "nfe": "nfe_max",
    "f": "scale_factor",
    "cr": "crossover_rate",
    "jr": "jumping_rate",
    "cp": "clustering_period",
    "k": "folds",
    "lr": "learning_rate",
}


def _parse_hidden(text):
    try:
        sizes = tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError:
        raise ParameterError(f"hidden must be comma-separated integers, got {text!r}") from None
    if not sizes:
        raise ParameterError("hidden needs at least one layer size")
    return sizes


@dataclass(frozen=True)
class RunConfig:
    """Every knob a pipeline command can consume, fully resolved.

    Optimizer and refiner knobs default to their owners' defaults; the
    method, which no owner holds, to cgpr. A value given as text is
    parsed as a config file's value is, so `hidden="12"` is (12,) and
    bad text raises ParameterError naming its field.
    """

    seed: int | None = None
    population_size: int = CodelConfig.population_size
    nfe_max: int = CodelConfig.nfe_max
    scale_factor: float = CodelConfig.scale_factor
    crossover_rate: float = CodelConfig.crossover_rate
    jumping_rate: float = CodelConfig.jumping_rate
    clustering_period: int = CodelConfig.clustering_period
    lower: float = CodelConfig.lower
    upper: float = CodelConfig.upper
    folds: int = 10
    method: str = "cgpr"
    hidden: tuple = (10,)
    epochs: int = LocalSearchConfig.epochs
    patience: int = LocalSearchConfig.patience
    learning_rate: float = LocalSearchConfig.learning_rate
    momentum: float = LocalSearchConfig.momentum
    jobs: int = 1

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _coerce(f.name, getattr(self, f.name)))
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.folds < 2:
            raise ParameterError("folds must be >= 2")
        if self.jobs < 1:
            raise ParameterError("jobs must be >= 1")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        # Delegate the checks of the layer sizes and of the optimizer
        # and refiner knobs to their owners.
        MlpTopology((1, *self.hidden, 1))
        self.codel_config()
        self.local_search_config()

    def _owned(self, owner):
        """`owner` built from the fields of the same name."""
        return owner(**{f.name: getattr(self, f.name) for f in fields(owner)
                        if f.name in self.__dataclass_fields__})

    def codel_config(self) -> CodelConfig:
        return self._owned(CodelConfig)

    def local_search_config(self) -> LocalSearchConfig:
        return self._owned(LocalSearchConfig)

    def manifest_lines(self):
        """The resolved settings as `key=value` strings, field order.

        The worker count is omitted: it never shapes the results, and
        leaving it out keeps outputs byte-identical across any `jobs`
        setting.
        """
        out = []
        for f in fields(self):
            if f.name == "jobs":
                continue
            value = getattr(self, f.name)
            if f.name == "hidden":
                value = ",".join(str(h) for h in value)
            out.append(f"{f.name}={value}")
        return out


# Text parser per field: the type of its default, except for the seed
# (default None) and the comma-separated hidden layer sizes.
_PARSERS = {f.name: type(f.default) for f in fields(RunConfig)}
_PARSERS.update(seed=int, hidden=_parse_hidden)


def _coerce(key: str, value):
    if not isinstance(value, str):
        return value
    try:
        return _PARSERS[key](value)
    except ValueError:
        raise ParameterError(f"bad value for {key}: {value!r}") from None


def _resolve_key(key: str) -> str:
    canonical = ALIASES.get(key, key)
    if canonical not in _PARSERS:
        raise ParameterError(f"unknown config key: {key}")
    return canonical


def _read_config_file(path):
    values, set_on = {}, {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _resolve_key(key)
        if key in set_on:
            raise ParameterError(f"{path}:{lineno}: {key} already set on line {set_on[key]}")
        values[key], set_on[key] = value, lineno
    return values


def parse_config(file=None, **overrides) -> RunConfig:
    """Resolve a RunConfig from an optional file plus flag overrides.

    Overrides (typically CLI flags) win over file values; both win over
    defaults. A seed must come from one of them.
    """
    values = _read_config_file(file) if file is not None else {}
    for key, value in overrides.items():
        if value is None:
            continue
        values[_resolve_key(key)] = value
    config = RunConfig(**values)
    if config.seed is None:
        raise ParameterError("a seed is required (pass --seed or set seed in the config)")
    return replace(config, seed=int(config.seed))

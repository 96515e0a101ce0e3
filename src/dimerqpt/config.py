"""Experiment configuration: defaults, validation, JSON round trip.

A configuration bundles the dimer, bath, pulse toolbox, ensemble and run
settings.  The shipped defaults reproduce the reference numerical example
(site energies 12881 and 12719 cm^-1, coupling 120 cm^-1, Ohmic bath with
30 cm^-1 reorganization energy and 120 cm^-1 cutoff at 298 K, 40 fs pulses
at 13480 and 12130 cm^-1, a 30-point waiting-time grid from 120 to 700 fs
and a 10^4-member ensemble with 40 cm^-1 diagonal disorder).
"""

import dataclasses
from dataclasses import dataclass
import json
import math
from numbers import Real
import sys

from .bath import BathParams
from .ensemble import EnsembleSpec
from .errors import ConfigError
from .model import DimerParams
from .pulses import PulseToolbox

DEFAULT_GAMMAS = (0.0, 0.5, 1.0, 1.5, 2.0)

# integer fields of the sections, with their least values
_INTEGERS = {"ensemble.n_members": 1, "ensemble.seed": 0}


def gamma_tag(gamma):
    """The text naming ``gamma`` in file names: ``*_gamma<tag>.csv``."""
    return f"{gamma:g}"


def _require_finite(where, value):
    """Raise ConfigError naming ``where`` unless ``value`` is a real number
    that a double holds finite (a bool is not one, nor an int of 10**309)."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulation / reconstruction run."""

    dimer: DimerParams
    bath: BathParams
    toolbox: PulseToolbox
    ensemble: EnsembleSpec
    t_grid: tuple
    gamma_list: tuple = DEFAULT_GAMMAS
    noise: float = None
    verbatim_terms: bool = False
    homogeneous_only: bool = False
    output_dir: str = "out"

    def __post_init__(self):
        for k, t in enumerate(self.t_grid):
            # a finite float passes without the slower Real check
            if type(t) is not float or not math.isfinite(t):
                _require_finite(f"t_grid[{k}]", t)
        if self.noise is not None:
            _require_finite("noise", self.noise)
        grid = tuple(float(t) for t in self.t_grid)
        for k, g in enumerate(self.gamma_list):
            _require_finite(f"gamma_list[{k}]", g)
        object.__setattr__(self, "t_grid", grid)
        # + 0.0 turns -0.0 into 0.0, which names the same files
        object.__setattr__(self, "gamma_list",
                           tuple(float(g) + 0.0 for g in self.gamma_list))
        if len(grid) == 0:
            raise ConfigError("t_grid: must contain at least one waiting time")
        floor = 3.0 * self.toolbox.pulse_width_sigma
        if grid[0] < floor:
            raise ConfigError(
                f"t_grid: waiting times must be >= 3 sigma = {floor} fs, "
                f"got {grid[0]}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("t_grid: must be strictly increasing")
        if not self.gamma_list:
            raise ConfigError("gamma_list: must be nonempty")
        tags = [gamma_tag(g) for g in self.gamma_list]
        for k, g in enumerate(self.gamma_list):
            if not 0.0 <= g <= 2.0:
                raise ConfigError(f"gamma_list: value {g} outside [0, 2]")
            first = tags.index(tags[k])     # one file per tag
            if first < k:
                raise ConfigError(
                    f"gamma_list: entries {first} ({self.gamma_list[first]!r})"
                    f" and {k} ({g!r}) share the file tag gamma{tags[k]}")
        if self.noise is not None and self.noise < 0:
            raise ConfigError("noise: relative width must be >= 0")
        if self.output_dir == "":
            raise ConfigError("output_dir: must name a directory, got ''")


def default_config(output_dir="out") -> ExperimentConfig:
    """The reference parameter set, homogeneous flag off."""
    return ExperimentConfig(
        dimer=DimerParams(site_energy_1=12881.0, site_energy_2=12719.0,
                          coupling_j=120.0),
        bath=BathParams(reorganization_energy=30.0, cutoff_freq=120.0,
                        temperature=298.0),
        toolbox=PulseToolbox(freq_plus=13480.0, freq_minus=12130.0,
                             pulse_width_sigma=40.0),
        ensemble=EnsembleSpec(n_members=10000, sigma_inh=40.0, seed=12345),
        t_grid=tuple(120.0 + 20.0 * k for k in range(30)),
        output_dir=output_dir,
    )


# kinds of the run-level keys that are checked, and how messages name them
_KINDS = {"t_grid": ((list, tuple), "a list of numbers"),
          "gamma_list": ((list, tuple), "a list of numbers"),
          "verbatim_terms": (bool, "true or false"),
          "homogeneous_only": (bool, "true or false"),
          "output_dir": (str, "a string")}


def config_to_dict(config: ExperimentConfig) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in dataclasses.asdict(config).items()}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a configuration; unknown keys are rejected.

    The keys are the fields of ExperimentConfig: a section (a dataclass
    field) is an object of its class's fields, and a run-level key that is
    left out takes the field's default.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    fields = dataclasses.fields(ExperimentConfig)
    known = {f.name for f in fields}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration key")
    kwargs = {}
    for f in fields:
        name, cls = f.name, f.type
        is_section = dataclasses.is_dataclass(cls)
        if name not in data:
            if f.default is dataclasses.MISSING:
                raise ConfigError(f"{name}: missing configuration "
                                  + ("section" if is_section else "key"))
            continue
        value = kwargs[name] = data[name]
        if name in _KINDS and not isinstance(value, _KINDS[name][0]):
            raise ConfigError(f"{name}: must be {_KINDS[name][1]}, "
                              f"got {value!r}")
        if not is_section:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{name}: must be an object")
        section_fields = {g.name for g in dataclasses.fields(cls)}
        for key, item in value.items():
            where = f"{name}.{key}"
            if key not in section_fields:
                raise ConfigError(f"{where}: unknown field")
            _require_finite(where, item)
            least = _INTEGERS.get(where)
            if least is not None and not (isinstance(item, int)
                                          and item >= least):
                raise ConfigError(f"{where}: must be an integer >= {least}, "
                                  f"got {item!r}")
        try:
            kwargs[name] = cls(**value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def read_json(path, error):
    """The JSON value in the UTF-8 text file ``path``.  Bytes that are not
    UTF-8, text that is not JSON, an integer of too many digits or nesting
    too deep for the parser raise ``error`` naming ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: invalid JSON ({exc})") from exc


def write_json(path, value):
    """Write ``value`` to ``path`` as JSON: keys sorted, two-space indent
    and a final newline."""
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path, ConfigError))


def save_config(config: ExperimentConfig, path):
    write_json(path, config_to_dict(config))

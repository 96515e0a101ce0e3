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

from .bath import BathParams
from .ensemble import EnsembleSpec
from .errors import ConfigError
from .model import DimerParams
from .pulses import PulseToolbox

DEFAULT_GAMMAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _require_finite(where, value):
    """Raise ConfigError naming ``where`` unless ``value`` is a finite real
    number (a bool is not one)."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not math.isfinite(value)):
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
        object.__setattr__(self, "gamma_list",
                           tuple(float(g) for g in self.gamma_list))
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
        for g in self.gamma_list:
            if not 0.0 <= g <= 2.0:
                raise ConfigError(f"gamma_list: value {g} outside [0, 2]")
        if self.noise is not None and self.noise < 0:
            raise ConfigError("noise: relative width must be >= 0")


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


_SECTIONS = {
    "dimer": DimerParams,
    "bath": BathParams,
    "toolbox": PulseToolbox,
    "ensemble": EnsembleSpec,
}


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {}
    for name, cls in _SECTIONS.items():
        out[name] = dataclasses.asdict(getattr(config, name))
    out["t_grid"] = list(config.t_grid)
    out["gamma_list"] = list(config.gamma_list)
    out["noise"] = config.noise
    out["verbatim_terms"] = config.verbatim_terms
    out["homogeneous_only"] = config.homogeneous_only
    out["output_dir"] = config.output_dir
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a configuration; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    known = set(_SECTIONS) | {"t_grid", "gamma_list", "noise",
                              "verbatim_terms", "homogeneous_only",
                              "output_dir"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration key")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name not in data:
            raise ConfigError(f"{name}: missing configuration section")
        section = data[name]
        if not isinstance(section, dict):
            raise ConfigError(f"{name}: must be an object")
        fields = {f.name for f in dataclasses.fields(cls)}
        for key, value in section.items():
            if key not in fields:
                raise ConfigError(f"{name}.{key}: unknown field")
            _require_finite(f"{name}.{key}", value)
        try:
            kwargs[name] = cls(**section)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    if "t_grid" not in data:
        raise ConfigError("t_grid: missing configuration key")
    run = {"t_grid": data["t_grid"],
           "gamma_list": data.get("gamma_list", DEFAULT_GAMMAS),
           "verbatim_terms": data.get("verbatim_terms", False),
           "homogeneous_only": data.get("homogeneous_only", False),
           "output_dir": data.get("output_dir", "out")}
    for key, kind, what in (("t_grid", (list, tuple), "a list of numbers"),
                            ("gamma_list", (list, tuple), "a list of numbers"),
                            ("verbatim_terms", bool, "true or false"),
                            ("homogeneous_only", bool, "true or false"),
                            ("output_dir", str, "a string")):
        if not isinstance(run[key], kind):
            raise ConfigError(f"{key}: must be {what}, got {run[key]!r}")
    return ExperimentConfig(noise=data.get("noise"), **run, **kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path):
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")

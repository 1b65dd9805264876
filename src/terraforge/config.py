"""Pipeline configuration: a plain-text INI file with one section per
subsystem. Every key is optional; defaults are the dataclass defaults of
the subsystem configs. `reference_text()` renders a fully commented
config with every default spelled out.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from .fusion import FusionConfig
from .mapping import LocalMapSpec, grid_cells
from .rewards import RewardWeights
from .sensors import NoiseConfig, ScanPattern, TrajectoryKind, TrajectorySpec
from .telemetry import parse_endpoint
from .terrain import Robot, TerrainSpec, TerrainType


@dataclass(frozen=True)
class PipelineConfig:
    terrain: TerrainSpec = field(default_factory=lambda: TerrainSpec(
        terrain_type=TerrainType.SLOPE, level=0, robot=Robot.LITE3))
    trajectory: TrajectorySpec = field(default_factory=lambda: TrajectorySpec(
        kind=TrajectoryKind.CONSTANT_VELOCITY, duration=5.0, speed=1.0))
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    local_map: LocalMapSpec = field(default_factory=LocalMapSpec)
    weights: RewardWeights = field(default_factory=RewardWeights)
    scan_pattern: ScanPattern = field(default_factory=ScanPattern)
    imu_hz: int = 200
    odom_hz: int = 10
    lidar_hz: int = 10
    policy_hz: int = 50
    map_size: float = 20.0
    map_resolution: float = 0.05
    desired_height: float = 0.4
    seed: int = 0
    endpoint: str | None = None

    def __post_init__(self):
        for name in ("imu_hz", "odom_hz", "lidar_hz", "policy_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.imu_hz % self.policy_hz != 0:
            raise ValueError("imu_hz must be divisible by policy_hz")
        grid_cells(self.map_size, self.map_resolution)

    @property
    def ticks_per_policy(self) -> int:
        return self.imu_hz // self.policy_hz


# INI section -> the PipelineConfig field it sets; [run] sets the
# PipelineConfig fields that no other section claims
_SECTIONS = {"terrain": "terrain", "trajectory": "trajectory", "noise": "noise",
             "fusion": "fusion", "local_map": "local_map", "rewards": "weights",
             "lidar": "scan_pattern", "run": None}
_KEYS = {"terrain_type": "type"}  # field name -> INI key, where they differ

_NOTES = {  # "section.key" -> comment in the reference listing
    "terrain.type": "tau1..tau5: slope, stones, stairs, gap, platform",
    "terrain.level": "curriculum level, 0..9",
    "terrain.robot": "lite3 | x30",
    "terrain.tile_size": "m, square tile side",
    "terrain.resolution": "m per cell",
    "terrain.seed": "stone placement seed",
    "trajectory.kind": "static | constant_velocity | circle | sinusoid",
    "trajectory.duration": "s",
    "trajectory.height_above_ground": "m, body z over the base plane; raise to clear tall terrain",
    "trajectory.speed": "m/s in [0, 3]",
    "trajectory.radius": "m, circle only",
    "trajectory.amplitude": "m, sinusoid vertical oscillation",
    "trajectory.frequency": "Hz, sinusoid only",
    "noise.gyro_std": "rad/s",
    "noise.accel_std": "m/s^2",
    "noise.odom_pos_std": "m per axis",
    "noise.odom_yaw_std": "rad",
    "noise.lidar_range_std": "m along the ray",
    "noise.map_noise_ratio": "fraction of local-map cells, [0, 0.1]",
    "noise.map_noise_magnitude": "m, uniform perturbation range",
    "noise.system_delay_ms": "ms, [0, 15], applied to sensor delivery",
    "fusion.gyro_noise": "rad/s/sqrt(Hz)",
    "fusion.accel_noise": "m/s^2/sqrt(Hz)",
    "fusion.odom_pos_std": "m",
    "fusion.odom_rot_std": "rad",
    "local_map.length_x": "m, leading 2/3 forward of the body",
    "lidar.elevation_min": "rad",
    "lidar.elevation_max": "rad",
    "lidar.max_range": "m",
    "lidar.ray_step": "m",
    "run.policy_hz": "imu_hz must divide evenly",
    "run.map_size": "m, rolling global map extent",
    "run.endpoint": "optional UDP telemetry target, host:port such as 127.0.0.1:9870",
}


def _pair(text: str) -> tuple[float, float]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


# field annotation -> parser of its INI value; the config modules all use
# `from __future__ import annotations`, so Field.type is the annotation text
_PARSERS = {
    "int": int, "float": float, "tuple[float, float]": _pair, "str | None": str,
    "TerrainType": TerrainType.from_name, "Robot": Robot.from_name,
    "TrajectoryKind": lambda s: TrajectoryKind(s.lower()),
}


def _schema(cfg: PipelineConfig):
    """Per INI section: its name, the PipelineConfig field it sets (None
    for [run]), the object holding its defaults, and its (key, field) rows."""
    for section, attr in _SECTIONS.items():
        owner = cfg if attr is None else getattr(cfg, attr)
        rows = [(_KEYS.get(f.name, f.name), f) for f in fields(owner)
                if attr is not None or f.name not in _SECTIONS.values()]
        yield section, attr, owner, rows


def load_config(path_or_text, *, is_text: bool = False) -> PipelineConfig:
    """Parse an INI config; unknown sections or keys, and malformed INI,
    are ValueErrors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if is_text:
            parser.read_string(path_or_text)
        else:
            with open(path_or_text) as f:
                parser.read_file(f)
        given = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as e:  # reading a value interpolates it
        raise ValueError(str(e)) from e

    stray = set(given) - set(_SECTIONS)
    if stray:
        raise ValueError(f"unknown section(s): {sorted(stray)}")
    parts = {}
    for section, attr, owner, rows in _schema(PipelineConfig()):
        values = given.get(section, {})
        unknown = set(values) - {key for key, _ in rows}
        if unknown:
            raise ValueError(f"unknown key(s) in [{section}]: {sorted(unknown)}")
        kwargs = {f.name: _PARSERS[f.type](values[key]) for key, f in rows if key in values}
        if attr is None:
            parts.update(kwargs)
        else:
            parts[attr] = replace(owner, **kwargs)
    if parts.get("endpoint") is not None:
        parse_endpoint(parts["endpoint"])  # raises ValueError unless host:port
    return PipelineConfig(**parts)


def _render(value) -> str:
    if isinstance(value, Enum):
        return value.name.lower()
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return str(value)  # a float's str is its shortest round-tripping repr


def reference_text() -> str:
    """Annotated config listing every key at its default value; it loads
    back to exactly PipelineConfig(). A key whose default is None is
    shown commented out."""
    lines = ["# pipeline configuration reference; every key optional, defaults shown"]
    for section, _, owner, rows in _schema(PipelineConfig()):
        lines += ["", f"[{section}]"]
        for key, f in rows:
            value = getattr(owner, f.name)
            line = f"# {key} =" if value is None else f"{key} = {_render(value)}"
            note = _NOTES.get(f"{section}.{key}")
            lines.append(f"{line:<26} # {note}" if note else line)
    return "\n".join(lines) + "\n"

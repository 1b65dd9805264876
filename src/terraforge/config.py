"""Pipeline configuration: a plain-text INI file with one section per
subsystem. Every key is optional; defaults are the dataclass defaults of
the subsystem configs. `reference_text()` renders a fully commented
config with every default spelled out.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields, replace

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


def _build(section_name, parser, base, conversions, used_sections, renames=None):
    renames = renames or {}
    section = parser[section_name] if parser.has_section(section_name) else None
    if section is not None:
        used_sections.add(section_name)
    used_keys: set[str] = set()
    kwargs = {}
    for f in fields(base):
        key = renames.get(f.name, f.name)
        used_keys.add(key)
        if section is not None and key in section:
            kwargs[f.name] = conversions.get(f.name, float)(section[key])
    if section is not None:
        unknown = set(section) - used_keys
        if unknown:
            raise ValueError(f"unknown key(s) in [{section_name}]: {sorted(unknown)}")
    return replace(base, **kwargs)


def _pair(text: str) -> tuple[float, float]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


def load_config(path_or_text, *, is_text: bool = False) -> PipelineConfig:
    """Parse an INI config; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if is_text:
        parser.read_string(path_or_text)
    else:
        with open(path_or_text) as f:
            parser.read_file(f)

    base = PipelineConfig()
    used: set[str] = set()
    terrain = _build("terrain", parser, base.terrain, {
        "terrain_type": TerrainType.from_name,
        "robot": lambda s: Robot[s.upper()],
        "level": int, "seed": int,
    }, used, renames={"terrain_type": "type"})
    trajectory = _build("trajectory", parser, base.trajectory,
                        {"kind": lambda s: TrajectoryKind(s.lower())}, used)
    noise = _build("noise", parser, base.noise,
                   {"map_noise_magnitude": _pair}, used)
    fusion = _build("fusion", parser, base.fusion, {}, used)
    local_map = _build("local_map", parser, base.local_map, {}, used)
    weights = _build("rewards", parser, base.weights, {}, used)
    scan = _build("lidar", parser, base.scan_pattern,
                  {"n_azimuth": int, "n_elevation": int}, used)

    run_kwargs = {}
    if parser.has_section("run"):
        used.add("run")
        section = parser["run"]
        convs = {"imu_hz": int, "odom_hz": int, "lidar_hz": int, "policy_hz": int,
                 "map_size": float, "map_resolution": float,
                 "desired_height": float, "seed": int, "endpoint": str}
        unknown = set(section) - set(convs)
        if unknown:
            raise ValueError(f"unknown key(s) in [run]: {sorted(unknown)}")
        for key, conv in convs.items():
            if key in section:
                run_kwargs[key] = conv(section[key])
        if "endpoint" in run_kwargs:
            parse_endpoint(run_kwargs["endpoint"])  # raises ValueError unless host:port

    stray = set(parser.sections()) - used
    if stray:
        raise ValueError(f"unknown section(s): {sorted(stray)}")
    return PipelineConfig(terrain=terrain, trajectory=trajectory, noise=noise,
                          fusion=fusion, local_map=local_map, weights=weights,
                          scan_pattern=scan, **run_kwargs)


def reference_text() -> str:
    """Annotated config listing every key at its default value."""
    cfg = PipelineConfig()
    out = io.StringIO()
    w = out.write
    w("# pipeline configuration reference; every key optional, defaults shown\n\n")
    w("[terrain]\n")
    w("type = tau1            # tau1..tau5: slope, stones, stairs, gap, platform\n")
    w("level = 0              # curriculum level, 0..9\n")
    w("robot = lite3          # lite3 | x30\n")
    w(f"tile_size = {cfg.terrain.tile_size}        # m, square tile side\n")
    w(f"resolution = {cfg.terrain.resolution}      # m per cell\n")
    w("seed = 0               # stone placement seed\n\n")
    w("[trajectory]\n")
    w("kind = constant_velocity  # static | constant_velocity | circle | sinusoid\n")
    w("duration = 5.0         # s\n")
    w("speed = 1.0            # m/s in [0, 3]\n")
    w("height_above_ground = 0.4  # m, body z over the base plane; raise to clear tall terrain\n")
    w("radius = 1.0           # m, circle only\n")
    w("amplitude = 0.0        # m, sinusoid vertical oscillation\n")
    w("frequency = 1.0        # Hz, sinusoid only\n\n")
    w("[noise]\n")
    n = cfg.noise
    w(f"gyro_std = {n.gyro_std}         # rad/s\n")
    w(f"accel_std = {n.accel_std}        # m/s^2\n")
    w(f"odom_pos_std = {n.odom_pos_std}     # m per axis\n")
    w(f"odom_yaw_std = {n.odom_yaw_std}     # rad\n")
    w(f"lidar_range_std = {n.lidar_range_std}  # m along the ray\n")
    w(f"map_noise_ratio = {n.map_noise_ratio}  # fraction of local-map cells, [0, 0.1]\n")
    w("map_noise_magnitude = -1.0 2.0  # m, uniform perturbation range\n")
    w(f"system_delay_ms = {n.system_delay_ms}  # ms, [0, 15], applied to sensor delivery\n\n")
    w("[fusion]\n")
    f = cfg.fusion
    w(f"gyro_noise = {f.gyro_noise}      # rad/s/sqrt(Hz)\n")
    w(f"accel_noise = {f.accel_noise}      # m/s^2/sqrt(Hz)\n")
    w(f"gyro_bias_walk = {f.gyro_bias_walk}\n")
    w(f"accel_bias_walk = {f.accel_bias_walk}\n")
    w(f"odom_pos_std = {f.odom_pos_std}      # m\n")
    w(f"odom_rot_std = {f.odom_rot_std:.6f}  # rad\n")
    w(f"init_pos_std = {f.init_pos_std}\n")
    w(f"init_vel_std = {f.init_vel_std}\n")
    w(f"init_att_std = {f.init_att_std:.6f}\n")
    w(f"init_gyro_bias_std = {f.init_gyro_bias_std}\n")
    w(f"init_accel_bias_std = {f.init_accel_bias_std}\n\n")
    w("[local_map]\n")
    w(f"length_x = {cfg.local_map.length_x}   # m, leading 2/3 forward of the body\n")
    w(f"length_y = {cfg.local_map.length_y}\n")
    w(f"resolution = {cfg.local_map.resolution}\n\n")
    w("[rewards]\n")
    for fld in fields(RewardWeights):
        w(f"{fld.name} = {getattr(cfg.weights, fld.name)}\n")
    w("\n[lidar]\n")
    s = cfg.scan_pattern
    w(f"n_azimuth = {s.n_azimuth}\n")
    w(f"n_elevation = {s.n_elevation}\n")
    w(f"elevation_min = {s.elevation_min:.6f}  # rad\n")
    w(f"elevation_max = {s.elevation_max:.6f}  # rad\n")
    w(f"max_range = {s.max_range}       # m\n")
    w(f"ray_step = {s.ray_step}       # m\n\n")
    w("[run]\n")
    w(f"imu_hz = {cfg.imu_hz}\n")
    w(f"odom_hz = {cfg.odom_hz}\n")
    w(f"lidar_hz = {cfg.lidar_hz}\n")
    w(f"policy_hz = {cfg.policy_hz}          # imu_hz must divide evenly\n")
    w(f"map_size = {cfg.map_size}        # m, rolling global map extent\n")
    w(f"map_resolution = {cfg.map_resolution}\n")
    w(f"desired_height = {cfg.desired_height}\n")
    w(f"seed = {cfg.seed}\n")
    w("# endpoint = 127.0.0.1:9870  # optional UDP telemetry target\n")
    return out.getvalue()

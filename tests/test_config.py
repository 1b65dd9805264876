"""INI config parsing, strict key checking, and the reference listing."""

import dataclasses

import pytest

from terraforge.config import PipelineConfig, load_config, reference_text
from terraforge.mapping import ElevationMap
from terraforge.sensors import TrajectoryKind
from terraforge.terrain import Robot, TerrainType


class TestDefaults:
    def test_core_rates(self):
        cfg = PipelineConfig()
        assert (cfg.imu_hz, cfg.odom_hz, cfg.lidar_hz, cfg.policy_hz) == (
            200, 10, 10, 50)
        assert cfg.ticks_per_policy == 4
        assert cfg.map_size == 20.0 and cfg.map_resolution == 0.05
        assert cfg.endpoint is None

    def test_rate_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            PipelineConfig(imu_hz=200, policy_hz=60)

    def test_positive_rates(self):
        with pytest.raises(ValueError, match="positive"):
            PipelineConfig(odom_hz=0)


class TestLoadConfig:
    def test_empty_text_gives_defaults(self):
        assert load_config("", is_text=True) == PipelineConfig()

    def test_section_overrides(self):
        cfg = load_config(
            """
            [terrain]
            type = tau3
            level = 7
            robot = x30

            [trajectory]
            kind = circle
            radius = 2.5
            duration = 8.0

            [noise]
            gyro_std = 0.01
            map_noise_magnitude = -0.5, 0.5

            [fusion]
            gyro_noise = 1e-4

            [local_map]
            resolution = 0.05

            [rewards]
            l_tracking = 4.0

            [lidar]
            n_azimuth = 32

            [run]
            imu_hz = 400
            policy_hz = 100
            seed = 11
            endpoint = 127.0.0.1:9870
            """,
            is_text=True)
        assert cfg.terrain.terrain_type is TerrainType.STAIRS
        assert cfg.terrain.level == 7
        assert cfg.terrain.robot is Robot.X30
        assert cfg.trajectory.kind is TrajectoryKind.CIRCLE
        assert cfg.trajectory.radius == 2.5
        assert cfg.trajectory.duration == 8.0
        assert cfg.noise.gyro_std == 0.01
        assert cfg.noise.map_noise_magnitude == (-0.5, 0.5)
        assert cfg.fusion.gyro_noise == 1e-4
        assert cfg.local_map.resolution == 0.05
        assert cfg.weights.l_tracking == 4.0
        assert cfg.scan_pattern.n_azimuth == 32
        assert cfg.imu_hz == 400 and cfg.policy_hz == 100
        assert cfg.ticks_per_policy == 4
        assert cfg.seed == 11
        assert cfg.endpoint == "127.0.0.1:9870"

    def test_unset_keys_keep_defaults(self):
        cfg = load_config("[fusion]\ngyro_noise = 1e-4\n", is_text=True)
        assert cfg.fusion.accel_noise == PipelineConfig().fusion.accel_noise

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown key.*\[fusion\]"):
            load_config("[fusion]\nbogus = 1\n", is_text=True)

    def test_unknown_run_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown key.*\[run\]"):
            load_config("[run]\nwhat = 1\n", is_text=True)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown section"):
            load_config("[mystery]\nx = 1\n", is_text=True)

    def test_pair_space_form(self):
        cfg = load_config("[noise]\nmap_noise_magnitude = -1.0 2.0\n",
                          is_text=True)
        assert cfg.noise.map_noise_magnitude == (-1.0, 2.0)

    def test_pair_wrong_arity(self):
        with pytest.raises(ValueError, match="two numbers"):
            load_config("[noise]\nmap_noise_magnitude = 1.0\n", is_text=True)

    def test_inline_comments_stripped(self):
        cfg = load_config("[run]\nseed = 3  # chosen by dice roll\n",
                          is_text=True)
        assert cfg.seed == 3

    def test_file_load(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        path.write_text("[terrain]\ntype = tau5\nlevel = 9\n")
        cfg = load_config(path)
        assert cfg.terrain.terrain_type is TerrainType.HIGH_PLATFORM
        assert cfg.terrain.level == 9

    def test_bad_enum_value(self):
        with pytest.raises(ValueError):
            load_config("[terrain]\ntype = tau9\n", is_text=True)

    def test_unknown_robot(self):
        with pytest.raises(ValueError, match="unknown robot 'bogus'"):
            load_config("[terrain]\nrobot = bogus\n", is_text=True)

    @pytest.mark.parametrize("text, match", [
        ("seed = 1\n", "no section headers"),
        ("[run]\nseed = 1\n[run]\nseed = 2\n", "section 'run' already exists"),
        ("[run]\nseed = 1\nseed = 2\n", "option 'seed' in section 'run' already exists"),
        ("[run]\nendpoint = 127.0.0.1:%(port)s\n", "port"),
    ], ids=["no-header", "duplicate-section", "duplicate-key", "interpolation"])
    def test_malformed_ini_is_a_value_error(self, text, match):
        with pytest.raises(ValueError, match=match):
            load_config(text, is_text=True)

    @pytest.mark.parametrize("text, match", [
        ("[trajectory]\nduration = nan\n", r"\[trajectory\] duration: expected a finite"),
        ("[trajectory]\nduration = inf\n", r"\[trajectory\] duration: expected a finite"),
        ("[trajectory]\nheight_above_ground = nan\n",
         r"\[trajectory\] height_above_ground: expected a finite"),
        ("[rewards]\nroll = -inf\n", r"\[rewards\] roll: expected a finite"),
        ("[noise]\nmap_noise_magnitude = -1 nan\n",
         r"\[noise\] map_noise_magnitude: expected a finite"),
        ("[run]\nseed = -1\n", "seed must be >= 0"),
        ("[run]\nseed = one\n", r"\[run\] seed: invalid literal"),
        ("[trajectory]\nduration = -1\n", "duration must be positive"),
    ], ids=["nan-duration", "inf-duration", "nan-height", "inf-weight", "nan-pair",
            "negative-seed", "bad-int", "negative-duration"])
    def test_bad_value_names_its_key(self, text, match):
        with pytest.raises(ValueError, match=match):
            load_config(text, is_text=True)

    def test_invalid_combo_propagates(self):
        with pytest.raises(ValueError, match="divisible"):
            load_config("[run]\nimu_hz = 200\npolicy_hz = 60\n", is_text=True)

    @pytest.mark.parametrize("text, match", [
        ("[run]\nimu_hz = 50\n", r"imu_hz 50 outside \[100, 1000\]"),
        ("[run]\nimu_hz = 2000\n", r"imu_hz 2000 outside \[100, 1000\]"),
        ("[noise]\nmap_noise_magnitude = 2 1\n", "reversed"),
        ("[terrain]\ntype = gap\ntile_size = 2\n", "feature exceeds tile"),
        ("[terrain]\ntype = stairs\ntile_size = 2\n", "feature exceeds tile"),
        ("[trajectory]\nkind = circle\nradius = 1e-40\n", "circle radius must be at least 0.1 m"),
        ("[trajectory]\nkind = sinusoid\nfrequency = -1\n", "frequency must be finite and >= 0"),
        ("[trajectory]\nkind = sinusoid\namplitude = 1e300\n", r"\|amplitude\| must be <= 10 m"),
        ("[trajectory]\nkind = sinusoid\namplitude = 0.05\nfrequency = 1e300\n",
         "peak vertical acceleration"),
        ("[trajectory]\nkind = sinusoid\namplitude = 1\nfrequency = 5\n",
         "peak vertical acceleration"),
        ("[terrain]\ntile_size = 0.05\n", "spans one node"),
        ("[terrain]\ntile_size = 0.1\nresolution = 0.1\n", "spans one node"),
        ("[lidar]\nray_step = 1e-6\n", "at most 100000 steps"),
        ("[lidar]\nmax_range = 1e9\n", "at most 100000 steps"),
        ("[lidar]\nn_azimuth = 100000\n", "at most 100000 rays"),
        ("[lidar]\nn_azimuth = 3126\nn_elevation = 32\n", "at most 100000 rays"),
        ("[local_map]\nlength_x = 0.2\nlength_y = 0.2\n", "3 x 3 samples"),
        ("[local_map]\nlength_x = 0\n", "length_x must be finite and positive"),
        ("[local_map]\nlength_x = -1.6\n", "length_x must be finite and positive"),
        ("[local_map]\nlength_y = 1e-12\n", "17 x 1 samples"),
        ("[local_map]\nresolution = 1e-300\n", "length_x spans over 65535 samples"),
        ("[local_map]\nlength_x = 6600\n", "length_x spans over 65535 samples"),
        ("[local_map]\nlength_x = 600\n", "6001 x 11 samples exceeds 65535"),
        ("[terrain]\nresolution = 0.001\n", "over 2000 cells per side"),
        ("[terrain]\nresolution = 1e-320\n", "over 2000 cells per side"),
        ("[run]\nmap_resolution = 0.001\n", "over 2000 cells per side"),
        ("[run]\nmap_resolution = 1e-320\n", "over 2000 cells per side"),
    ], ids=["imu-50", "imu-2000", "reversed-magnitude", "gap-tile", "stairs-tile", "tiny-circle",
            "negative-frequency", "huge-amplitude", "huge-frequency", "hard-sinusoid",
            "one-node-tile", "one-node-coarse-tile", "tiny-ray-step", "huge-range",
            "many-azimuths", "just-too-many-rays", "local-map-under-10-samples",
            "zero-local-map", "negative-local-map", "one-sample-local-map-side",
            "tiny-local-map-resolution", "local-map-side-over-u16", "local-map-over-u16",
            "fine-tile", "subnormal-tile-resolution", "fine-map", "subnormal-map-resolution"])
    def test_config_that_cannot_run_is_refused(self, text, match):
        with pytest.raises(ValueError, match=match):
            load_config(text, is_text=True)

    def test_edges_of_the_refused_ranges_load(self):
        for text in ("[run]\nimu_hz = 100\n", "[run]\nimu_hz = 1000\n",
                     "[noise]\nmap_noise_magnitude = 0.5 0.5\n",
                     "[terrain]\ntype = gap\nlevel = 9\nrobot = x30\ntile_size = 3\n",
                     "[terrain]\ntype = stairs\ntile_size = 3\n",
                     "[trajectory]\nkind = circle\nradius = 0.1\n",
                     "[trajectory]\nkind = sinusoid\namplitude = 0.5\nfrequency = 5\n",
                     "[trajectory]\nkind = sinusoid\namplitude = -10\nfrequency = 0\n",
                     "[local_map]\nlength_x = 0.1\nlength_y = 0.4\n",
                     "[local_map]\nlength_x = 25.6\nlength_y = 25.4\n",  # 257 x 255 = 65535
                     "[terrain]\ntile_size = 100\n", "[run]\nmap_size = 100\n"):
            load_config(text, is_text=True)

    @pytest.mark.parametrize("line, match", [
        ("ray_step = 0", "ray_step must be positive"),
        ("ray_step = -0.01", "ray_step must be positive"),
        ("max_range = -1", "max_range and ray_step"),
        ("max_range = 0", "max_range and ray_step"),
        ("n_azimuth = 0", "n_azimuth and n_elevation must be >= 1"),
        ("n_elevation = -3", "n_azimuth and n_elevation must be >= 1"),
    ])
    def test_bad_lidar_pattern_rejected(self, line, match):
        with pytest.raises(ValueError, match=match):
            load_config(f"[lidar]\n{line}\n", is_text=True)

    @pytest.mark.parametrize("line", [
        "map_size = 20.01", "map_resolution = 0.07", "map_size = 0",
        "map_size = -20", "map_resolution = 0",
    ])
    def test_bad_map_geometry_rejected(self, line):
        with pytest.raises(ValueError, match="map size"):
            load_config(f"[run]\n{line}\n", is_text=True)

    def test_map_geometry_check_shared_with_the_map(self):
        for size, res in ((20.01, 0.05), (20.0, 0.07), (0.0, 0.05)):
            with pytest.raises(ValueError) as from_cfg:
                PipelineConfig(map_size=size, map_resolution=res)
            with pytest.raises(ValueError) as from_map:
                ElevationMap(size, res)
            assert str(from_cfg.value) == str(from_map.value)
        cfg = load_config("[run]\nmap_size = 10.0\nmap_resolution = 0.1\n", is_text=True)
        assert ElevationMap(cfg.map_size, cfg.map_resolution).cells == 100


class TestReferenceText:
    def test_lists_every_section(self):
        text = reference_text()
        for name in ("[terrain]", "[trajectory]", "[noise]", "[fusion]",
                     "[local_map]", "[rewards]", "[lidar]", "[run]"):
            assert name in text

    def test_parses_back_to_near_defaults(self):
        assert load_config(reference_text(), is_text=True) == PipelineConfig()

    def test_every_key_listed_and_loads_back(self):
        base = PipelineConfig()
        sections = {"terrain": base.terrain, "trajectory": base.trajectory,
                    "noise": base.noise, "fusion": base.fusion,
                    "local_map": base.local_map, "rewards": base.weights,
                    "lidar": base.scan_pattern}
        want = {(name, "type" if f.name == "terrain_type" else f.name)
                for name, sub in sections.items() for f in dataclasses.fields(sub)}
        want |= {("run", f.name) for f in dataclasses.fields(base)
                 if not dataclasses.is_dataclass(getattr(base, f.name))}
        listed, section = {}, None
        for line in reference_text().splitlines():
            if line.startswith("["):
                section = line.strip("[]")
            elif " = " in line:
                listed[(section, line.lstrip("# ").split(" = ")[0])] = line
        assert set(listed) == want
        for (section, key), line in listed.items():
            if line.startswith("#"):  # no default value to list
                assert getattr(base, key) is None
            else:
                assert load_config(f"[{section}]\n{line}\n", is_text=True) == base, line

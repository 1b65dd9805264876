"""Golden output digests: the sha256 of every run output for four fixed
configs. A refactor that changes any output byte fails here.

The pins were computed once and are never re-baselined to hide a change;
an intended output change is listed in CHANGES.md with its reason.
"""

import hashlib

import pytest

from terraforge.config import load_config
from terraforge.pipeline import run_pipeline

CONFIGS = {
    "slope_default": """
[trajectory]
duration = 1.5
""",
    "stairs_raised": """
[terrain]
type = stairs
level = 5

[trajectory]
duration = 1.5
height_above_ground = 1.5
""",
    "gap_noisy_delayed": """
[terrain]
type = gap
level = 9

[trajectory]
speed = 0.25
duration = 1.5

[noise]
gyro_std = 0.01
accel_std = 0.05
odom_pos_std = 0.01
odom_yaw_std = 0.005
lidar_range_std = 0.01
system_delay_ms = 10
map_noise_ratio = 0.05

[run]
lidar_hz = 2
""",
    "circle_map_noise": """
[trajectory]
kind = circle
duration = 1.5

[noise]
map_noise_ratio = 0.05
""",
}

PINS = {
    "slope_default": {
        "fused_poses.jsonl": "10c534c5946f69aa4fa4dbe56413228259afddb5de112345ce6153a8d8c86d1e",
        "imu.jsonl": "879b269bbe10d43b4a12da66b57a804853d36aae089caf8ea4dc41cf07f6b0ba",
        "localmaps.bin": "19973465df6629447acb080d74260545626dc280d5eb778eac04133d78b81932",
        "odometry.jsonl": "6ba4c544aaefebb16c3e48f46b41164a915e67c095fec9cf20bf0bcec2a52e12",
        "rewards.jsonl": "28549ab8656bd17a1c1a99eef38f3defcc123adc2bd3268932e8b2a6f34b2316",
        "run_summary.json": "df9ae14785efe6e4f918b4a56b1243f1892dc0cdf05c94fe39ee01ab3c8e2e6b",
        "trajectory.jsonl": "000a608cfc524924e130844e7ede734143aad62e627b448f350991b303c26bb4",
    },
    "stairs_raised": {
        "fused_poses.jsonl": "5ed822b055b13ee5493fbf027e3d9e13a466d744c078df7d91d271c1126b2875",
        "imu.jsonl": "879b269bbe10d43b4a12da66b57a804853d36aae089caf8ea4dc41cf07f6b0ba",
        "localmaps.bin": "43e3b7075f1e2a354565feac7cc9d6ef4f2919c316386e3e5a470a28384e8a2f",
        "odometry.jsonl": "09f43369277abfd7275eaa4f2049793fd999349a341626020651ca3b3a13410f",
        "rewards.jsonl": "377915c4c62f247f187e3d010d72717d42637bc33914d5d4b80a46cb233639db",
        "run_summary.json": "df9ae14785efe6e4f918b4a56b1243f1892dc0cdf05c94fe39ee01ab3c8e2e6b",
        "trajectory.jsonl": "b9bacaf76fa0a474bc0217e2d36f126cfa5ee538b45aaa04be5ec7fadfaec144",
    },
    "gap_noisy_delayed": {
        "fused_poses.jsonl": "2408dde6116c085f1fe43806f8bb65056a6c3225cc84a121f33537b3b42be874",
        "imu.jsonl": "60fa3598cab9b353fc04336244ee179175a19b7ffd6072a2eadf6965a7fe9f15",
        "localmaps.bin": "18ad9157a9d275eda63ead32bad42dbde1404c4c56cb80d45de7f01e553513ab",
        "odometry.jsonl": "6c75f57ddcd8bad892ed40e953618bab1157a75e5279d260831c78c34fa1b739",
        "rewards.jsonl": "cf8d9133154cf79b83e9c018875fca9ccabb49b139407b29bc9da481375b11f0",
        "run_summary.json": "d031ce0376904425a3423e6cfe9db325fe6b62d9b69a30251d6596bdf0f5ce91",
        "trajectory.jsonl": "61bdf1311b8efce4313fda098965a673ef4c4bea96c61389661fa3d6c7b74303",
    },
    "circle_map_noise": {
        "fused_poses.jsonl": "603faf2c1616c4d0d2ce8d3ecc56e187cc55171a4de764f1c2940007339319e0",
        "imu.jsonl": "5fe5fb6d5d8fa9417440de3b7b199506e5a8da9589622950912e2fcfb1161182",
        "localmaps.bin": "5d9844cb49c39e85ab5ce96ada561cc4154fc7ac125538ce84bcd08f08fdd721",
        "odometry.jsonl": "49edaa556e36c3ad32942e07fd9f828bbcc183ebb75ee196faadb21c2be496aa",
        "rewards.jsonl": "8b58f687d4346abe29da5661c5a710468b607c403dce67e5a21ac8e896a2789f",
        "run_summary.json": "df9ae14785efe6e4f918b4a56b1243f1892dc0cdf05c94fe39ee01ab3c8e2e6b",
        "trajectory.jsonl": "e8b0e86918fc7092b4c662e7b1d292de4fe23ae089dc03dbeb46828985058095",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_outputs_match_pins(name, tmp_path):
    run_pipeline(load_config(CONFIGS[name], is_text=True), tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == PINS[name]

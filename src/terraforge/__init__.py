"""High-rate state fusion, elevation mapping, and terrain-aware reward
evaluation for legged-robot locomotion experiments, with procedural
curriculum terrains and synthetic sensors to drive it all.
"""

from .geometry import (GRAVITY, IDENTITY, Pose, Quaternion, quat_conjugate,
                       quat_from_rotvec, quat_from_yaw, quat_log, quat_multiply,
                       quat_normalize, quat_to_matrix, quat_yaw, rotate_vec)
from .terrain import (Heightfield, Robot, TerrainSpec, TerrainType, generate,
                      sample_height, terrain_parameter)
from .sensors import (Delivered, ImuSample, LidarScan, NoiseConfig,
                      ScanPattern, TrajectoryKind, TrajectorySpec, apply_delay,
                      imu_stream, lidar_scan, odometry_stream, true_state)
from .fusion import (FusionConfig, FusionState, PoseFuser, predict,
                     run_fusion, update_pose, zero_order_hold)
from .mapping import (ElevationMap, LocalMap, LocalMapSpec, VirtualEdit,
                      edit_heightfield, inject_map_noise)
from .rewards import (PlaneFit, RewardInput, RewardTable, RewardWeights,
                      compute_rewards, feet_edge_penalty, feet_stumble_penalty,
                      fit_plane, guided_direction, reward_table)
from .observations import (ObservationFrame, ObservationHistory,
                           kl_diag_gaussian, loss_cenet, loss_est,
                           loss_terrain, loss_vae, sample_command)
from .config import PipelineConfig, load_config, reference_text
from .pipeline import (BenchReport, PipelineInvariantError, PipelineResult,
                       run_bench, run_pipeline)

__version__ = "0.1.0"

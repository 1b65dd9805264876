"""Release gates: ten end-to-end checks, one verdict line each.

Each test prints "[acceptance] <name>: PASS|FAIL"; the conftest summary
hook repeats the lines after the run so they survive output capture.
Ordering follows the numbering; tests are independent.
"""

import dataclasses
import math
from time import perf_counter

import numpy as np

from terraforge.cli import main as cli_main
from terraforge.fusion import FusionConfig, PoseFuser, run_fusion, zero_order_hold
from terraforge.geometry import Pose, Quaternion
from terraforge.mapping import ElevationMap, LocalMapSpec, VirtualEdit
from terraforge.observations import kl_diag_gaussian, loss_cenet, loss_est, loss_terrain, loss_vae
from terraforge.pipeline import run_bench
from terraforge.rewards import (REWARD_KEYS, TERMS, PlaneFit, RewardInput,
                                RewardWeights, compute_rewards, fit_plane,
                                guided_direction, reward_table)
from terraforge.sensors import (LidarScan, NoiseConfig, ScanPattern,
                                TrajectoryKind, TrajectorySpec, imu_stream,
                                lidar_scan, odometry_stream, true_state)
from terraforge.terrain import (Robot, TerrainSpec, TerrainType, generate,
                                sample_height, terrain_parameter)

RESULTS = []


def _verdict(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    RESULTS.append(line)
    print(line)
    assert ok, f"{name}: {detail}"


IDENTITY_Q = Quaternion(1.0, 0.0, 0.0, 0.0)


def test_c1_curriculum_table():
    start = perf_counter()
    expected = {
        Robot.LITE3: {
            TerrainType.SLOPE: lambda l: 0.0 + 0.05 * l,
            TerrainType.DISCRETE_STONES: lambda l: 0.05 + 0.025 * l,
            TerrainType.STAIRS: lambda l: 0.05 + 0.013 * l,
            TerrainType.GAP: lambda l: 0.2 + 0.035 * l,
            TerrainType.HIGH_PLATFORM: lambda l: 0.1 + 0.05 * l,
        },
        Robot.X30: {
            TerrainType.SLOPE: lambda l: 0.0 + 0.05 * l,
            TerrainType.DISCRETE_STONES: lambda l: 0.05 + 0.035 * l,
            TerrainType.STAIRS: lambda l: 0.05 + 0.018 * l,
            TerrainType.GAP: lambda l: 0.2 + 0.06 * l,
            TerrainType.HIGH_PLATFORM: lambda l: 0.1 + 0.07 * l,
        },
    }
    bad = []
    for robot, table in expected.items():
        for ttype, formula in table.items():
            for level in range(10):
                got = terrain_parameter(TerrainSpec(ttype, level, robot))
                want = formula(level)
                if got != want:
                    bad.append(f"{robot.name} {ttype.name} L{level}: "
                               f"{got!r} != {want!r}")
    elapsed = perf_counter() - start
    spot = terrain_parameter(
        TerrainSpec(TerrainType.HIGH_PLATFORM, 9, Robot.LITE3))
    ok = not bad and spot == 0.55 and elapsed < 1.0
    _verdict("c1 curriculum table, 100 exact values",
             ok, "; ".join([f"{len(bad)} mismatches, {elapsed:.2f}s", *bad[:3]]))


def test_c2_zoh_vs_fusion():
    start = perf_counter()
    traj = TrajectorySpec(kind=TrajectoryKind.CONSTANT_VELOCITY,
                          duration=12.0, speed=1.0)

    # baseline: clean 10 Hz odometry held between arrivals, probed just
    # before each new fix lands (the worst instant of every hold interval)
    odom_clean = odometry_stream(traj, 10.0)
    queries = [p.timestamp_ns - 1 for p in odom_clean[1:]]
    zoh_err = max(
        float(np.linalg.norm(
            h.position - true_state(traj, h.timestamp_ns * 1e-9).pose.position))
        for h in zero_order_hold(odom_clean, queries))

    # fused: noise-free IMU plus 1 cm odometry, filter tuned to match;
    # the first 2 s absorb the zero-velocity seed transient, the error
    # bound applies to the following 10 s
    noise = NoiseConfig(odom_pos_std=0.01)
    imu = imu_stream(traj, 200.0, noise, seed=0)
    odom = odometry_stream(traj, 10.0, noise, seed=1)
    cfg = FusionConfig(gyro_noise=1e-5, accel_noise=1e-5,
                       init_gyro_bias_std=1e-6, init_accel_bias_std=1e-6,
                       init_att_std=1e-3, init_vel_std=1.0, odom_rot_std=1e-4)
    fused = run_fusion(imu, odom, cfg)
    fused_err = max(
        float(np.linalg.norm(
            p.position - true_state(traj, p.timestamp_ns * 1e-9).pose.position))
        for p in fused if p.timestamp_ns * 1e-9 >= 2.0)

    elapsed = perf_counter() - start
    ok = abs(zoh_err - 0.100) <= 0.005 and fused_err < 0.02 and elapsed < 10.0
    _verdict("c2 zero-order-hold ~10 cm, fused < 2 cm", ok,
             f"zoh={zoh_err:.4f} fused={fused_err:.4f} {elapsed:.1f}s")


def test_c3_plane_fit_and_guided_direction():
    xs = np.linspace(-0.8, 0.8, 11)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")

    worst_clean = 0.0
    for a, b in ((0.5, 0.0), (0.0, -0.4), (0.3, 0.2), (-0.25, 0.45)):
        pts = np.column_stack([gx.ravel(), gy.ravel(),
                               (a * gx + b * gy).ravel()])
        truth = np.array([-a, -b, 1.0]) / math.sqrt(a * a + b * b + 1.0)
        worst_clean = max(worst_clean, float(np.linalg.norm(
            fit_plane(pts).normal - truth)))

    rng = np.random.default_rng(0)
    worst_noisy_deg = 0.0
    for _ in range(20):
        a, b = rng.uniform(-0.4, 0.4, 2)
        pts = np.column_stack([gx.ravel(), gy.ravel(),
                               (a * gx + b * gy).ravel()])
        pts[:, 2] += rng.normal(0.0, 0.01, len(pts))  # 121 points, sigma 1 cm
        truth = np.array([-a, -b, 1.0]) / math.sqrt(a * a + b * b + 1.0)
        cosang = np.clip(np.dot(fit_plane(pts).normal, truth), -1.0, 1.0)
        worst_noisy_deg = max(worst_noisy_deg, math.degrees(math.acos(cosang)))

    worst_guided = 0.0
    for s in np.linspace(-0.9, 0.9, 181):
        fit = PlaneFit(np.array([s, 0.0, math.sqrt(1.0 - s * s)]),
                       np.zeros(3), 0.0)
        closed = np.array([math.sqrt(1.0 - s * s), 0.0, s])
        worst_guided = max(worst_guided, float(np.linalg.norm(
            guided_direction(fit) - closed)))

    ok = worst_clean < 1e-9 and worst_noisy_deg < 2.0 and worst_guided < 1e-12
    _verdict("c3 plane fit and guided direction", ok,
             f"clean={worst_clean:.2e} noisy={worst_noisy_deg:.2f}deg "
             f"guided={worst_guided:.2e}")


def test_c4_staircase_map_fidelity():
    start = perf_counter()
    hf = generate(TerrainSpec(TerrainType.STAIRS, 5, Robot.LITE3))
    # center offset by half a cell so map nodes land on heightfield nodes
    emap = ElevationMap(20.0, 0.05, center=(4.025, 0.025))
    pattern = ScanPattern()
    noise = NoiseConfig()
    ts = 0
    for xi, x in enumerate(np.arange(0.5, 7.51, 0.5)):
        for yi, y in enumerate(np.arange(-3.0, 3.01, 1.0)):
            ts += 100_000_000
            pose = Pose(np.array([x, y, 3.0]), IDENTITY_Q, ts)
            scan = lidar_scan(hf, pose, pattern, noise, seed=xi * 100 + yi)
            emap.integrate_scan(LidarScan(ts, scan.points), pose)

    snap = emap.snapshot()
    n = snap.heights.shape[0]
    idx = np.arange(n)
    xs = snap.origin[0] + idx * snap.resolution
    ys = snap.origin[1] + idx * snap.resolution
    sq_sum, count = 0.0, 0
    for i in range(n):
        if not snap.valid[i].any():
            continue
        for j in np.flatnonzero(snap.valid[i]):
            try:
                truth = sample_height(hf, xs[i], ys[j])
            except ValueError:
                continue  # node outside the tile
            sq_sum += (snap.heights[i, j] - truth) ** 2
            count += 1
    rms = math.sqrt(sq_sum / count)
    elapsed = perf_counter() - start
    ok = rms <= 0.025 and count > 10_000 and elapsed < 30.0
    _verdict("c4 staircase map RMS <= 0.025 m", ok,
             f"rms={rms:.4f} cells={count} {elapsed:.1f}s")


def _reward_frame(**kw):
    z3, z12 = np.zeros(3), np.zeros(12)
    base = dict(
        v_world=z3, v_body_xy=np.zeros(2), v_z=0.0, omega=z3,
        gravity_body=np.array([0.0, 0.0, -1.0]), yaw=0.0, joint_acc=z12,
        body_height=0.4, desired_height=0.4, action=z12, prev_action=z12,
        prev_prev_action=z12, hip_angles=np.zeros(4),
        hip_angles_desired=np.zeros(4), foot_positions=np.zeros((4, 3)),
        foot_contact_forces=np.tile([0.0, 0.0, 30.0], (4, 1)),
        command=z3, terrain_type=TerrainType.SLOPE)
    base.update(kw)
    return RewardInput(**base)


FLAT_FIT = PlaneFit(np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.0)


def _reward_record(table, i, fit):
    return dict(zip(REWARD_KEYS[1:], compute_rewards(table, i, fit)))


def test_c5_reward_exactness():
    problems = []

    perfect_l = _reward_record(reward_table(_reward_frame(
        v_body_xy=np.array([0.7, -0.2]),
        command=np.array([0.7, -0.2, 0.0]))), 0, FLAT_FIT)
    if abs(perfect_l["raw_l_tracking"] - 2.0) > 1e-12:
        problems.append(f"l_max={perfect_l['raw_l_tracking']!r}")

    perfect_a = _reward_record(reward_table(_reward_frame(
        omega=np.array([0.0, 0.0, 1.1]),
        command=np.array([0.0, 0.0, 1.1]))), 0, FLAT_FIT)
    if abs(perfect_a["raw_a_tracking"] - 0.5) > 1e-12:
        problems.append(f"a_max={perfect_a['raw_a_tracking']!r}")

    # guided-tracking term never exceeds the commanded speed; the frames
    # are drawn one by one and scored as one stacked table
    rng = np.random.default_rng(13)
    base = _reward_frame(terrain_type=TerrainType.HIGH_PLATFORM,
                         command=np.array([1.0, 0.0, 0.0]))
    n = 100_000
    fits, cmds, v_world = [], np.empty(n), np.empty((n, 3))
    for k in range(n):
        s = rng.uniform(-0.9, 0.9)
        fits.append(PlaneFit(np.array([s, 0.0, math.sqrt(1.0 - s * s)]),
                             np.zeros(3), 0.0))
        cmds[k] = rng.uniform(0.3, 1.2)
        v_world[k] = rng.normal(0.0, 2.0, 3)
    stacked = {f.name: np.broadcast_to(getattr(base, f.name),
                                       (n, *np.shape(getattr(base, f.name))))
               for f in dataclasses.fields(base) if f.name != "terrain_type"}
    table = reward_table(RewardInput(**{
        **stacked, "v_world": v_world,
        "command": np.column_stack([cmds, np.zeros(n), np.zeros(n)]),
        "terrain_type": base.terrain_type}))
    violations = 0
    worst_gap = -np.inf
    for k, (fit, cmd) in enumerate(zip(fits, cmds.tolist())):
        raw = _reward_record(table, k, fit)["raw_t_l_tracking"]
        worst_gap = max(worst_gap, raw - cmd)
        if raw > cmd + 1e-12:
            violations += 1
    if violations:
        problems.append(f"{violations} clamp violations, worst {worst_gap:.2e}")

    # totals are exact weighted sums against an independent accumulation
    worst_total = 0.0
    for k in range(50):
        frame = dataclasses.replace(
            base,
            terrain_type=list(TerrainType)[k % 5],
            v_world=rng.normal(size=3), v_body_xy=rng.normal(size=2),
            v_z=rng.normal(), omega=rng.normal(size=3),
            joint_acc=rng.normal(size=12), action=rng.normal(size=12),
            prev_action=rng.normal(size=12),
            prev_prev_action=rng.normal(size=12),
            hip_angles=rng.normal(size=4) * 0.2,
            command=np.array([rng.uniform(0.3, 1.2), 0.0, 0.0]))
        out = _reward_record(reward_table(frame), 0, FLAT_FIT)
        oracle = 0.0
        for name in TERMS:
            raw, weighted = out[f"raw_{name}"], out[f"weighted_{name}"]
            oracle += weighted
            if raw != 0.0 and abs(weighted / raw) < 1e-15:
                problems.append(f"{name} weight lost")
        worst_total = max(worst_total, abs(out["total"] - oracle))
    if worst_total > 1e-12:
        problems.append(f"total drift {worst_total:.2e}")

    w = RewardWeights()
    table = dict(t_l_tracking=3.0, l_tracking=3.0, a_tracking=0.5, v_z=-2.0,
                 omega_x=-0.05, roll=-10.0, yaw=-1.0, joint_acc=-2.5e-7,
                 body_height=-10.0, action_rate=-0.04, smoothness=-0.03,
                 hip_angle=-1.0, feet_edge_gap=-10.0, feet_edge_platform=-1.0,
                 feet_stumble_gap=-10.0, feet_stumble_platform=-1.0)
    for name, want in table.items():
        if getattr(w, name) != want:
            problems.append(f"default {name}={getattr(w, name)} != {want}")

    _verdict("c5 reward maxima, clamp, and weighted totals",
             not problems, "; ".join([f"clamp worst {worst_gap:.2e}",
                                      f"total drift {worst_total:.2e}", *problems[:4]]))


def test_c6_loss_formulas():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        mu = rng.uniform(-0.4, 0.4, 8)
        lv = rng.uniform(-0.4, 0.4, 8)
        sigma = np.exp(0.5 * lv)
        x = mu + sigma * rng.standard_normal((100_000, 8))
        log_q = -0.5 * (((x - mu) / sigma) ** 2 + lv + math.log(2 * math.pi))
        log_p = -0.5 * (x ** 2 + math.log(2 * math.pi))
        mc = float(np.mean(np.sum(log_q - log_p, axis=1)))
        worst = max(worst, abs(mc - kl_diag_gaussian(mu, lv)))

    o = np.arange(45.0)
    e = np.linspace(-0.4, 0.4, 187).reshape(17, 11)
    zeros_at_match = (
        kl_diag_gaussian(np.zeros(16), np.zeros(16)) == 0.0
        and loss_est([0.4, -0.2, 0.1], [0.4, -0.2, 0.1]) == 0.0
        and loss_vae(o, o, np.zeros(16), np.zeros(16), 1.0) == 0.0
        and loss_terrain(e, e) == 0.0
        and loss_cenet(0.0, 0.0) == 0.0)

    ok = worst <= 1e-2 and zeros_at_match
    _verdict("c6 KL closed form vs Monte Carlo", ok,
             f"worst |closed - mc| = {worst:.4f}, zeros={zeros_at_match}")


def test_c7_filter_health_under_noise():
    traj = TrajectorySpec(kind=TrajectoryKind.CONSTANT_VELOCITY,
                          duration=10.0, speed=1.0)
    noise = NoiseConfig(gyro_std=0.01, accel_std=0.1, odom_pos_std=0.01,
                        odom_yaw_std=0.01, lidar_range_std=0.01,
                        map_noise_ratio=0.05, system_delay_ms=10.0)
    imu = imu_stream(traj, 200.0, noise, seed=5)
    odom = odometry_stream(traj, 10.0, noise, seed=6)

    delay_ns = round(noise.system_delay_ms * 1e6)
    events = [(p.timestamp_ns + delay_ns, 0, p) for p in odom]
    events += [(s.timestamp_ns + delay_ns, 1, s) for s in imu]
    events.sort(key=lambda e: (e[0], e[1]))

    fuser = PoseFuser()
    worst_asym = 0.0
    worst_eig = np.inf
    worst_qnorm = 0.0
    for _, kind, item in events:
        if kind == 0:
            fuser.handle_odometry(item)
        else:
            if fuser.state is None:
                continue
            fuser.handle_imu([item])
        st = fuser.state
        cov = st.covariance
        worst_asym = max(worst_asym, float(np.abs(cov - cov.T).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(cov).min()))
        q = st.orientation
        worst_qnorm = max(worst_qnorm, abs(
            math.sqrt(q.w**2 + q.x**2 + q.y**2 + q.z**2) - 1.0))
    clean_rejections = fuser.stats.rejected_stale

    # a deliberately stale fix must be rejected and counted, nothing else
    stale = Pose(fuser.state.position, fuser.state.orientation,
                 fuser.state.timestamp_ns - 200_000_000)
    accepted = fuser.handle_odometry(stale)

    ok = (worst_asym < 1e-9 and worst_eig > -1e-9 and worst_qnorm < 1e-9
          and clean_rejections == 0 and fuser.stats.reseeds == 0
          and not accepted and fuser.stats.rejected_stale == 1)
    _verdict("c7 filter health over a noisy run", ok,
             f"asym={worst_asym:.1e} mineig={worst_eig:.1e} "
             f"qnorm={worst_qnorm:.1e} rejected={clean_rejections}")


def test_c8_throughput_budget():
    report = run_bench(iters=2000, budget_ms=5.0)
    ok = report.within_budget
    _verdict("c8 p99 tick latency < 5 ms", ok,
             f"p99={report.total_p99_ms:.3f} ms "
             f"(fusion={report.stage_p99_ms['fusion_step']:.3f}, "
             f"scan={report.stage_p99_ms['scan_amortized']:.3f}, "
             f"extract={report.stage_p99_ms['local_extract']:.3f}, "
             f"reward={report.stage_p99_ms['reward_eval']:.3f})")


def test_c9_run_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        "[trajectory]\nduration = 1.5\n\n"
        "[noise]\nodom_pos_std = 0.01\ngyro_std = 0.005\naccel_std = 0.05\n"
        "map_noise_ratio = 0.05\nsystem_delay_ms = 5.0\n\n"
        "[run]\nseed = 12\n")
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "b")]) == 0
    names = ["fused_poses.jsonl", "imu.jsonl", "odometry.jsonl",
             "rewards.jsonl", "trajectory.jsonl", "localmaps.bin",
             "run_summary.json"]
    differing = [n for n in names
                 if (tmp_path / "a" / n).read_bytes()
                 != (tmp_path / "b" / n).read_bytes()]
    _verdict("c9 byte-identical replay", not differing,
             f"differs: {differing}")


def test_c10_virtual_edit_persistence():
    flat = generate(TerrainSpec(TerrainType.SLOPE, 0, Robot.LITE3))
    emap = ElevationMap(20.0, 0.05, center=(4.0, 0.0))
    pattern = ScanPattern()
    noise = NoiseConfig()

    trench = VirtualEdit(region=(3.0, -0.5, 3.5, 0.5), height=-1.0)
    edited = emap.apply_edit(trench)

    ts = 0
    for k in range(100):
        ts += 100_000_000
        x = 2.0 + (k % 10) * 0.4  # sweep back and forth across the trench
        pose = Pose(np.array([x, 0.0, 0.4]), IDENTITY_Q, ts)
        scan = lidar_scan(flat, pose, pattern, noise, seed=k)
        emap.integrate_scan(LidarScan(ts, scan.points), pose)

    probes = [emap.height_at(3.25, 0.0), emap.height_at(3.1, -0.3),
              emap.height_at(3.4, 0.4)]
    survived = all(p is not None and abs(p - (-1.0)) < 1e-9 for p in probes)

    # e_t geometry oracle: body at (2.8, 0, 0.4), trench spans offsets
    # [0.2, 0.7] of the forward axis -> samples 0.3..0.6 m read -1.4;
    # samples on flat ground read -0.4
    body = Pose(np.array([2.8, 0.0, 0.4]), IDENTITY_Q, ts)
    local = emap.extract_local(body, LocalMapSpec())
    xs = local.xs
    in_trench = (xs >= 0.25) & (xs <= 0.65)
    mid_y = local.heights.shape[1] // 2
    trench_vals = local.heights[in_trench, mid_y]
    flat_vals = local.heights[(xs < 0.15) | (xs > 0.75), mid_y]
    geometry_ok = (np.allclose(trench_vals, -1.4, atol=1e-6)
                   and np.allclose(flat_vals, -0.4, atol=0.02))

    ok = edited == 10 * 20 and survived and geometry_ok  # half-open region
    _verdict("c10 pinned trench survives 100 scans", ok,
             f"edited={edited} probes={probes} "
             f"trench={trench_vals.tolist()[:3]} flat_med="
             f"{float(np.median(flat_vals)):.3f}")

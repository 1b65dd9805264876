"""A frozen copy of `terraforge.sensors.true_state` as it was written before
`true_states`: one sample at a time, each trajectory kind's closed form in
Python floats. Tests compare the bulk streams and tables against it, so that
they do not compare the code under test with itself.

It is kept verbatim but for the bounds check, which compares integer ns as
`true_states` does: t = ts * 1e-9 can exceed the duration by an ulp at the
last sample of a stream (0.30000000000000004 for 0.3 s).
"""

import math

import numpy as np

from terraforge.geometry import Pose, Quaternion, quat_from_yaw, vec3
from terraforge.sensors import TrajectoryKind, TrajectorySpec, TrueState


def reference_true_state(traj: TrajectorySpec, t: float) -> TrueState:
    """Closed-form kinematic state at time t in [0, duration]."""
    if not 0 <= round(t * 1e9) <= round(traj.duration * 1e9):
        raise ValueError(f"t {t} outside [0, {traj.duration}]")
    h = traj.height_above_ground
    ts = round(t * 1e9)
    k = traj.kind
    if k is TrajectoryKind.STATIC:
        pose = Pose(vec3(0, 0, h), Quaternion(1, 0, 0, 0), ts)
        return TrueState(pose, np.zeros(3), np.zeros(3), np.zeros(3))
    if k is TrajectoryKind.CONSTANT_VELOCITY:
        v = traj.speed
        pose = Pose(vec3(v * t, 0, h), Quaternion(1, 0, 0, 0), ts)
        return TrueState(pose, vec3(v, 0, 0), np.zeros(3), np.zeros(3))
    if k is TrajectoryKind.CIRCLE:
        v, r = traj.speed, traj.radius
        w = v / r
        th = w * t
        pos = vec3(r * math.sin(th), r * (1.0 - math.cos(th)), h)
        vel = vec3(v * math.cos(th), v * math.sin(th), 0.0)
        acc = vec3(-v * w * math.sin(th), v * w * math.cos(th), 0.0)  # |acc| = v^2/r
        pose = Pose(pos, quat_from_yaw(th), ts)
        return TrueState(pose, vel, vec3(0, 0, w), acc)
    if k is TrajectoryKind.SINUSOID:
        v, a, f = traj.speed, traj.amplitude, traj.frequency
        wf = 2.0 * math.pi * f
        pos = vec3(v * t, 0.0, h + a * math.sin(wf * t))
        vel = vec3(v, 0.0, a * wf * math.cos(wf * t))
        acc = vec3(0.0, 0.0, -a * wf * wf * math.sin(wf * t))
        pose = Pose(pos, Quaternion(1, 0, 0, 0), ts)
        return TrueState(pose, vel, np.zeros(3), acc)
    raise ValueError(f"unhandled trajectory kind {k}")

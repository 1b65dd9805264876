"""Observation assembly, command sampling, and the estimator/autoencoder
loss formulas, all as pure functions.

Network architectures and training are out of scope; only the shapes and
the loss arithmetic live here so they can be tested exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .terrain import TerrainType

JOINT_COUNT = 12
FRAME_DIM = 45  # 3 + 3 + 3 + 12 + 12 + 12
HISTORY_FRAMES = 6  # current frame plus 5 past
HISTORY_DIM = FRAME_DIM * HISTORY_FRAMES


@dataclass(frozen=True, eq=False)
class ObservationFrame:
    """One 45-dim proprioceptive frame o_t, or n frames stacked on a
    leading axis of every field.

    All-zero frames are legal (history padding at episode start); any
    other frame must carry a unit gravity direction.
    """

    omega: np.ndarray
    gravity: np.ndarray
    command: np.ndarray
    joint_angles: np.ndarray
    joint_velocities: np.ndarray
    prev_action: np.ndarray

    def __post_init__(self):
        lead = np.shape(self.omega)[:-1]  # () for one frame, (n,) for n
        for name, n in (("omega", 3), ("gravity", 3), ("command", 3),
                        ("joint_angles", JOINT_COUNT),
                        ("joint_velocities", JOINT_COUNT),
                        ("prev_action", JOINT_COUNT)):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != lead + (n,):
                raise ValueError(f"{name} must have shape {lead + (n,)}")
            object.__setattr__(self, name, a)
        live = np.any(self.flatten(), axis=-1)
        if np.any(live & (np.abs(np.linalg.norm(self.gravity, axis=-1) - 1.0) > 1e-6)):
            raise ValueError("gravity must be unit-norm")

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.omega, self.gravity, self.command,
                               self.joint_angles, self.joint_velocities,
                               self.prev_action], axis=-1)

    @classmethod
    def zeros(cls) -> "ObservationFrame":
        z3, z12 = np.zeros(3), np.zeros(JOINT_COUNT)
        return cls(z3, z3, z3, z12, z12, z12)


@dataclass(frozen=True, eq=False)
class ObservationHistory:
    """Newest-first window of 6 frames (o_t through o_{t-5})."""

    frames: tuple[ObservationFrame, ...]

    def __post_init__(self):
        if len(self.frames) != HISTORY_FRAMES:
            raise ValueError(f"history must hold {HISTORY_FRAMES} frames")

    def flatten(self) -> np.ndarray:
        return np.concatenate([f.flatten() for f in self.frames])

    @classmethod
    def zeros(cls) -> "ObservationHistory":
        return cls(tuple(ObservationFrame.zeros() for _ in range(HISTORY_FRAMES)))

    def push(self, frame: ObservationFrame) -> "ObservationHistory":
        return ObservationHistory((frame,) + self.frames[:-1])


# command ranges: omnidirectional on gentle terrain, forward-only on
# gap/platform terrain where lateral or turning commands are unlearnable
_FULL_RANGE = ((-1.2, 1.2), (-1.2, 1.2), (-2.0, 2.0))
_FORWARD_ONLY = ((0.3, 1.2), (0.0, 0.0), (0.0, 0.0))


def sample_command(terrain_type: TerrainType, seed_or_rng) -> np.ndarray:
    """Draw (v_cmd_x, v_cmd_y, omega_cmd_z) for the terrain type."""
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    ranges = (_FORWARD_ONLY if terrain_type in (TerrainType.GAP, TerrainType.HIGH_PLATFORM)
              else _FULL_RANGE)
    return np.array([lo if lo == hi else rng.uniform(lo, hi) for lo, hi in ranges])


def loss_est(v_est, v_true) -> float:
    """Mean squared error of the body-velocity estimate."""
    a, b = np.asarray(v_est, dtype=float), np.asarray(v_true, dtype=float)
    if a.shape != (3,) or b.shape != (3,):
        raise ValueError("velocity must be a 3-vector")
    return float(np.mean((a - b) ** 2))


def kl_diag_gaussian(mu, logvar) -> float:
    """KL(N(mu, diag(exp(logvar))) || N(0, I)), closed form."""
    mu = np.asarray(mu, dtype=float)
    lv = np.asarray(logvar, dtype=float)
    if mu.shape != lv.shape:
        raise ValueError("mu and logvar must have the same shape")
    return float(np.sum(0.5 * (mu**2 + np.exp(lv) - 1.0 - lv)))


def loss_vae(o_next_recon, o_next, mu, logvar, beta: float) -> float:
    """Reconstruction MSE plus beta times the KL to the standard normal."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    a = np.asarray(o_next_recon, dtype=float)
    b = np.asarray(o_next, dtype=float)
    if a.shape != b.shape:
        raise ValueError("reconstruction and target shapes differ")
    return float(np.mean((a - b) ** 2) + beta * kl_diag_gaussian(mu, logvar))


def loss_cenet(est_part: float, vae_part: float) -> float:
    """Joint estimator loss: velocity part plus autoencoder part."""
    if not (math.isfinite(est_part) and math.isfinite(vae_part)):
        raise ValueError("non-finite loss parts")
    return est_part + vae_part


def loss_terrain(e_recon, e_true) -> float:
    """MSE over every cell of the reconstructed elevation patch."""
    a = np.asarray(e_recon, dtype=float)
    b = np.asarray(e_true, dtype=float)
    if a.shape != b.shape:
        raise ValueError("elevation shapes differ")
    return float(np.mean((a - b) ** 2))

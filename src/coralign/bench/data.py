"""Synthetic domain-shift generator.

Both domains draw K Gaussian class clusters (unit noise) around centered
simplex means embedded in the first K-1 axes of a rotated frame.  Target
draws are then passed through a linear map that applies the per-axis
scale vector in that same rotated frame,

    M = R diag(scales) R^T,

followed by an optional constant mean shift and isotropic noise.
Because the class-mean scatter lives in the rotated frame too, M
commutes with the source covariance, which keeps the shift exactly
removable by a covariance-alignment transform — the benchmark then
measures how much of that headroom each method recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import InvalidInputError
from ..linalg import _row_blocks, as_feature_matrix, class_labels

# Rotation seed derived from the data seed when neither angles nor an
# explicit rotation seed are given, so specs stay single-seed.
ROTATION_SEED_OFFSET = 7777


@dataclass
class Dataset:
    """A feature matrix with optional class labels: one per row, checked
    by linalg.class_labels, with classes contiguous from 0."""

    features: np.ndarray
    labels: Optional[np.ndarray]

    def __post_init__(self):
        feats = as_feature_matrix(self.features)
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = class_labels(self.labels, feats.shape[0])
            present = np.unique(labels)
            if not np.array_equal(present, np.arange(len(present))):
                raise InvalidInputError(
                    "class indices must be contiguous starting at 0, got "
                    f"{present.tolist()}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ShiftSpec:
    """Parameters of one synthetic source/target pair.

    ``rotation_angles`` (radians, Givens rotations in consecutive axis
    pairs) pins the frame explicitly; an empty tuple means identity.
    When it is None the frame is a random rotation drawn from
    ``rotation_seed`` (default: seed + ROTATION_SEED_OFFSET).  The
    sequence fields are stored as tuples, so a spec built from lists
    equals, and hashes like, the one built from tuples.
    """

    d: int
    K: int
    n_source: int
    n_target: int
    separation: float
    scales: tuple[float, ...]
    mean_shift: tuple[float, ...]
    noise_std: float
    seed: int
    rotation_angles: Optional[tuple[float, ...]] = None
    rotation_seed: Optional[int] = None

    def __post_init__(self):
        for name in ("scales", "mean_shift", "rotation_angles"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.K < 2:
            raise InvalidInputError("need at least 2 classes")
        if self.d < self.K - 1:
            raise InvalidInputError(
                f"dimension {self.d} cannot hold a {self.K}-class simplex "
                f"(needs d >= {self.K - 1})"
            )
        if self.n_source < 2 * self.K or self.n_target < 2 * self.K:
            raise InvalidInputError("per-domain counts must be >= 2K")
        if len(self.scales) != self.d:
            raise InvalidInputError("scales must have one entry per axis")
        if min(self.scales) <= 0:
            raise InvalidInputError("scales must be strictly positive")
        if len(self.mean_shift) != self.d:
            raise InvalidInputError("mean_shift must have one entry per axis")
        if self.noise_std < 0:
            raise InvalidInputError("noise_std must be >= 0")
        if self.separation < 0:
            raise InvalidInputError("separation must be >= 0")
        if self.rotation_angles is not None and self.rotation_seed is not None:
            raise InvalidInputError(
                "give rotation_angles or rotation_seed, not both"
            )
        if self.rotation_angles is not None and len(self.rotation_angles) > self.d // 2:
            raise InvalidInputError("more rotation angles than axis pairs")
        # numpy's generators take only non-negative seeds
        if self.seed < 0 or (self.rotation_seed is not None and self.rotation_seed < 0):
            raise InvalidInputError("seed and rotation_seed must be >= 0")


def _random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def _angles_rotation(d: int, angles) -> np.ndarray:
    """The product of Givens rotations by angles[i] in axes (2i, 2i+1).
    The axis pairs are disjoint, so the product is block-diagonal: each
    angle's 2 x 2 block is set directly."""
    R = np.eye(d)
    for i, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        R[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, -s], [s, c]]
    return R


def _simplex(K: int) -> np.ndarray:
    """Centered regular K-point simplex in K-1 dims, unit RMS row norm.

    Row i (class i) is built from the real DFT of the K points, columns
    in this order:

        -cos(2 pi k i / K), -sin(2 pi k i / K)   for k = 1 .. (K-1)//2,
        -(-1)**i / sqrt(2)                        as a last column if K is even,

    then scaled to unit RMS row norm.  The columns are orthogonal to the
    all-ones vector and to each other with equal norms, so P P^T is a
    multiple of I - 11^T/K: a regular simplex in which every class is
    treated alike.  K=3 gives (-1, 0), (1/2, -sqrt(3)/2), (1/2, sqrt(3)/2);
    K=2 gives (-1,), (1,).

    The order of the columns fixes which simplex axis meets which per-axis
    scale of the shift, so it has to be the same on every machine.  An SVD
    of I - 11^T/K cannot promise that: the matrix has K-1 equal singular
    values, any orthonormal basis of their subspace is a valid answer, and
    which one comes back depends on the LAPACK build.  This closed form
    makes no LAPACK call.
    """
    i = np.arange(K)[:, None]
    k = np.arange(1, (K - 1) // 2 + 1)[None, :]
    angles = 2.0 * np.pi * k * i / K
    cols = np.stack([-np.cos(angles), -np.sin(angles)], axis=2).reshape(K, -1)
    if K % 2 == 0:
        cols = np.hstack([cols, -((-1.0) ** i) / np.sqrt(2.0)])
    return cols / np.sqrt((cols**2).sum(axis=1).mean())


def _rotation_seed(spec: ShiftSpec) -> int:
    """The seed of the random rotation of a spec without angles."""
    if spec.rotation_seed is not None:
        return spec.rotation_seed
    return spec.seed + ROTATION_SEED_OFFSET


def _rotation_for(spec: ShiftSpec) -> np.ndarray:
    if spec.rotation_angles is not None:
        return _angles_rotation(spec.d, spec.rotation_angles)
    return _random_rotation(spec.d, np.random.default_rng(_rotation_seed(spec)))


def _balanced_labels(n: int, K: int) -> np.ndarray:
    counts = np.full(K, n // K)
    counts[: n % K] += 1
    return np.repeat(np.arange(K), counts)


def _clusters(rng: np.random.Generator, means, labels, d: int) -> np.ndarray:
    """Unit Gaussian draws around the class means of ``labels``: the
    draws made whole, the means added in row blocks."""
    X = rng.standard_normal((len(labels), d))
    for rows in _row_blocks(len(labels), d):
        X[rows] += means[labels[rows]]
    return X


def _shift_features(spec: ShiftSpec):
    """The (source, target) features of generate_shift(spec).

    Entry for entry the arithmetic of the one-expression form
    ``(means[y] + z) @ M.T + mean_shift + noise_std * z'``, with every
    draw in the same order, so the output is bitwise the same.  Only the
    product is formed whole, the rest runs in row blocks: products of
    row blocks are bitwise under OpenBLAS's SkylakeX and Haswell kernels,
    but under Nehalem they moved entries by up to 7e-15 at d = 512 and
    d = 2048."""
    rng = np.random.default_rng(spec.seed)
    R = _rotation_for(spec)
    means = (_simplex(spec.K) * spec.separation) @ R[:, : spec.K - 1].T
    M = (R * np.asarray(spec.scales)) @ R.T
    del R

    X_s = _clusters(rng, means, _balanced_labels(spec.n_source, spec.K), spec.d)
    base = _clusters(rng, means, _balanced_labels(spec.n_target, spec.K), spec.d)
    X_t = base @ M.T
    del base
    shift = np.asarray(spec.mean_shift)
    for rows in _row_blocks(spec.n_target, spec.d):
        block = X_t[rows]
        block += shift
        block += spec.noise_std * rng.standard_normal(block.shape)
    return X_s, X_t


def generate_shift(spec: ShiftSpec) -> tuple[Dataset, Dataset]:
    """Draw one (source, target) pair; deterministic per spec.

    The features are ``_shift_features(spec)``, bitwise the one-expression
    form; its target product ``base @ M.T`` stays whole, because in row
    blocks it would move the target's last bits under OpenBLAS's Nehalem
    kernel."""
    X_s, X_t = _shift_features(spec)
    return (
        Dataset(features=X_s, labels=_balanced_labels(spec.n_source, spec.K)),
        Dataset(features=X_t, labels=_balanced_labels(spec.n_target, spec.K)),
    )


def rotated_anisotropic_spec(
    seed: int,
    d: int = 20,
    K: int = 3,
    n_source: int = 1000,
    n_target: int = 1000,
) -> ShiftSpec:
    """The frozen benchmark shift: rotated anisotropic scaling.

    The K-1 simplex axes alternate strong squash/stretch (0.15 / 2.5) so
    class geometry is genuinely distorted, while the remaining axes get a
    mild geometric ramp of scales; wide separation keeps the task easy
    once the distortion is undone.
    """
    signal = [0.15 if i % 2 == 0 else 2.5 for i in range(K - 1)]
    rest = np.geomspace(0.5, 2.0, d - (K - 1))
    return ShiftSpec(
        d=d,
        K=K,
        n_source=n_source,
        n_target=n_target,
        separation=5.0,
        scales=tuple(signal) + tuple(float(x) for x in rest),
        mean_shift=(0.0,) * d,
        noise_std=0.15,
        seed=seed,
    )

"""Tests for the synthetic domain-shift generator.

Oracles here are closed-form population statistics computed directly in
the tests from the documented sampling model: class clouds are unit
Gaussians around centered means, so the source covariance is
I + mean-scatter, and the target covariance is M Sigma_S M^T + noise^2 I
where M applies the per-axis scales in the rotated frame.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from coralign.bench import data
from coralign.bench.data import (
    Dataset,
    ShiftSpec,
    _angles_rotation,
    _simplex,
    generate_shift,
    rotated_anisotropic_spec,
)
from coralign.errors import InvalidInputError
from coralign.linalg import mean_and_covariance
from coralign import coral, linalg


def make_spec(**kw):
    base = dict(
        d=4,
        K=2,
        n_source=200,
        n_target=200,
        separation=1.0,
        scales=(1.0, 1.0, 1.0, 1.0),
        mean_shift=(0.0, 0.0, 0.0, 0.0),
        noise_std=0.0,
        seed=0,
        rotation_angles=(),
    )
    base.update(kw)
    return ShiftSpec(**base)


class TestDataset:
    def test_label_length_must_match(self):
        with pytest.raises(InvalidInputError):
            Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1]))

    def test_class_indices_must_start_at_zero(self):
        with pytest.raises(InvalidInputError):
            Dataset(features=np.zeros((3, 2)), labels=np.array([1, 2, 1]))

    def test_class_indices_must_be_contiguous(self):
        with pytest.raises(InvalidInputError):
            Dataset(features=np.zeros((3, 2)), labels=np.array([0, 2, 0]))

    def test_unlabeled_allowed(self):
        ds = Dataset(features=np.zeros((3, 2)), labels=None)
        assert ds.n == 3 and ds.d == 2

class TestShiftSpecValidation:
    def test_counts_below_twice_classes_rejected(self):
        with pytest.raises(InvalidInputError):
            make_spec(n_source=3)
        with pytest.raises(InvalidInputError):
            make_spec(n_target=3)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(InvalidInputError):
            make_spec(scales=(1.0, 0.0, 1.0, 1.0))
        with pytest.raises(InvalidInputError):
            make_spec(scales=(1.0, -2.0, 1.0, 1.0))

    def test_scale_length_must_match_dimension(self):
        with pytest.raises(InvalidInputError):
            make_spec(scales=(1.0, 1.0))

    def test_mean_shift_length_must_match_dimension(self):
        with pytest.raises(InvalidInputError):
            make_spec(mean_shift=(0.0,))

    def test_negative_seeds_rejected(self):
        with pytest.raises(InvalidInputError):
            make_spec(seed=-1)
        with pytest.raises(InvalidInputError):
            make_spec(rotation_angles=None, rotation_seed=-1)

    def test_angles_and_rotation_seed_are_exclusive(self):
        with pytest.raises(InvalidInputError):
            make_spec(rotation_angles=(0.5,), rotation_seed=3)

    def test_needs_at_least_two_classes(self):
        with pytest.raises(InvalidInputError):
            make_spec(K=1, n_source=10, n_target=10)

    def test_dimension_must_fit_simplex(self):
        # K class means span a (K-1)-dimensional simplex
        with pytest.raises(InvalidInputError):
            make_spec(d=2, K=4, n_source=20, n_target=20,
                      scales=(1.0, 1.0), mean_shift=(0.0, 0.0))

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidInputError):
            make_spec(noise_std=-0.1)

    @pytest.mark.parametrize("angles", [None, (0.5,)])
    def test_spec_from_lists_equals_spec_from_tuples(self, angles):
        spec = make_spec(rotation_angles=angles)
        listed = dataclasses.replace(
            spec, scales=list(spec.scales), mean_shift=list(spec.mean_shift),
            rotation_angles=None if angles is None else list(angles))
        assert listed == spec
        assert hash(listed) == hash(spec)
        assert isinstance(listed.scales, tuple) and isinstance(listed.mean_shift, tuple)


class TestGenerateShift:
    def test_bit_identical_repeatability(self):
        spec = make_spec(seed=11, noise_std=0.3)
        a_src, a_tgt = generate_shift(spec)
        b_src, b_tgt = generate_shift(spec)
        np.testing.assert_array_equal(a_src.features, b_src.features)
        np.testing.assert_array_equal(a_tgt.features, b_tgt.features)
        np.testing.assert_array_equal(a_src.labels, b_src.labels)
        np.testing.assert_array_equal(a_tgt.labels, b_tgt.labels)

    def test_shapes_names_and_balanced_priors(self):
        spec = make_spec(n_source=203, n_target=101, K=2)
        src, tgt = generate_shift(spec)
        assert src.features.shape == (203, 4)
        assert tgt.features.shape == (101, 4)
        for ds in (src, tgt):
            counts = np.bincount(ds.labels, minlength=2)
            assert counts.max() - counts.min() <= 1
            assert counts.sum() == ds.n

    def test_identity_shift_matches_source_distribution(self):
        # identity rotation, unit scales, zero shift, zero noise: both
        # domains sample the same population, so empirical covariances
        # agree within sampling concentration (bound sized for a
        # near-unit covariance, hence the modest separation)
        spec = make_spec(n_source=2000, n_target=2000, seed=5, separation=0.5)
        src, tgt = generate_shift(spec)
        cs = mean_and_covariance(src.features)
        ct = mean_and_covariance(tgt.features)
        gap = np.linalg.norm(cs.cov - ct.cov)
        assert gap < 0.2
        assert np.linalg.norm(cs.mean - ct.mean) < 0.15

    def test_identity_shift_matches_population_covariance(self):
        # population oracle: cov = I + sep^2 * u u^T with u the single
        # simplex direction (first rotated axis; rotation here is I)
        spec = make_spec(n_source=2000, n_target=2000, seed=6, separation=1.5)
        src, _ = generate_shift(spec)
        u = np.array([1.0, 0.0, 0.0, 0.0])
        pop = np.eye(4) + spec.separation**2 * np.outer(u, u)
        cs = mean_and_covariance(src.features)
        assert np.linalg.norm(cs.cov - pop) < 0.35

    def test_quarter_turn_anisotropic_population_oracle(self):
        # 2-D, 90 degree rotation, scales (4, 1).  Build the target map
        # in the test by hand: M = R diag(scales) R^T.
        n = 4000
        spec = ShiftSpec(
            d=2, K=2, n_source=n, n_target=n,
            separation=1.5, scales=(4.0, 1.0), mean_shift=(0.0, 0.0),
            noise_std=0.1, seed=21, rotation_angles=(np.pi / 2,),
        )
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        u = R[:, 0]
        sigma_s = np.eye(2) + spec.separation**2 * np.outer(u, u)
        M = R @ np.diag([4.0, 1.0]) @ R.T
        sigma_t = M @ sigma_s @ M.T + spec.noise_std**2 * np.eye(2)

        src, tgt = generate_shift(spec)
        cs = mean_and_covariance(src.features)
        ct = mean_and_covariance(tgt.features)
        assert np.linalg.norm(cs.cov - sigma_s) / np.linalg.norm(sigma_s) < 0.1
        assert np.linalg.norm(ct.cov - sigma_t) / np.linalg.norm(sigma_t) < 0.1
        # populations genuinely differ
        assert np.linalg.norm(sigma_s - sigma_t) > 1.0

    def test_quarter_turn_alignment_restores_covariance(self):
        n = 4000
        spec = ShiftSpec(
            d=2, K=2, n_source=n, n_target=n,
            separation=1.5, scales=(4.0, 1.0), mean_shift=(0.0, 0.0),
            noise_std=0.1, seed=22, rotation_angles=(np.pi / 2,),
        )
        src, tgt = generate_shift(spec)
        cs = mean_and_covariance(src.features)
        ct = mean_and_covariance(tgt.features)
        pre = np.linalg.norm(cs.cov - ct.cov)
        tr = coral.fit_analytical(src.features, tgt.features)
        aligned = coral.apply_to_features(tr, src.features)
        post = np.linalg.norm(mean_and_covariance(aligned).cov - ct.cov)
        assert post < 0.05 * pre

    def test_mean_shift_moves_target(self):
        shift = (3.0, -2.0, 0.0, 1.0)
        spec = make_spec(n_source=2000, n_target=2000, mean_shift=shift, seed=9)
        _, tgt = generate_shift(spec)
        got = mean_and_covariance(tgt.features).mean
        np.testing.assert_allclose(got, shift, atol=0.2)

    def test_random_rotation_seed_is_deterministic_and_orthogonal_effect(self):
        # same data seed, same rotation seed -> identical; different
        # rotation seed -> different target geometry
        a = make_spec(rotation_angles=None, rotation_seed=5, seed=3,
                      scales=(4.0, 1.0, 0.5, 2.0))
        b = make_spec(rotation_angles=None, rotation_seed=5, seed=3,
                      scales=(4.0, 1.0, 0.5, 2.0))
        c = make_spec(rotation_angles=None, rotation_seed=6, seed=3,
                      scales=(4.0, 1.0, 0.5, 2.0))
        ta = generate_shift(a)[1].features
        tb = generate_shift(b)[1].features
        tc = generate_shift(c)[1].features
        np.testing.assert_array_equal(ta, tb)
        assert not np.array_equal(ta, tc)


def one_expression_shift(spec):
    """Oracle: generate_shift as one whole-array expression per domain."""
    rng = np.random.default_rng(spec.seed)
    R = data._rotation_for(spec)
    means = (_simplex(spec.K) * spec.separation) @ R[:, : spec.K - 1].T
    M = (R * np.asarray(spec.scales)) @ R.T
    y_s = data._balanced_labels(spec.n_source, spec.K)
    X_s = means[y_s] + rng.standard_normal((spec.n_source, spec.d))
    y_t = data._balanced_labels(spec.n_target, spec.K)
    base = means[y_t] + rng.standard_normal((spec.n_target, spec.d))
    X_t = (base @ M.T + np.asarray(spec.mean_shift)
           + spec.noise_std * rng.standard_normal((spec.n_target, spec.d)))
    return X_s, X_t


BLOCKED_SPECS = {
    "tall": rotated_anisotropic_spec(4, d=12, n_source=700, n_target=900),
    "wide": rotated_anisotropic_spec(5, d=96, n_source=40, n_target=70),
    "even_K": make_spec(K=4, d=6, n_source=300, n_target=500, noise_std=0.2,
                        scales=(2.0, 0.5, 1.0, 3.0, 1.5, 0.25),
                        mean_shift=(0.5, 0.0, -1.0, 2.0, 0.0, 0.125),
                        rotation_angles=None, seed=13),
    "shift_without_noise": make_spec(mean_shift=(3.0, -2.0, 0.0, 1e-3), noise_std=0.0,
                                     scales=(4.0, 1.0, 0.5, 2.0), rotation_angles=None,
                                     seed=14),
}


class TestGenerateShiftInRowBlocks:
    @pytest.mark.parametrize("block_entries", [linalg._BLOCK_ENTRIES, 50])
    @pytest.mark.parametrize("name", sorted(BLOCKED_SPECS))
    def test_bytes_equal_one_expression_form(self, name, block_entries, monkeypatch):
        # 50 entries per block: a few rows per block and a short last block
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", block_entries)
        spec = BLOCKED_SPECS[name]
        src, tgt = generate_shift(spec)
        want_s, want_t = one_expression_shift(spec)
        assert src.features.tobytes() == want_s.tobytes()
        assert tgt.features.tobytes() == want_t.tobytes()

    def test_peak_memory_at_most_3_25_output_sized_arrays(self):
        # source, target and the target's pre-map draws live at once; the
        # rest is row blocks and d x d matrices.  A small untraced call
        # first, so numpy's lazily imported modules are not counted
        n, d = 4000, 256
        spec = rotated_anisotropic_spec(0, d=d, n_source=n, n_target=n)
        generate_shift(rotated_anisotropic_spec(0, d=16, n_source=40, n_target=40))
        tracemalloc.start()
        try:
            generate_shift(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * n * d * 8


class TestRotatedAnisotropicSpec:
    def test_frozen_benchmark_shape(self):
        spec = rotated_anisotropic_spec(seed=0)
        assert spec.d == 20 and spec.K == 3
        assert spec.n_source == 1000 and spec.n_target == 1000
        assert len(spec.scales) == 20
        assert min(spec.scales) > 0

    def test_generates_a_real_covariance_gap(self):
        spec = rotated_anisotropic_spec(seed=4)
        src, tgt = generate_shift(spec)
        cs = mean_and_covariance(src.features)
        ct = mean_and_covariance(tgt.features)
        assert np.linalg.norm(cs.cov - ct.cov) > 5.0

    def test_different_seeds_differ(self):
        a = generate_shift(rotated_anisotropic_spec(seed=1))[0].features
        b = generate_shift(rotated_anisotropic_spec(seed=2))[0].features
        assert not np.array_equal(a, b)


# Per-class source means of generate_shift(rotated_anisotropic_spec(0)),
# recorded from the closed-form simplex.  The tolerance below admits the
# rounding of any BLAS build, but not another basis of the simplex.
SEED0_SOURCE_CLASS_MEANS = [
    [-0.996824230225, 0.857208260310, 0.733924329087, 0.095447065348,
     0.203130778456, 1.350673671182, -1.115792573332, 0.832908965520,
     -0.948991782990, -0.268861993141, -1.773581969784, 2.450797367301,
     0.815945534600, 0.226497975045, 1.238060809924, -2.071411392625,
     -0.385152734335, -0.097724144571, -0.029292649487, -1.496463653370],
    [2.970151104407, -1.711068616792, 0.021924174644, 0.533172569550,
     -0.420264846855, 0.174379613925, 0.889904752849, -0.703378494480,
     1.697151601751, 1.095777699369, -0.733763988991, -0.927014373529,
     0.070224664369, 0.314220110137, -1.044190205202, 0.673456298734,
     0.525681625676, 0.920317012304, 1.697792327233, 0.630081140913],
    [-1.926025772061, 0.952930655817, -0.755557488416, -0.712438432251,
     0.333153614298, -1.468356339885, 0.067957941596, -0.087905972438,
     -0.528857745442, -0.825024759383, 2.424448893462, -1.509504842992,
     -0.916448721352, -0.604758535981, -0.083043377886, 1.329764823846,
     -0.233918631198, -0.815083462888, -1.632251850482, 0.977180588460],
]


class TestSimplexIsClosedForm:
    """The simplex basis must not depend on the LAPACK build."""

    @pytest.mark.parametrize("K", [2, 3, 4, 10])
    def test_regular_centred_simplex(self, K):
        P = _simplex(K)
        assert P.shape == (K, K - 1)
        np.testing.assert_allclose(P.sum(axis=0), 0.0, atol=1e-12)
        # unit row norms, pairwise inner products -1/(K-1)
        expected_gram = (K * np.eye(K) - np.ones((K, K))) / (K - 1)
        np.testing.assert_allclose(P @ P.T, expected_gram, atol=1e-12)

    def test_three_class_vertices(self):
        h = np.sqrt(3.0) / 2.0
        expected = [[-1.0, 0.0], [0.5, -h], [0.5, h]]
        np.testing.assert_allclose(_simplex(3), expected, rtol=0, atol=1e-12)

    def test_frozen_shift_class_means_are_recorded_values(self):
        src, _ = generate_shift(rotated_anisotropic_spec(0))
        got = [src.features[src.labels == c].mean(axis=0) for c in range(3)]
        np.testing.assert_allclose(got, SEED0_SOURCE_CLASS_MEANS, rtol=0, atol=1e-9)


def givens_product(d, angles):
    """Oracle: the rotation as the product of one d x d Givens matrix per
    angle, each applied on the left."""
    R = np.eye(d)
    for i, theta in enumerate(angles):
        G = np.eye(d)
        a, b = 2 * i, 2 * i + 1
        G[a, a] = G[b, b] = np.cos(theta)
        G[a, b], G[b, a] = -np.sin(theta), np.sin(theta)
        R = G @ R
    return R


class TestAnglesRotation:
    @pytest.mark.parametrize("d", [2, 3, 7, 20, 64, 257])
    def test_equals_the_givens_product(self, d):
        rng = np.random.default_rng(d)
        for k in sorted({0, 1, d // 2}):
            angles = tuple(rng.uniform(-np.pi, np.pi, k))
            np.testing.assert_array_equal(_angles_rotation(d, angles),
                                          givens_product(d, angles))

    def test_builds_no_matrix_beside_the_rotation(self):
        # one d x d Givens matrix and one product per angle cost O(k d^3):
        # 1.06 s at d = 512 with 256 angles
        d = 257
        angles = tuple(np.linspace(-3.0, 3.0, d // 2))
        tracemalloc.start()
        try:
            R = _angles_rotation(d, angles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * R.nbytes

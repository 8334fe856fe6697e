"""Tests for the k-nearest-neighbour mutual information estimator."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedtop import digamma, ksg_mi
from kickedtop.mutual_info import _joint_knn_radii, _psi_table


def gaussian_pairs(rho, n, seed):
    rng = np.random.default_rng(seed)
    return rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=n)


class TestPsiTable:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6000))
    def test_entries_equal_per_call_digamma(self, data, n):
        m = data.draw(st.integers(1, n))
        assert _psi_table(n)[m - 1] == digamma(m)
        assert _psi_table(n)[m - 1] == digamma(np.array([m, n]))[0]

    def test_cache_stays_bounded(self):
        samples = gaussian_pairs(0.3, 40, seed=1)
        for n in range(20, 40):
            ksg_mi(samples[:n], k=3)
        info = _psi_table.cache_info()
        assert info.maxsize is not None
        assert info.currsize == info.maxsize


class TestDigamma:
    def test_frozen_values(self):
        assert abs(digamma(1.0) - (-0.5772156649)) < 1e-9
        assert abs(digamma(2.0) - 0.4227843351) < 1e-9
        # psi(1/2) = -gamma - 2 ln 2
        assert abs(digamma(0.5) - (-1.9635100260)) < 1e-9

    def test_recurrence(self):
        for x in (0.3, 1.7, 4.2, 9.9):
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12

    def test_against_scipy(self):
        grid = np.concatenate([
            np.array([1e-3, 1e-2, 0.1, 0.5, 0.99, 1.0, 1.5, 5.999, 6.0, 6.001]),
            np.arange(1, 51, dtype=float),
            np.array([1e2, 1e4, 1e8]),
        ])
        err = np.max(np.abs(digamma(grid) - scipy.special.digamma(grid)))
        assert err < 1e-10

    def test_vector_and_scalar_forms(self):
        vec = digamma(np.array([1.0, 2.0]))
        assert vec.shape == (2,)
        assert isinstance(digamma(3.0), float)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)


class TestKnnSearch:
    # _joint_knn_radii is the estimator's one neighbour search
    def test_three_point_line(self):
        radii = _joint_knn_radii(np.array([[0.0], [1.0], [3.0]]), 1)
        np.testing.assert_array_equal(radii, [1.0, 1.0, 2.0])

    def test_duplicate_gives_zero_distance(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [2.0, 2.0]])
        np.testing.assert_array_equal(_joint_knn_radii(pts, 1), [0.0, 0.0, 1.5])

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [5, 30, 199, 500])
    def test_tree_radii_match_brute_force(self, n, k):
        # rounding to one decimal makes distance ties and, at the larger n,
        # exact duplicates
        rng = np.random.default_rng(3)
        pts = np.round(rng.normal(size=(n, 2)), 1)
        cheb = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)
        np.fill_diagonal(cheb, np.inf)
        brute = np.sort(cheb, axis=1)[:, k - 1]
        np.testing.assert_array_equal(_joint_knn_radii(pts, k), brute)


class TestKsgMi:
    def test_independent_uniforms_near_zero(self):
        rng = np.random.default_rng(7)
        samples = np.column_stack([rng.uniform(size=2000), rng.uniform(size=2000)])
        assert abs(ksg_mi(samples, k=3).value) < 0.05

    def test_gaussian_against_analytic_value(self):
        est = ksg_mi(gaussian_pairs(0.6, 5000, seed=21), k=3)
        assert abs(est.value - 0.2231) < 0.05
        assert est.k == 3 and est.n == 5000

    def test_k_insensitivity_on_gaussian(self):
        samples = gaussian_pairs(0.6, 5000, seed=21)
        assert abs(ksg_mi(samples, k=3).value - ksg_mi(samples, k=10).value) < 0.05

    def test_identical_variables_diverge_with_n(self):
        # perfect dependence has no finite MI; the jittered estimate is
        # finite but grows without bound as n increases
        x_small = np.random.default_rng(3).normal(size=300)
        x_large = np.random.default_rng(3).normal(size=1000)
        small = ksg_mi(np.column_stack([x_small, x_small]), k=3).value
        large = ksg_mi(np.column_stack([x_large, x_large]), k=3).value
        assert np.isfinite(small) and np.isfinite(large)
        assert large > small > 1.0

    def test_deterministic(self):
        samples = gaussian_pairs(0.4, 600, seed=11)
        assert ksg_mi(samples, k=3).value == ksg_mi(samples.copy(), k=3).value

    def test_exact_permutation_invariance(self):
        samples = gaussian_pairs(0.4, 700, seed=5)
        shuffled = samples[np.random.default_rng(0).permutation(700)]
        assert ksg_mi(samples, k=3).value == ksg_mi(shuffled, k=3).value

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 260), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
           rounding=st.sampled_from([None, 1, 2]), stack=st.integers(1, 5))
    def test_permutation_invariance_property(self, n, seed, k, rounding, stack):
        # rounding makes ties and exact duplicates; a (B, n, 2) stack gives
        # each ensemble the bits it has alone, in stack order
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(stack, n, 2))
        samples[..., 1] += 0.5 * samples[..., 0]
        if rounding is not None:
            samples = np.round(samples, rounding)
        alone = [ksg_mi(ensemble, k=k).value for ensemble in samples]
        shuffled = samples[:, rng.permutation(n)]
        assert ksg_mi(shuffled[0], k=k).value == alone[0]
        estimate = ksg_mi(samples, k=k)
        assert estimate.value.shape == (stack,) and estimate.n == n
        assert estimate.value.tolist() == alone
        assert ksg_mi(shuffled[::-1], k=k).value.tolist() == alone[::-1]
        for bad in (samples[..., :1].repeat(3, axis=-1), samples[0, :, 0], samples[np.newaxis]):
            with pytest.raises(ValueError, match="samples must have shape"):
                ksg_mi(bad, k=k)

    def test_monotone_reparametrization_stability(self):
        # MI is invariant under strictly increasing maps of one marginal;
        # the estimator tracks that within its sampling error
        samples = gaussian_pairs(0.6, 2000, seed=21)
        warped = np.column_stack([np.exp(samples[:, 0]), samples[:, 1]])
        assert abs(ksg_mi(samples, k=3).value - ksg_mi(warped, k=3).value) < 0.06

    def test_marginal_scale_invariance(self):
        samples = gaussian_pairs(0.6, 2000, seed=21)
        rescaled = np.column_stack([samples[:, 0] * 1e-3, samples[:, 1]])
        assert abs(ksg_mi(samples, k=3).value - ksg_mi(rescaled, k=3).value) < 1e-3

    def test_zero_in_expectation_over_replicates(self):
        values = []
        for rep in range(50):
            rng = np.random.default_rng(1000 + rep)
            pairs = np.column_stack([rng.normal(size=500), rng.normal(size=500)])
            values.append(ksg_mi(pairs, k=3).value)
        assert abs(np.mean(values)) < 0.02

    def test_duplicate_heavy_input_does_not_crash(self):
        # early bipartite steps produce many exact duplicates; jitter must
        # keep the counts finite rather than raising
        rng = np.random.default_rng(2)
        a = np.repeat(rng.normal(size=10), 30)
        b = np.repeat(rng.normal(size=10), 30)
        est = ksg_mi(np.column_stack([a, b]), k=3)
        assert np.isfinite(est.value)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            ksg_mi(np.zeros((4, 2)), k=3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ksg_mi(np.zeros((10, 3)), k=3)

    def test_rejects_nonfinite(self):
        samples = gaussian_pairs(0.0, 50, seed=1)
        samples[3, 1] = np.nan
        with pytest.raises(ValueError):
            ksg_mi(samples, k=3)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ksg_mi(gaussian_pairs(0.0, 50, seed=1), k=0)

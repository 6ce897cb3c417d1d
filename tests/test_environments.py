"""Tests for context sampling, preprocessing, and the bandit environments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbandit.environments import (
    DatasetBandit,
    SyntheticBandit,
    load_csv,
    preprocess_batch,
    sample_unit_ball,
)


class TestSampleUnitBall:
    def test_radius_distribution_matches_volume_ratio(self):
        rng = np.random.default_rng(100)
        samples = np.stack([sample_unit_ball(3, rng) for _ in range(100_000)])
        frac = np.mean(np.linalg.norm(samples, axis=1) <= 0.5)
        assert frac == pytest.approx(0.125, abs=0.01)

    def test_all_samples_inside_the_ball(self):
        rng = np.random.default_rng(101)
        for d in (1, 2, 7):
            for _ in range(200):
                assert np.linalg.norm(sample_unit_ball(d, rng)) <= 1.0 + 1e-12

    def test_componentwise_mean_near_zero(self):
        rng = np.random.default_rng(102)
        samples = np.stack([sample_unit_ball(4, rng) for _ in range(20_000)])
        # each coordinate has variance <= 1/d; 3 sigma of the sample mean
        bound = 3.0 * np.sqrt(0.25 / samples.shape[0])
        assert np.all(np.abs(samples.mean(axis=0)) <= bound)

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            sample_unit_ball(0, np.random.default_rng(0))


class TestPreprocess:
    def test_unit_vector_example(self):
        out = preprocess_batch(np.array([[1.0, 0.0]]))
        assert np.allclose(out, np.array([[1, 0, 1, 0]]) / np.sqrt(2), atol=1e-15)

    def test_normalizes_before_duplicating(self):
        out = preprocess_batch(np.array([[3.0, 4.0]]))
        assert np.allclose(out, np.array([[0.6, 0.8, 0.6, 0.8]]) / np.sqrt(2), atol=1e-15)

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_output_is_unit_norm_with_equal_halves(self, seed, d):
        x = np.random.default_rng(seed).standard_normal((1, d))
        out = preprocess_batch(x)
        assert out.shape == (1, 2 * d)
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-10)
        assert np.array_equal(out[0, :d], out[0, d:])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            preprocess_batch(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            preprocess_batch(np.zeros((2, 3)))

    def test_batch_matches_single(self):
        x = np.random.default_rng(103).standard_normal((5, 3))
        batch = preprocess_batch(x)
        for row, single in zip(batch, (preprocess_batch(r[None, :])[0] for r in x)):
            assert np.allclose(row, single, atol=1e-15)


class TestSyntheticBandit:
    def env(self, kind, seed=104, noise=0.0, d=4):
        return SyntheticBandit(kind, d, 3, noise, np.random.default_rng(seed))

    def test_h1_hand_value(self):
        env = self.env("h1")
        env.a = np.array([1.0, 0.0, 0.0, 0.0])
        assert env.mean_rewards(np.array([[1.0, 0, 0, 0]]))[0] == pytest.approx(10.0)

    def test_h2_identity_matrix_gives_squared_norm(self):
        env = self.env("h2")
        env.a_mat = np.eye(4)
        x = np.array([0.1, 0.2, -0.3, 0.4])
        assert env.mean_rewards(x[None, :])[0] == pytest.approx(float(x @ x))

    def test_h3_orthogonal_context(self):
        env = self.env("h3")
        env.a = np.array([1.0, 0.0, 0.0, 0.0])
        assert env.mean_rewards(np.array([[0.0, 1.0, 0, 0]]))[0] == pytest.approx(1.0)

    def test_linear_kind(self):
        env = self.env("linear")
        env.a = np.array([0.5, 0.5, 0.0, 0.0])
        assert env.mean_rewards(np.array([[1.0, -1.0, 0, 0]]))[0] == pytest.approx(0.0)

    def test_h1_means_bounded_on_the_ball(self):
        env = self.env("h1", seed=105)
        contexts = np.stack([sample_unit_ball(4, env.rng) for _ in range(500)])
        means = env.mean_rewards(contexts)
        assert np.all(means >= 0.0) and np.all(means <= 10.0)

    def test_secret_parameters_in_the_ball(self):
        for seed in range(10):
            env = self.env("h1", seed=seed)
            assert np.linalg.norm(env.a) <= 1.0 + 1e-12

    def test_contexts_emitted_inside_the_ball(self):
        env = self.env("h2", seed=106)
        for _ in range(20):
            contexts = env.next_round()
            assert contexts.shape == (3, 4)
            assert np.all(np.linalg.norm(contexts, axis=1) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("d", [1, 3, 20])
    def test_next_round_draws_the_stacked_samples_bit_for_bit(self, d):
        def stacked_round(rng):
            # one sample_unit_ball per arm, normed by np.linalg.norm, then stacked
            rows = []
            for _ in range(4):
                while True:
                    g = rng.standard_normal(d)
                    norm = np.linalg.norm(g)
                    if norm > 0:
                        break
                rows.append((rng.random() ** (1.0 / d) / norm) * g)
            return np.stack(rows)

        env = SyntheticBandit("h3", d, 4, 1.0, np.random.default_rng(108),
                              secret_rng=np.random.default_rng(109))
        twin = np.random.default_rng(108)
        for _ in range(50):
            assert env.next_round().tobytes() == stacked_round(twin).tobytes()

    def test_noiseless_reward_equals_mean(self):
        env = self.env("h3", seed=107, noise=0.0)
        assert env.noisy_reward(0.42) == 0.42

    def test_shared_secret_with_separate_streams(self):
        secret = np.random.default_rng(1)
        e1 = SyntheticBandit("h1", 4, 3, 1.0, np.random.default_rng(2), secret_rng=secret)
        secret = np.random.default_rng(1)
        e2 = SyntheticBandit("h1", 4, 3, 1.0, np.random.default_rng(3), secret_rng=secret)
        assert np.array_equal(e1.a, e2.a)

    @pytest.mark.parametrize("d,num_actions,noise_scale,message", [
        pytest.param(2.5, 3, 1.0, "d must be an integer", id="fractional-d"),
        pytest.param(0, 3, 1.0, "d must be >= 1", id="zero-d"),
        pytest.param(4, 2.5, 1.0, "num_actions must be an integer", id="fractional-num-actions"),
        pytest.param(4, 0, 1.0, "num_actions must be >= 1", id="zero-num-actions"),
        pytest.param(4, 3, np.nan, "noise_scale must be finite", id="nan-noise-scale"),
        pytest.param(4, 3, "1", "noise_scale must be a real number", id="string-noise-scale"),
        pytest.param(4, 3, -1.0, "noise_scale must be >= 0", id="negative-noise-scale"),
    ])
    def test_invalid_input_rejected_by_name(self, d, num_actions, noise_scale, message):
        with pytest.raises((TypeError, ValueError), match=f"^{message}"):
            SyntheticBandit("h1", d, num_actions, noise_scale, np.random.default_rng(0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown reward kind"):
            SyntheticBandit("h4", 4, 3, 1.0, np.random.default_rng(0))


class TestDatasetBandit:
    def test_disjoint_embedding_example(self):
        features = np.array([[0.5, 0.5]])
        labels = np.array([1])
        env = DatasetBandit(features, labels, 2)
        contexts = env.next_round()
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(contexts[0], [s, s, 0, 0], atol=1e-15)
        assert np.allclose(contexts[1], [0, 0, s, s], atol=1e-15)
        doubled = preprocess_batch(contexts)
        assert doubled.shape == (2, 8)

    def test_choosing_true_label_has_zero_regret(self):
        rng = np.random.default_rng(108)
        env = DatasetBandit(rng.standard_normal((10, 3)), rng.integers(0, 4, 10), 4,
                            rng=rng)
        contexts = env.next_round()
        means = env.mean_rewards(contexts)
        best = int(np.argmax(means))
        assert means[best] == 1.0
        assert np.max(means) - means[best] == 0.0

    def test_exactly_one_nonzero_block_per_arm(self):
        rng = np.random.default_rng(109)
        env = DatasetBandit(rng.standard_normal((5, 3)), rng.integers(0, 3, 5), 3,
                            rng=rng)
        contexts = env.next_round()
        for a in range(3):
            blocks = contexts[a].reshape(3, 3)
            nonzero = [i for i in range(3) if np.any(blocks[i] != 0)]
            assert nonzero == [a]
            assert np.linalg.norm(blocks[a]) == pytest.approx(1.0)

    def test_uniform_policy_regret_calibration(self):
        rng = np.random.default_rng(110)
        n, k = 10_000, 4
        env = DatasetBandit(rng.standard_normal((n, 2)), rng.integers(0, k, n), k,
                            rng=rng)
        pick = np.random.default_rng(111)
        regret = 0.0
        for _ in range(n):
            env.next_round()
            means = env.mean_rewards(None)
            regret += 1.0 - means[pick.integers(k)]
        assert regret / n == pytest.approx((k - 1) / k, abs=0.02)

    def test_zero_feature_rows_replaced_with_warning(self):
        features = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.warns(UserWarning, match="zero feature row"):
            env = DatasetBandit(features, np.array([0, 1]), 2)
        contexts = env.next_round()
        assert np.allclose(contexts[0][:2], [1.0, 0.0])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            DatasetBandit(np.ones((2, 2)), np.array([0, 5]), 3)

    def test_exhaustion_raises(self):
        env = DatasetBandit(np.ones((2, 2)), np.array([0, 1]), 2)
        env.next_round()
        env.next_round()
        with pytest.raises(RuntimeError, match="exhausted"):
            env.next_round()

    def test_shuffle_is_a_permutation(self):
        rng = np.random.default_rng(112)
        features = np.arange(12, dtype=float).reshape(6, 2) + 1.0
        labels = np.arange(6) % 2
        plain = DatasetBandit(features, labels, 2)
        shuffled = DatasetBandit(features, labels, 2, rng=np.random.default_rng(4))
        assert plain.order.tolist() == list(range(6))
        assert sorted(shuffled.order.tolist()) == plain.order.tolist()


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_labels_mapped_in_first_appearance_order(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1,2,cat\n3,4,dog\n5,6,cat\n")
        ds = load_csv(path, "label")
        assert ds.label_names == ["cat", "dog"]
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.num_classes == 2
        assert ds.features.shape == (3, 2)

    @pytest.mark.parametrize("cell", ["", "nan", "inf", "-Infinity"],
                             ids=["empty", "nan", "inf", "-Infinity"])
    def test_non_numeric_cell_names_row_and_column(self, tmp_path, cell):
        path = self.write(tmp_path, f"a,b,label\n1,2,cat\n3,{cell},dog\n")
        with pytest.raises(ValueError, match=r"row 3.*'b'"):
            load_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path, "label")

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1,2,cat\n1,2,3,dog\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, "label")

    def test_shuffled_load_is_permutation_of_plain(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1,u\n2,v\n3,u\n4,v\n")
        ds = load_csv(path, "label")
        env = DatasetBandit(ds.features, ds.labels, ds.num_classes,
                            rng=np.random.default_rng(6))
        visited = [env.order[i] for i in range(4)]
        assert sorted(visited) == [0, 1, 2, 3]

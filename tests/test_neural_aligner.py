import numpy as np
import pytest

from conftest import heldout_cross_entropy
from digitsv.errors import DigitsvError, FormatError, NonFiniteLoss
from digitsv.features import FeatureKind, FeatureSequence
from digitsv.hmm import N_STATES
from digitsv.neural_aligner import (
    MlpModel,
    MlpTrainConfig,
    loss_and_gradients,
    mlp_posteriors,
    posterior_matrix,
    train_mlp,
)


def toy_model(sizes=(6, 8, 5), seed=0):
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((a, b)) * 0.5 for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(b) * 0.1 for b in sizes[1:]]
    priors = np.full(sizes[-1], 1.0 / sizes[-1])
    return MlpModel(weights, biases, np.zeros(sizes[0]), np.ones(sizes[0]),
                    FeatureKind.SPLICED, priors)


def separable_set(n=300, seed=1):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    x = rng.standard_normal((n, 4)) + 6.0 * labels[:, None]
    return x, labels


class TestTraining:
    def test_linearly_separable_toy_problem(self):
        x, y = separable_set()
        cfg = MlpTrainConfig(hidden_dims=(16,), n_outputs=2, epochs=20,
                             batch_size=32, seed=0)
        model = train_mlp(x, y, cfg)
        acc = (posterior_matrix(model, x).argmax(axis=1) == y).mean()
        assert acc >= 0.99

    def test_default_layout(self):
        cfg = MlpTrainConfig()
        assert cfg.hidden_dims == (512, 512, 512, 512)
        assert cfg.n_outputs == 33

    def test_missing_class_rejected(self):
        x, y = separable_set()
        cfg = MlpTrainConfig(hidden_dims=(8,), n_outputs=3, epochs=1)
        with pytest.raises(DigitsvError, match="no training examples for states"):
            train_mlp(x, y, cfg)  # label 2 never occurs

    def test_determinism(self):
        x, y = separable_set(seed=3)
        cfg = MlpTrainConfig(hidden_dims=(12,), n_outputs=2, epochs=4, seed=11)
        a = train_mlp(x, y, cfg)
        b = train_mlp(x, y, cfg)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_checkpoint(self):
        x, y = separable_set(seed=5)
        cfg = MlpTrainConfig(hidden_dims=(8,), n_outputs=2, epochs=5,
                             learning_rate=float("inf"), seed=0)
        with pytest.raises(NonFiniteLoss) as err:
            train_mlp(x, y, cfg)
        assert err.value.checkpoint is not None
        assert isinstance(err.value.checkpoint, MlpModel)

    def test_beats_prior_baseline(self):
        x, y = separable_set(seed=7)
        cfg = MlpTrainConfig(hidden_dims=(16,), n_outputs=2, epochs=20,
                             batch_size=32, seed=2)
        ce = heldout_cross_entropy(train_mlp(x, y, cfg), x, y)
        counts = np.bincount(y) / len(y)
        assert ce < -np.log(counts.max())


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        model = toy_model()
        x = rng.standard_normal((12, 6))
        y = rng.integers(0, 5, 12)
        _, grads_w, grads_b = loss_and_gradients(model, x, y)
        h = 1e-5
        for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
            for tensor, grad in zip(params, grads):
                flat = tensor.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up, _, _ = loss_and_gradients(model, x, y)
                    flat[idx] = orig - h
                    down, _, _ = loss_and_gradients(model, x, y)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * h)
                    analytic = grad.reshape(-1)[idx]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / denom < 1e-4


class TestPosteriors:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = toy_model(sizes=(1320, 16, N_STATES))
        feats = FeatureSequence(rng.standard_normal((7, 1320)), FeatureKind.SPLICED)
        align = mlp_posteriors(model, feats)
        np.testing.assert_allclose(align.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_output_layer_gives_uniform(self):
        model = toy_model(sizes=(1320, 16, N_STATES))
        model.weights[-1][:] = 0.0
        model.biases[-1][:] = 0.0
        feats = FeatureSequence(np.random.default_rng(1).standard_normal((3, 1320)),
                                FeatureKind.SPLICED)
        align = mlp_posteriors(model, feats)
        np.testing.assert_allclose(align, 1.0 / N_STATES, atol=1e-12)

    def test_wrong_kind_rejected(self):
        model = toy_model(sizes=(1320, 16, N_STATES))
        feats = FeatureSequence(np.zeros((3, 60)), FeatureKind.MFCC60)
        with pytest.raises(DigitsvError, match="model expects"):
            mlp_posteriors(model, feats)

    def test_posterior_depends_only_on_local_window(self):
        rng = np.random.default_rng(4)
        model = toy_model(sizes=(1320, 16, N_STATES))
        frames = rng.standard_normal((9, 1320))
        base = posterior_matrix(model, frames)
        shuffled = frames.copy()
        shuffled[[0, 8]] = shuffled[[8, 0]]  # permute frames far from t=4
        after = posterior_matrix(model, shuffled)
        np.testing.assert_array_equal(base[4], after[4])


class TestExternalPosteriors:
    def test_round_trip(self, tmp_path):
        from digitsv import formats

        rng = np.random.default_rng(5)
        post = rng.random((11, N_STATES))
        post /= post.sum(axis=1, keepdims=True)
        post = post.astype(np.float32).astype(np.float64)
        post /= post.sum(axis=1, keepdims=True)
        path = tmp_path / "x.dvpo"
        formats.write_dvpo(path, post)
        back = formats.read_dvpo(path, N_STATES)
        rounded = post.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(back, rounded / rounded.sum(axis=1, keepdims=True))

    def test_unnormalized_row_rejected(self, tmp_path):
        from digitsv import formats

        post = np.full((4, N_STATES), 0.9 / N_STATES)
        path = tmp_path / "bad.dvpo"
        formats.write_dvpo(path, post)
        with pytest.raises(FormatError, match=r"outside 1 \+- 1e-3"):
            formats.read_dvpo(path, N_STATES)

    def test_wrong_state_count_rejected(self, tmp_path):
        from digitsv import formats

        post = np.full((4, 30), 1.0 / 30)
        path = tmp_path / "narrow.dvpo"
        formats.write_dvpo(path, post)
        with pytest.raises(FormatError, match="expected 33 states, file has 30"):
            formats.read_dvpo(path, N_STATES)

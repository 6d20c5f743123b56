"""Synthetic dataset generator tests."""

import numpy as np
import pytest

from repro.core import SGD, Trainer
from repro.data import SyntheticConfig, gaussian_blobs, make_dataset
from repro.nn.models import mlp


def small_cfg(**kw):
    defaults = dict(num_classes=4, image_size=8, train_size=256, test_size=64, seed=1)
    defaults.update(kw)
    return SyntheticConfig(**defaults)


def test_shapes_and_dtypes():
    ds = make_dataset(small_cfg())
    assert ds.x_train.shape == (256, 3, 8, 8)
    assert ds.y_train.shape == (256,)
    assert ds.x_test.shape == (64, 3, 8, 8)
    assert ds.y_train.dtype == np.int64
    assert ds.x_train.dtype == np.float32
    assert ds.x_test.dtype == np.float32


def test_labels_in_range_all_classes_present():
    ds = make_dataset(small_cfg(train_size=1000))
    assert ds.y_train.min() >= 0
    assert ds.y_train.max() < 4
    assert len(np.unique(ds.y_train)) == 4


def test_standardised_with_train_stats():
    # standardised in float64 to 1e-10, then rounded once to float32: each
    # value moves by at most half a float32 ulp (relative), which bounds
    # how far the stored data's mean and std can drift from 0 and 1
    ds = make_dataset(small_cfg())
    x = ds.x_train.astype(np.float64)
    half_ulp = np.finfo(np.float32).eps / 2
    assert abs(x.mean()) < 1e-10 + half_ulp * np.abs(x).mean()
    assert abs(x.std() - 1.0) < 1e-10 + half_ulp * np.sqrt(np.mean(x * x))


def test_deterministic_by_seed():
    a = make_dataset(small_cfg(seed=7))
    b = make_dataset(small_cfg(seed=7))
    assert np.array_equal(a.x_train, b.x_train)
    c = make_dataset(small_cfg(seed=8))
    assert not np.array_equal(a.x_train, c.x_train)


def test_noise_controls_difficulty():
    """A linear probe separates the easy version better than the hard one."""

    def probe_accuracy(noise):
        ds = make_dataset(small_cfg(noise=noise, train_size=512, test_size=256))
        model = mlp(3 * 64, [], 4, flatten_input=True, seed=0)
        trainer = Trainer(model, SGD(model.parameters(), momentum=0.9,
                                     weight_decay=0.0), 0.05, shuffle_seed=0)
        res = trainer.fit(ds.x_train, ds.y_train, ds.x_test, ds.y_test,
                          epochs=5, batch_size=64)
        return res.final_test_accuracy

    assert probe_accuracy(0.2) > probe_accuracy(3.0)


def test_learnable_but_not_trivial():
    ds = make_dataset(small_cfg(noise=1.0, train_size=512))
    model = mlp(3 * 64, [32], 4, flatten_input=True, seed=0)
    trainer = Trainer(model, SGD(model.parameters(), weight_decay=0.0001),
                      0.05, shuffle_seed=0)
    res = trainer.fit(ds.x_train, ds.y_train, ds.x_test, ds.y_test,
                      epochs=10, batch_size=64)
    assert 0.4 < res.final_test_accuracy <= 1.0


def test_subset():
    ds = make_dataset(small_cfg())
    sub = ds.subset(100, 32)
    assert sub.n_train == 100 and sub.n_test == 32
    assert sub.input_shape == ds.input_shape


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(num_classes=1)
    with pytest.raises(ValueError):
        SyntheticConfig(image_size=2)
    with pytest.raises(ValueError):
        SyntheticConfig(train_size=0)
    with pytest.raises(ValueError):
        SyntheticConfig(noise=-1)


def test_cfg_and_kwargs_mutually_exclusive():
    with pytest.raises(TypeError):
        make_dataset(small_cfg(), num_classes=3)


def test_kwargs_form():
    ds = make_dataset(num_classes=3, image_size=8, train_size=64, test_size=16)
    assert ds.num_classes == 3


class TestGaussianBlobs:
    def test_shapes(self):
        x, y = gaussian_blobs(100, num_classes=5, dim=4)
        assert x.shape == (100, 4) and y.shape == (100,)
        assert x.dtype == np.float32
        assert set(np.unique(y)) <= set(range(5))

    def test_deterministic(self):
        x1, _ = gaussian_blobs(50, seed=3)
        x2, _ = gaussian_blobs(50, seed=3)
        assert np.array_equal(x1, x2)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_blobs(0)
        with pytest.raises(ValueError):
            gaussian_blobs(10, num_classes=1)

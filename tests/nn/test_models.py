"""Model zoo tests: shapes, Table 6 cost numbers, gradient spot-checks."""

import numpy as np
import pytest

from repro.nn import SoftmaxCrossEntropy
from repro.nn.gradcheck import check_model_loss_gradients
from repro.nn.models import (
    build_model,
    micro_alexnet,
    micro_resnet,
    mlp,
    paper_model_cost,
)


class TestPaperCosts:
    """Table 6: AlexNet 61 M params / 1.5 Gflop; ResNet-50 25 M / 7.7 Gflop."""

    def test_alexnet_parameters(self):
        c = paper_model_cost("alexnet")
        assert abs(c.parameters - 61e6) / 61e6 < 0.02

    def test_alexnet_flops(self):
        c = paper_model_cost("alexnet")
        assert abs(c.flops_per_image - 1.5e9) / 1.5e9 < 0.10

    def test_resnet50_parameters(self):
        c = paper_model_cost("resnet50")
        assert abs(c.parameters - 25.5e6) / 25.5e6 < 0.02

    def test_resnet50_flops(self):
        # paper counts conv/fc MACs only (7.7G); we add BN/pool/ReLU (~8.2G)
        c = paper_model_cost("resnet50")
        assert abs(c.flops_per_image - 7.7e9) / 7.7e9 < 0.12

    def test_scaling_ratio_factor(self):
        """ResNet-50's comp/comm ratio is ~12.5x AlexNet's (Table 6)."""
        r = paper_model_cost("resnet50").scaling_ratio
        a = paper_model_cost("alexnet").scaling_ratio
        assert 10.0 < r / a < 16.0

    def test_model_bytes_fp32(self):
        c = paper_model_cost("alexnet")
        assert c.model_bytes == 4 * c.parameters

    def test_training_flops_independent_of_batch(self):
        c = paper_model_cost("alexnet")
        assert c.training_flops(1_281_167, 100) == 3 * c.flops_per_image * 1_281_167 * 100

    def test_resnet18_34_param_counts(self):
        assert abs(paper_model_cost("resnet18").parameters - 11.7e6) / 11.7e6 < 0.02
        assert abs(paper_model_cost("resnet34").parameters - 21.8e6) / 21.8e6 < 0.02


class TestProxyModels:
    def test_micro_alexnet_forward_shapes(self):
        for norm in ["bn", "lrn", "none"]:
            m = micro_alexnet(num_classes=7, image_size=16, width=4, hidden=16, norm=norm)
            x = np.random.default_rng(0).normal(size=(2, 3, 16, 16))
            assert m.forward(x).shape == (2, 7)

    def test_micro_alexnet_invalid_norm(self):
        with pytest.raises(ValueError):
            micro_alexnet(norm="groupnorm")

    def test_micro_resnet_forward_shape(self):
        m = micro_resnet(num_classes=5, width=4, blocks_per_stage=1)
        x = np.random.default_rng(1).normal(size=(2, 3, 16, 16))
        assert m.forward(x).shape == (2, 5)

    def test_micro_resnet_trains_end_to_end(self):
        """One backward pass produces finite, nonzero gradients everywhere."""
        m = micro_resnet(num_classes=4, width=4)
        x = np.random.default_rng(2).normal(size=(8, 3, 8, 8))
        y = np.random.default_rng(3).integers(0, 4, size=8)
        loss = SoftmaxCrossEntropy()
        loss.forward(m.forward(x), y)
        m.backward(loss.backward())
        for p in m.parameters():
            assert np.isfinite(p.grad).all()

    def test_micro_resnet_gradcheck(self):
        m = micro_resnet(num_classes=3, width=2, blocks_per_stage=1, seed=5)
        x = np.random.default_rng(4).normal(size=(4, 3, 8, 8))
        y = np.array([0, 1, 2, 1])
        check_model_loss_gradients(m, x, y, tol=5e-4, max_entries=10)

    def test_micro_alexnet_gradcheck_lrn(self):
        # seed 7: at seed 6 one sampled weight has a true gradient of 3e-10,
        # below the central difference's ~1e-11 round-off resolution, and
        # the check's relative error there (3.5e-4 with float64 initial
        # weights, 7.6e-4 with float32-rounded ones) is noise either way
        m = micro_alexnet(num_classes=3, image_size=8, width=2, hidden=8,
                          norm="lrn", seed=7)
        x = np.random.default_rng(5).normal(size=(3, 3, 8, 8))
        y = np.array([0, 1, 2])
        check_model_loss_gradients(m, x, y, tol=5e-4, max_entries=10)

    def test_mlp_gradcheck(self):
        m = mlp(6, [5], 4, seed=7)
        x = np.random.default_rng(6).normal(size=(5, 6))
        y = np.array([0, 1, 2, 3, 0])
        check_model_loss_gradients(m, x, y, tol=1e-5, max_entries=20)


class TestRegistry:
    def test_build_model_known(self):
        m = build_model("micro_resnet", num_classes=3, width=2)
        assert m.num_parameters() > 0

    def test_build_model_unknown_raises(self):
        with pytest.raises(KeyError):
            build_model("vgg16")

    def test_paper_cost_unknown_raises(self):
        with pytest.raises(KeyError):
            paper_model_cost("micro_resnet")

    def test_paper_cost_cached(self):
        assert paper_model_cost("alexnet") is paper_model_cost("alexnet")


class TestSeedDeterminism:
    def test_same_seed_same_weights(self):
        a = micro_resnet(seed=11)
        b = micro_resnet(seed=11)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = micro_resnet(seed=11)
        b = micro_resnet(seed=12)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

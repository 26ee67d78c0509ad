"""Optimizers, schedules and the asynchrony-momentum rule."""

import numpy as np
import pytest

from repro.core.parameter import Parameter
from repro.optim import (
    Adam,
    ConstantLR,
    ExponentialDecayLR,
    SGD,
    StepLR,
    effective_momentum,
    implicit_async_momentum,
    tune_momentum_for_groups,
)


def quad_params(x0=5.0):
    """One parameter minimizing f(w) = 0.5 w^2 (grad = w)."""
    return [Parameter(np.array([x0], dtype=np.float32), name="w")]


class TestSGD:
    def test_vanilla_step(self):
        p = quad_params()[0]
        opt = SGD([p], lr=0.1)
        p.grad[:] = p.data
        opt.step()
        assert p.data[0] == pytest.approx(4.5)

    def test_converges_on_quadratic(self):
        p = quad_params()[0]
        opt = SGD([p], lr=0.3)
        for _ in range(50):
            p.grad[:] = p.data
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_momentum_accelerates(self):
        plain, mom = quad_params()[0], quad_params()[0]
        o1, o2 = SGD([plain], lr=0.05), SGD([mom], lr=0.05, momentum=0.9)
        for _ in range(20):
            plain.grad[:] = plain.data
            mom.grad[:] = mom.data
            o1.step()
            o2.step()
        assert abs(mom.data[0]) < abs(plain.data[0])

    def test_weight_decay_shrinks(self):
        p = quad_params()[0]
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        p.grad[:] = 0.0
        opt.step()
        assert p.data[0] < 5.0

    def test_momentum_state_keyed_by_name(self):
        # same-named parameter in a fresh list reuses velocity (PS use case)
        p1 = Parameter(np.array([1.0], dtype=np.float32), name="w")
        opt = SGD([p1], lr=0.1, momentum=0.9)
        p1.grad[:] = 1.0
        opt.step()
        assert "w" in opt._velocity

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(quad_params(), lr=-1)
        with pytest.raises(ValueError):
            SGD(quad_params(), lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(quad_params(), lr=0.1, weight_decay=-0.1)

    def test_duplicate_names_rejected(self):
        ps = [Parameter(np.zeros(1), name="a"),
              Parameter(np.zeros(1), name="a")]
        with pytest.raises(ValueError):
            SGD(ps, lr=0.1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("optimizer", [SGD, Adam])
    def test_learning_rate_must_be_positive_and_finite(self, optimizer, lr):
        # NaN used to pass: ``lr <= 0`` is false for it.
        with pytest.raises(ValueError, match="lr must be positive"):
            optimizer(quad_params(), lr=lr)
        opt = optimizer(quad_params(), lr=0.1)
        with pytest.raises(ValueError, match="lr must be positive"):
            opt.set_lr(lr)
        assert opt.lr == 0.1


class TestAdam:
    def test_first_step_size_is_lr(self):
        p = quad_params()[0]
        opt = Adam([p], lr=0.01)
        p.grad[:] = 3.7  # any gradient: bias correction makes step ~= lr
        opt.step()
        assert p.data[0] == pytest.approx(5.0 - 0.01, rel=1e-3)

    def test_converges_on_quadratic(self):
        p = quad_params()[0]
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            p.grad[:] = p.data
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_per_layer_scale_invariance(self):
        """ADAM 'suppresses high norm variability between gradients of
        different layers' (paper SIII-A): step size is gradient-scale free."""
        small, big = quad_params()[0], quad_params()[0]
        o1, o2 = Adam([small], lr=0.1), Adam([big], lr=0.1)
        small.grad[:] = 1e-4
        big.grad[:] = 1e4
        o1.step()
        o2.step()
        assert abs(small.data[0] - 5.0) == pytest.approx(
            abs(big.data[0] - 5.0), rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(quad_params(), lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam(quad_params(), lr=0.1, eps=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scratch_arrays_do_not_move_a_bit(self, dtype):
        """The update runs through two reused work arrays; five steps equal
        the expression with a fresh temporary per operation, bit for bit."""
        rng = np.random.default_rng(3)
        p, q = Parameter(np.zeros(1), name="w"), Parameter(np.zeros(1), name="w")
        for param in (p, q):        # a Parameter is float32 by construction
            param.data = np.linspace(-2, 2, 35, dtype=dtype).reshape(5, 7)
            param.grad = np.zeros_like(param.data)
        opt = Adam([p], lr=0.01)
        m, v = np.zeros_like(q.data), np.zeros_like(q.data)
        for t in range(1, 6):
            p.grad[...] = q.grad[...] = rng.normal(size=q.shape) * 10.0 ** -t
            opt.step()
            g = q.grad
            m *= opt.beta1
            m += (1.0 - opt.beta1) * g
            v *= opt.beta2
            v += (1.0 - opt.beta2) * (g * g)
            m_hat = m / (1.0 - opt.beta1 ** t)
            v_hat = v / (1.0 - opt.beta2 ** t)
            q.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
            assert np.array_equal(p.data, q.data) and p.data.dtype == dtype
        work = opt._scratch["w"]
        opt.step()
        assert opt._scratch["w"] is work


class TestSchedules:
    def test_constant(self):
        assert ConstantLR(0.1)(1000) == 0.1

    def test_step(self):
        s = StepLR(1.0, step_size=10, gamma=0.1)
        assert s(0) == 1.0
        assert s(10) == pytest.approx(0.1)
        assert s(25) == pytest.approx(0.01)

    def test_exponential(self):
        s = ExponentialDecayLR(1.0, decay=0.5, decay_steps=10)
        assert s(10) == pytest.approx(0.5)
        assert s(20) == pytest.approx(0.25)

    def test_negative_iteration_raises(self):
        with pytest.raises(ValueError):
            StepLR(1.0, 10)(-1)


class TestAsyncMomentum:
    def test_one_group_no_implicit(self):
        assert implicit_async_momentum(1) == 0.0

    def test_grows_with_groups(self):
        vals = [implicit_async_momentum(g) for g in (1, 2, 4, 8)]
        assert vals == sorted(vals)
        assert vals[1] == pytest.approx(0.5)
        assert vals[3] == pytest.approx(0.875)

    def test_effective_composition(self):
        # sync: effective == explicit
        assert effective_momentum(0.9, 1) == pytest.approx(0.9)
        # async adds memory
        assert effective_momentum(0.0, 4) == pytest.approx(0.75)

    def test_paper_tuning_rule(self):
        """Reproduce the paper's grid choice: sync keeps 0.9, hybrid runs
        tune momentum DOWN as group count rises (SVI-B4)."""
        choices = {g: tune_momentum_for_groups(0.9, g, grid=(0.0, 0.4, 0.7,
                                                             0.9))
                   for g in (1, 2, 4, 8)}
        assert choices[1] == 0.9
        assert choices[2] in (0.7, 0.4)
        assert choices[8] == 0.0
        assert all(choices[g] <= choices[1] for g in choices)

    def test_validation(self):
        with pytest.raises(ValueError):
            implicit_async_momentum(0)
        with pytest.raises(ValueError):
            effective_momentum(1.0, 2)
        with pytest.raises(ValueError):
            tune_momentum_for_groups(0.5, 2, grid=())

"""Tests for the graph's node type (repro.nn.tensor.Tensor)."""

import numpy as np
import pytest

from repro.errors import GraphError, ShapeError
from repro.nn import Tensor


def _node(parents, backward_fn, shape=(2,)):
    out = Tensor(np.zeros(shape), requires_grad=True)
    out._ctx = (parents, backward_fn)
    return out


class TestBackward:
    def test_routes_each_parent_its_gradient(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = _node((a, b), lambda g: (2 * g, np.full(3, g.sum())))
        out.backward(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(a.grad, [2.0, 4.0])
        np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0])

    def test_gradients_accumulate(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        out = _node((a,), lambda g: (g,))
        out.backward(np.ones(2))
        out.backward(np.ones(2))
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])

    def test_skips_parents_without_grad_and_none_gradients(self):
        frozen = Tensor(np.zeros(2))
        skipped = Tensor(np.zeros(2), requires_grad=True)
        out = _node((frozen, skipped), lambda g: (g, None))
        out.backward(np.ones(2))
        assert frozen.grad is None and skipped.grad is None

    def test_gradient_takes_the_node_dtype(self):
        a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        out = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        out._ctx = ((a,), lambda g: (g,))
        out.backward(np.ones(2))
        assert a.grad.dtype == np.float32

    def test_leaf_raises(self):
        with pytest.raises(GraphError):
            Tensor(np.zeros(2), requires_grad=True).backward(np.ones(2))

    def test_gradient_shape_checked(self):
        out = _node((Tensor(np.zeros(2), requires_grad=True),),
                    lambda g: (g,))
        with pytest.raises(ShapeError):
            out.backward(np.ones(3))

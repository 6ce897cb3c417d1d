"""The shape contract of every float array argument: a wrong shape raises a ValueError
that names the argument, the shape it got and the shape it expected."""

import re

import numpy as np
import pytest

from neuralbandit.confidence import DesignMatrix
from neuralbandit.environments import DatasetBandit, preprocess_batch
from neuralbandit.network import (
    NetworkShape,
    check_array,
    forward_batch,
    gradient_batch,
    gradient_weighted_sum,
    init_plain,
    unflatten,
)
from neuralbandit.ntk import effective_dimension, empirical_gram, ntk_gram, rkhs_norm_proxy
from neuralbandit.policies import train_nn

SHAPE = NetworkShape(input_dim=4, width=4, depth=3)  # p = 16 + 16 + 4 = 36
PARAMS = init_plain(SHAPE, np.random.default_rng(0))
ROWS = np.eye(4)[:3]


def design(mode):
    return DesignMatrix(5, 1.0, mode=mode)


# (call with the bad array, argument name, shape passed, shape expected)
CASES = [
    pytest.param(lambda a: forward_batch(PARAMS, a), "x", (3, 5), "(?, 4)",
                 id="forward_batch-width"),
    pytest.param(lambda a: forward_batch(PARAMS, a), "x", (4,), "(?, 4)",
                 id="forward_batch-one-row"),
    pytest.param(lambda a: gradient_batch(PARAMS, a), "x", (2, 3), "(?, 4)",
                 id="gradient_batch-width"),
    pytest.param(lambda a: gradient_weighted_sum(PARAMS, a, np.ones(3)), "x", (3, 3),
                 "(?, 4)", id="gradient_weighted_sum-x"),
    pytest.param(lambda a: gradient_weighted_sum(PARAMS, ROWS, a), "weights", (2,), "(3,)",
                 id="gradient_weighted_sum-weights"),
    pytest.param(lambda a: gradient_weighted_sum(PARAMS, ROWS, a), "weights", (3, 1), "(3,)",
                 id="gradient_weighted_sum-weights-column"),
    pytest.param(lambda a: unflatten(SHAPE, a), "vec", (35,), "(36,)", id="unflatten"),
    pytest.param(lambda a: design("full").rank_one_update(a), "u", (4,), "(5,)",
                 id="rank_one_update-full"),
    pytest.param(lambda a: design("diagonal").rank_one_update(a), "u", (1, 5), "(5,)",
                 id="rank_one_update-diagonal"),
    pytest.param(lambda a: design("full").quadratic_form(a), "v", (6,), "(5,)",
                 id="quadratic_form"),
    pytest.param(lambda a: design("diagonal").quadratic_form(a), "v", (4, 6), "(?, 5)",
                 id="quadratic_form-stack"),
    pytest.param(lambda a: design("diagonal").solve(a), "rhs", (5, 1), "(5,)", id="solve"),
    pytest.param(lambda a: ntk_gram(a, 2), "contexts", (4,), "(?, ?)", id="ntk_gram"),
    pytest.param(lambda a: empirical_gram(PARAMS, a), "contexts", (4,), "(?, 4)",
                 id="empirical_gram"),
    pytest.param(lambda a: effective_dimension(a, 1.0, 10), "h", (3,), "(?, ?)",
                 id="effective_dimension"),
    pytest.param(lambda a: rkhs_norm_proxy(np.eye(3), a), "rewards", (2,), "(3,)",
                 id="rkhs_norm_proxy"),
    pytest.param(lambda a: train_nn(0.1, 0.01, 2, a, np.zeros(3), PARAMS), "contexts",
                 (3, 5), "(?, 4)", id="train_nn-contexts"),
    pytest.param(lambda a: train_nn(0.1, 0.01, 2, ROWS, a, PARAMS), "rewards", (4,), "(3,)",
                 id="train_nn-misaligned-rewards"),
    pytest.param(preprocess_batch, "contexts", (4,), "(?, ?)", id="preprocess_batch"),
    pytest.param(lambda a: DatasetBandit(a, np.zeros(4, dtype=int), 2), "features", (4,),
                 "(?, ?)", id="DatasetBandit"),
]


@pytest.mark.parametrize("call,name,got,expected", CASES)
def test_wrong_shape_names_the_argument_and_both_shapes(call, name, got, expected):
    message = f"{name} has shape {got}, expected {expected}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(np.ones(got))


@pytest.mark.parametrize("value,ndim,length", [
    ([[1, 2], [3, 4]], 2, 2),
    (np.arange(3, dtype=np.int64), 1, None),
    (np.zeros((0, 4)), 2, 4),
])
def test_check_array_returns_the_value_as_float64(value, ndim, length):
    array = check_array("a", value, ndim, length)
    assert array.dtype == np.float64
    assert np.array_equal(array, np.asarray(value))


def test_check_array_does_not_copy_a_float64_array():
    value = np.ones((2, 3))
    assert check_array("a", value, 2, 3) is value

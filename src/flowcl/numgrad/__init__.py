"""Minimal reverse-mode autodiff over float64 NumPy arrays."""

from .checkpoint import FORMAT_VERSION, load_arrays, save_arrays
from .ops import (
    affine,
    batchnorm1d,
    conv1d,
    conv_stack,
    cosine_similarity,
    global_maxpool1d,
    maxpool1d,
    maxpool_cl,
    relu,
    softmax_cross_entropy,
    softmax_regression_grads,
)
from .optim import AdamW
from .tensor import Tape, Tensor, as_tensor, backward, record_op

__all__ = [
    "AdamW",
    "FORMAT_VERSION",
    "Tape",
    "Tensor",
    "affine",
    "as_tensor",
    "backward",
    "batchnorm1d",
    "conv1d",
    "conv_stack",
    "cosine_similarity",
    "global_maxpool1d",
    "load_arrays",
    "maxpool1d",
    "maxpool_cl",
    "record_op",
    "relu",
    "save_arrays",
    "softmax_cross_entropy",
    "softmax_regression_grads",
]

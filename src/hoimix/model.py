"""Two-branch predicate predictor with analytical gradients.

A shared one-hidden-layer encoder (ReLU) feeds two linear heads. The
classification head is softmax-normalized over classes for each pair
(row-stochastic), the selection head over pairs for each class
(column-stochastic); their element-wise product is the probability matrix P.
Summing P over the pair axis yields per-class image probabilities that are
structurally bounded in [0, 1], which is what makes image-level BCE
well-defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _shapes(feature_dim: int, hidden_dim: int, n_classes: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of the ModelParams.FIELDS tensors, in that order."""
    return (
        (feature_dim, hidden_dim),
        (hidden_dim,),
        (hidden_dim, n_classes),
        (n_classes,),
        (hidden_dim, n_classes),
        (n_classes,),
    )


class ModelParams:
    """Encoder and head parameters as named views into one flat float64
    vector `flat`, laid out in FIELDS order.

    The constructor copies the six tensors into a new vector and rejects
    shapes that disagree with each other; `over` wraps an existing vector
    without copying. Gradients and momentum buffers have this type too, so
    an optimizer step is one operation on `flat`. Write through the views
    (`params.w_enc[...] = x`, `params.flat -= z`); rebinding a name to
    another array would detach it from `flat` and raises AttributeError.
    `w_heads` (2, hidden_dim, n_classes) and `b_heads` (2, 1, n_classes)
    are two more views: w_cls and w_sel, and b_cls and b_sel, stacked.
    """

    FIELDS = ("w_enc", "b_enc", "w_cls", "b_cls", "w_sel", "b_sel")

    def __init__(self, w_enc, b_enc, w_cls, b_cls, w_sel, b_sel) -> None:
        tensors = (w_enc, b_enc, w_cls, b_cls, w_sel, b_sel)
        enc_shape, cls_shape = np.shape(w_enc), np.shape(w_cls)
        if len(enc_shape) != 2 or len(cls_shape) != 2:
            raise ValueError(f"w_enc and w_cls must be 2-d, got shapes {enc_shape} and {cls_shape}")
        dims = (enc_shape[0], enc_shape[1], cls_shape[1])
        for name, tensor, shape in zip(self.FIELDS, tensors, _shapes(*dims)):
            if np.shape(tensor) != shape:
                raise ValueError(
                    f"{name} has shape {np.shape(tensor)}, expected {shape} "
                    f"for (feature_dim, hidden_dim, n_classes) = {dims}"
                )
        flat = np.concatenate([np.ravel(t) for t in tensors], dtype=np.float64)
        self._bind(flat, dims)

    def _bind(self, flat: np.ndarray, dims: tuple[int, int, int]) -> None:
        views, offset = {}, 0
        for name, shape in zip(self.FIELDS, _shapes(*dims)):
            size = math.prod(shape)
            views[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        # both heads as one (2, ...) stack: w_sel and b_sel lie (H + 1) * C
        # floats after w_cls and b_cls
        _, hidden_dim, n_classes = dims
        step = (hidden_dim + 1) * n_classes * flat.strides[0]
        w_cls, b_cls = views["w_cls"], views["b_cls"]
        views["w_heads"] = as_strided(w_cls, (2, *w_cls.shape), (step, *w_cls.strides))
        views["b_heads"] = as_strided(b_cls, (2, 1, *b_cls.shape), (step, 0, *b_cls.strides))
        self.__dict__.update(flat=flat, dims=dims, **views)

    @classmethod
    def over(cls, flat: np.ndarray, dims: tuple[int, int, int]) -> "ModelParams":
        """Named views into `flat` for (feature_dim, hidden_dim, n_classes)."""
        params = cls.__new__(cls)
        params._bind(flat, dims)
        return params

    @classmethod
    def init(cls, feature_dim: int, hidden_dim: int, n_classes: int, seed: int) -> "ModelParams":
        """Seeded init: weights uniform in [-s, s] with s = 1/sqrt(fan_in), zero biases."""
        rng = np.random.default_rng(seed)
        s_enc = 1.0 / np.sqrt(feature_dim)
        s_head = 1.0 / np.sqrt(hidden_dim)
        return cls(
            w_enc=rng.uniform(-s_enc, s_enc, size=(feature_dim, hidden_dim)),
            b_enc=np.zeros(hidden_dim),
            w_cls=rng.uniform(-s_head, s_head, size=(hidden_dim, n_classes)),
            b_cls=np.zeros(n_classes),
            w_sel=rng.uniform(-s_head, s_head, size=(hidden_dim, n_classes)),
            b_sel=np.zeros(n_classes),
        )

    def __reduce__(self):
        # pickling the views one by one would unpickle them onto separate arrays
        return (ModelParams.over, (self.flat, self.dims))

    def __setattr__(self, name, value) -> None:
        # `params.flat -= z` stores the same array back; anything else would
        # detach the name from the vector
        if self.__dict__.get(name) is not value:
            raise AttributeError(f"cannot rebind ModelParams.{name}; write into its array instead")

    @property
    def feature_dim(self) -> int:
        return self.dims[0]

    @property
    def hidden_dim(self) -> int:
        return self.dims[1]

    @property
    def n_classes(self) -> int:
        return self.dims[2]

    def items(self):
        for name in self.FIELDS:
            yield name, self.__dict__[name]

    def zeros_like(self) -> "ModelParams":
        return ModelParams.over(np.zeros_like(self.flat), self.dims)

    def copy(self) -> "ModelParams":
        return ModelParams.over(self.flat.copy(), self.dims)


@dataclass(eq=False)
class ScoreMatrix:
    """Forward activations: the encoder's input and output, both
    normalizations, and their element-wise product."""

    features: np.ndarray  # (..., N, feature_dim) float64 input
    hidden: np.ndarray   # (..., N, hidden_dim) ReLU encoder output
    heads: np.ndarray    # (2, ..., N, C): sigma_c, then sigma_s
    P: np.ndarray        # (..., N, C), sigma_c * sigma_s

    @property
    def sigma_c(self) -> np.ndarray:  # (..., N, C), each row sums to 1
        return self.heads[0]

    @property
    def sigma_s(self) -> np.ndarray:  # (..., N, C), each column sums to 1
        return self.heads[1]


def forward(params: ModelParams, features: np.ndarray) -> ScoreMatrix:
    """Run the two-branch computation on an (N, feature_dim) matrix, or on
    a (..., N, feature_dim) stack of them, each normalized on its own.

    Args:
        params: model parameters.
        features: one feature row per human-object pair, N >= 1.

    Returns:
        ScoreMatrix with row-stochastic sigma_c, column-stochastic sigma_s,
        P = sigma_c * sigma_s, and the activations backward (2-d only) needs.

    Raises ValueError when P is not finite: non-finite features or
    parameters, or finite ones whose products overflow.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim < 2 or 0 in features.shape[:-1]:
        raise ValueError(f"features must be a non-empty (..., N, D) stack, got shape {features.shape}")
    if features.shape[-1] != params.feature_dim:
        raise ValueError(
            f"feature dim {features.shape[-1]} does not match model dim {params.feature_dim}"
        )
    # each product is a new array; bias, ReLU and both softmaxes (max
    # subtracted for stability) reuse its storage
    hidden = features @ params.w_enc
    hidden += params.b_enc
    np.maximum(hidden, 0.0, out=hidden)
    # the heads lead, so that each head's scores are one contiguous array
    w_heads, b_heads = params.w_heads, params.b_heads
    if hidden.ndim > 2:
        lead = (slice(None),) + (None,) * (hidden.ndim - 2)
        w_heads, b_heads = w_heads[lead], b_heads[lead]
    heads = hidden @ w_heads
    heads += b_heads
    # each head's raw scores, turned into its softmax in place
    sigma_c, sigma_s = heads[0], heads[1]
    sigma_c -= np.maximum.reduce(sigma_c, -1, keepdims=True)
    sigma_s -= np.maximum.reduce(sigma_s, -2, keepdims=True)
    np.exp(heads, out=heads)
    sigma_c /= np.add.reduce(sigma_c, -1, keepdims=True)
    sigma_s /= np.add.reduce(sigma_s, -2, keepdims=True)
    P = sigma_c * sigma_s
    # each softmax lies in [0, 1] or is NaN (an infinity or an overflow
    # met its max), so P's sum is NaN exactly when P is not finite
    if np.isnan(np.add.reduce(P, None)):
        raise ValueError("non-finite scores P")
    return ScoreMatrix(features=features, hidden=hidden, heads=heads, P=P)


def backward(
    params: ModelParams,
    scores: ScoreMatrix,
    upstream: np.ndarray,
    out: ModelParams | None = None,
) -> ModelParams:
    """Exact gradients of a scalar loss with respect to every parameter.

    `scores` is what forward returned for these params on one (N, D)
    matrix, not on a stack, which raises ValueError; `upstream` is either
    dL/dP with shape (N, C) or dL/dp with shape (C,), where p is the sum of
    P over pairs. The chain runs through the element-wise product, both
    softmaxes, and the encoder. A vector upstream is dL/dP of every row,
    since p_j = sum_i P[i, j]; the products below broadcast it. The
    gradients are written into `out` (same dims as params; a training run
    reuses one) or, when it is None, into a new ModelParams, which is
    returned.
    """
    heads, hidden = scores.heads, scores.hidden
    if hidden.ndim != 2:
        raise ValueError(
            "backward takes the scores of one (N, D) matrix, "
            f"not of a stack of shape {scores.features.shape}"
        )
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        if upstream.shape[0] != heads.shape[-1]:
            raise ValueError("upstream vector length does not match class count")
    elif upstream.shape != heads.shape[1:]:
        raise ValueError(
            f"upstream shape {upstream.shape} matches neither P {heads.shape[1:]} nor p"
        )

    # dL/dsigma_c and dL/dsigma_s stacked; the softmax Jacobian applied per
    # row (classification) and per column (selection) in their storage
    d = upstream * heads[::-1]
    weighted = d * heads
    d[0] -= np.add.reduce(weighted[0], 1, keepdims=True)
    d[1] -= np.add.reduce(weighted[1], 0, keepdims=True)
    d *= heads

    # dL/dhidden through each head, summed into the first
    d_pre = d @ params.w_heads.transpose(0, 2, 1)
    d_pre[0] += d_pre[1]
    d_pre = d_pre[0]
    # hidden > 0 exactly where the ReLU's input is > 0
    d_pre *= hidden > 0.0
    grads = params.zeros_like() if out is None else out
    np.matmul(scores.features.T, d_pre, out=grads.w_enc)
    np.add.reduce(d_pre, 0, out=grads.b_enc)
    np.matmul(hidden.T, d, out=grads.w_heads)
    np.add.reduce(d, 1, keepdims=True, out=grads.b_heads)
    return grads


def infer_pairs(
    params: ModelParams, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened view of P sorted by descending probability.

    Returns (pair index, class index, probability) arrays of length N * C.
    Ties are broken by (pair index, class index) ascending so the ranking is
    deterministic.
    """
    P = forward(params, features).P
    flat = P.ravel()
    order = np.argsort(-flat, kind="stable")
    pair_index, class_index = np.divmod(order, P.shape[1])
    return pair_index, class_index, flat[order]

"""``repro.nn`` — a from-scratch numpy neural-network library.

Substitutes for PyTorch in this reproduction: reverse-mode autograd tensors,
Transformer-style attention, convolutions, Adam, and npz serialisation —
everything the paper's policy networks (the hierarchical-RL TSPTW solver and
TASNet) require.

Quick example::

    import numpy as np
    from repro import nn

    rng = np.random.default_rng(0)
    model = nn.MLP([4, 16, 1], rng=rng)
    optimizer = nn.Adam(model.parameters(), lr=1e-3)

    x = nn.Tensor(rng.normal(size=(32, 4)))
    loss = ((model(x) - 1.0) ** 2).mean()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
"""

from . import flops, init, ops
from .ops import pad_stack
from . import backend
from .backend import Backend, backend_name, get_backend
from .attention import (
    MultiHeadAttention,
    PointerAttention,
    TransformerEncoder,
    TransformerEncoderLayer,
    scaled_dot_product_attention,
)
from .layers import (
    MLP,
    Conv2D,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
)
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .serialize import load_module, save_module
from .tensor import (
    NULL_HOOK,
    Tensor,
    TensorHook,
    as_tensor,
    get_tensor_hook,
    is_grad_enabled,
    no_grad,
    set_tensor_hook,
)

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled", "ops", "init",
    "flops", "pad_stack",
    "Backend", "backend", "get_backend", "backend_name",
    "TensorHook", "NULL_HOOK", "get_tensor_hook", "set_tensor_hook",
    "Module", "Parameter", "Linear", "Embedding", "MLP", "LayerNorm",
    "Conv2D", "Sequential", "ReLU", "Tanh",
    "MultiHeadAttention", "PointerAttention", "TransformerEncoder",
    "TransformerEncoderLayer", "scaled_dot_product_attention",
    "Optimizer", "SGD", "Adam", "clip_grad_norm",
    "save_module", "load_module",
]

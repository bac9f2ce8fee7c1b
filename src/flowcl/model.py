"""Encoder and head construction over the numgrad ops.

An encoder is a declarative stack of Conv/MaxPool specs. Every Conv means:
kernel width 2, stride 1, bias, batch norm, ReLU, run as one fused
channels-last unit together with the MaxPool specs right after it, if any.
The encoded flow record enters as a single-channel 1D signal, activations
stay (batch, width, channels), and a global max pool after the last layer
collapses whatever spatial width remains, so the hidden vector h is always
exactly hidden_dim wide regardless of the input schema's width. From the
first Conv on, the whole stack, global pool included, is one op and one tape
entry (`numgrad.conv_stack`); a pool before the first Conv is its own
`numgrad.maxpool_cl`. The projection g and the classification heads are
single affine maps. Kernels keep the (out_ch, in_ch, 2) layout of
`numgrad.conv1d`, so checkpoints do not depend on the activation layout.

Two presets mirror the reference architecture pair: "smaller-pack"
(hidden 512, context 256) for the 42-feature flow schema and "larger-pack"
(hidden 256, context 128) for the wider one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import numgrad as ng
from .errors import CheckpointError, ConfigError, InvalidShapeError, checked
from .numgrad import Tensor
from .seeding import substream

__all__ = [
    "ClassificationHead",
    "Conv",
    "EncoderBlock",
    "EncoderConfig",
    "MaxPool",
    "PRESETS",
    "ProjectionHead",
    "build_classification_head",
    "build_encoder",
    "config_from_dict",
    "config_to_dict",
    "count_parameters",
    "encode",
    "load_encoder",
    "load_head",
    "parse_layers",
    "preset_config",
    "project",
    "save_encoder",
    "save_head",
]

KERNEL_WIDTH = 2

# The most parameters (e and g together) an encoder may have. Training keeps
# four float64 copies of every parameter (value, gradient and AdamW's two
# moments), so 2**27 of them take 4 GiB, half of an 8 GB box; a config above
# it is a mistake, refused before anything is allocated.
MAX_PARAMETERS = 2**27


@dataclass(frozen=True)
class Conv:
    channels: int

    def __post_init__(self):
        if not isinstance(self.channels, int) or self.channels < 1:
            raise ConfigError(f"conv channels must be a positive int, got {self.channels!r}")

    @property
    def display(self) -> str:
        return f"Conv{self.channels}"


@dataclass(frozen=True)
class MaxPool:
    window: int

    def __post_init__(self):
        if not isinstance(self.window, int) or self.window < 2:
            raise ConfigError(f"pool window must be an int >= 2, got {self.window!r}")

    @property
    def display(self) -> str:
        return f"Pool{self.window}"


PRESETS: dict[str, tuple[tuple, int]] = {
    "smaller-pack": (
        (Conv(32), Conv(64), Conv(128), MaxPool(3), Conv(256), MaxPool(2), Conv(512), MaxPool(4)),
        256,
    ),
    "larger-pack": (
        (Conv(8), Conv(16), Conv(32), Conv(64), MaxPool(3), Conv(128), MaxPool(4), Conv(256)),
        128,
    ),
}


@dataclass(frozen=True)
class EncoderConfig:
    layers: tuple
    input_width: int
    context_dim: int
    preset: str = "custom"

    def __post_init__(self):
        if not self.layers or not all(isinstance(s, (Conv, MaxPool)) for s in self.layers):
            raise ConfigError("layers must be a non-empty sequence of Conv/MaxPool specs")
        if not any(isinstance(s, Conv) for s in self.layers):
            raise ConfigError("an encoder needs at least one conv layer")
        if not isinstance(self.input_width, int) or self.input_width < 1:
            raise ConfigError(f"input_width must be a positive int, got {self.input_width!r}")
        if not isinstance(self.context_dim, int) or self.context_dim < 1:
            raise ConfigError(f"context_dim must be a positive int, got {self.context_dim!r}")
        self.validate_width()
        if self.parameter_count() > MAX_PARAMETERS:
            raise ConfigError(f"the encoder would have {self.parameter_count()} parameters, "
                              f"more than the {MAX_PARAMETERS} that training can hold")

    def parameter_count(self) -> int:
        """Parameters of e and g at the shapes this config implies, counted, not built."""
        count, in_channels = 0, 1
        for c in (s.channels for s in self.layers if isinstance(s, Conv)):
            count += c * in_channels * KERNEL_WIDTH + 3 * c  # kernel, bias, gamma, beta
            in_channels = c
        return count + self.context_dim * (self.hidden_dim + 1)

    @property
    def hidden_dim(self) -> int:
        return [s for s in self.layers if isinstance(s, Conv)][-1].channels

    def validate_width(self) -> None:
        """Walk the shape algebra; name the first layer the width cannot feed."""
        w = self.input_width
        for spec in self.layers:
            if isinstance(spec, Conv):
                if w < KERNEL_WIDTH:
                    raise InvalidShapeError(
                        f"input_width {self.input_width} is too small: "
                        f"{spec.display} needs width >= {KERNEL_WIDTH}, has {w}")
                w -= KERNEL_WIDTH - 1
            else:
                if w < spec.window:
                    raise InvalidShapeError(
                        f"input_width {self.input_width} is too small: "
                        f"{spec.display} needs width >= {spec.window}, has {w}")
                w //= spec.window


def preset_config(name: str, input_width: int) -> EncoderConfig:
    try:
        layers, context_dim = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown encoder preset {name!r}; "
                          f"choose from {sorted(PRESETS)}") from None
    return EncoderConfig(layers, input_width, context_dim, preset=name)


def config_to_dict(config: EncoderConfig) -> dict:
    layers = [["conv", s.channels] if isinstance(s, Conv) else ["pool", s.window]
              for s in config.layers]
    return {"layers": layers, "input_width": config.input_width,
            "context_dim": config.context_dim, "preset": config.preset}


def parse_layers(items) -> tuple:
    """Turn [kind, arg] pairs ("conv", channels / "pool", window) into layer specs."""
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"layers must be a list of [kind, int] pairs, got {items!r}")
    specs = []
    for item in items:
        try:
            kind, arg = item
        except (TypeError, ValueError):
            raise ConfigError(f"layer spec must be [kind, int], got {item!r}") from None
        arg = checked(arg, int, f"layer {kind!r} argument", ConfigError)
        if kind == "conv":
            specs.append(Conv(arg))
        elif kind == "pool":
            specs.append(MaxPool(arg))
        else:
            raise ConfigError(f"unknown layer kind {kind!r} (use 'conv' or 'pool')")
    return tuple(specs)


def config_from_dict(doc: dict) -> EncoderConfig:
    expected = {"layers", "input_width", "context_dim", "preset"}
    if set(checked(doc, dict, "encoder config", ConfigError)) != expected:
        raise ConfigError(f"bad encoder config keys: {sorted(set(doc) ^ expected)}")
    return EncoderConfig(parse_layers(doc["layers"]),
                         checked(doc["input_width"], int, "input_width", ConfigError),
                         checked(doc["context_dim"], int, "context_dim", ConfigError),
                         checked(doc["preset"], str, "preset", ConfigError))


@dataclass
class _ConvLayer:
    kernel: Tensor
    bias: Tensor
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class EncoderBlock:
    """e(.): the conv/BN/ReLU/pool stack plus the global pool."""

    config: EncoderConfig
    convs: list = field(default_factory=list)

    @property
    def hidden_dim(self) -> int:
        return self.config.hidden_dim

    def parameters(self) -> Iterator[Tensor]:
        for layer in self.convs:
            yield layer.kernel
            yield layer.bias
            yield layer.gamma
            yield layer.beta


@dataclass
class ProjectionHead:
    """g(.): one affine map hidden_dim -> context_dim, no activation."""

    weight: Tensor
    bias: Tensor

    @property
    def context_dim(self) -> int:
        return self.weight.data.shape[0]

    def parameters(self) -> Iterator[Tensor]:
        yield self.weight
        yield self.bias


@dataclass
class ClassificationHead:
    """Affine map to K class logits; softmax lives inside the loss."""

    weight: Tensor
    bias: Tensor

    @property
    def n_classes(self) -> int:
        return self.weight.data.shape[0]

    @property
    def input_dim(self) -> int:
        return self.weight.data.shape[1]

    def parameters(self) -> Iterator[Tensor]:
        yield self.weight
        yield self.bias

    def logits(self, features) -> Tensor:
        return ng.affine(features, self.weight, self.bias)


def _param(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _skeleton(config: EncoderConfig) -> tuple[EncoderBlock, ProjectionHead]:
    """e and g zero-filled, at exactly the shapes `config` implies."""
    block = EncoderBlock(config)
    in_channels = 1
    for c in (s.channels for s in config.layers if isinstance(s, Conv)):
        block.convs.append(_ConvLayer(_param(c, in_channels, KERNEL_WIDTH), _param(c),
                                      _param(c), _param(c), np.zeros(c), np.zeros(c)))
        in_channels = c
    return block, ProjectionHead(_param(config.context_dim, config.hidden_dim),
                                 _param(config.context_dim))


def _draw_affine(rng: np.random.Generator, weight: Tensor, bias: Tensor) -> None:
    """Kaiming-uniform weight, then a bias uniform in +-1/sqrt(fan_in), written in place."""
    fan_in = weight.data[0].size
    for t, bound in ((weight, np.sqrt(6.0 / fan_in)), (bias, 1.0 / np.sqrt(fan_in))):
        t.data[...] = rng.uniform(-bound, bound, size=t.data.shape)


def build_encoder(config: EncoderConfig, seed: int) -> tuple[EncoderBlock, ProjectionHead]:
    """Instantiate e and g with Kaiming-uniform weights, BN gamma=1 beta=0.

    All draws come from the "encoder-init" substream of the seed, in layer
    order, so the same (config, seed) always yields the same parameters.
    """
    rng = substream(seed, "encoder-init")
    block, proj = _skeleton(config)
    for layer in block.convs:
        _draw_affine(rng, layer.kernel, layer.bias)
        layer.gamma.data[...] = 1.0
        layer.running_var[...] = 1.0
    _draw_affine(rng, proj.weight, proj.bias)
    return block, proj


def build_classification_head(input_dim: int, n_classes: int, seed: int) -> ClassificationHead:
    if n_classes < 2:
        raise ConfigError(f"a classification head needs >= 2 classes, got {n_classes}")
    head = ClassificationHead(_param(n_classes, input_dim), _param(n_classes))
    _draw_affine(substream(seed, "head-init"), head.weight, head.bias)
    return head


def encode(block: EncoderBlock, x, training: bool = False) -> Tensor:
    """Forward a [batch, width] batch through e to h of shape [batch, hidden].

    Activations stay channels-last, (batch, width, channels), with the input
    read as one channel. Each pool before the first Conv is one
    `maxpool_cl` op; the rest is one `conv_stack` op. In it, each Conv is a
    fused conv/BN/ReLU unit whose pool window is the product of the MaxPool
    windows right after it (non-overlapping pools compose), and the global
    pool widens the last unit's window over its whole pooled width. A taped
    pass records one entry for the stack. It keeps each pooled unit's and
    the last unit's centred conv output, output and routing mask; an
    unpooled unit keeps only its batch statistics and is replayed in the
    backward, which writes each input gradient over the activation it
    replaces. Eval mode reads the frozen BN running stats and mutates
    nothing; train mode normalizes by batch statistics and updates the
    running stats.
    """
    xt = ng.as_tensor(x)
    if xt.data.ndim != 2:
        raise InvalidShapeError(f"expected a [batch, width] input, got shape {xt.data.shape}")
    if xt.data.shape[1] != block.config.input_width:
        raise InvalidShapeError(
            f"input width {xt.data.shape[1]} does not match the encoder's "
            f"configured width {block.config.input_width}")
    if xt.data.shape[0] == 0:
        raise InvalidShapeError(f"cannot encode an empty batch (shape {xt.data.shape})")
    specs = tuple(block.config.layers)
    first = next(i for i, spec in enumerate(specs) if isinstance(spec, Conv))
    out = xt
    for spec in specs[:first]:
        out = ng.maxpool_cl(out, spec.window)
    windows = []
    for spec in specs[first:]:
        if isinstance(spec, Conv):
            windows.append(None)
        else:
            windows[-1] = (windows[-1] or 1) * spec.window
    units = [(layer.kernel, layer.bias, layer.gamma, layer.beta, layer.running_mean,
              layer.running_var, window) for layer, window in zip(block.convs, windows)]
    return ng.conv_stack(out, units, training=training, global_pool=True)


def project(head: ProjectionHead, h) -> Tensor:
    return ng.affine(h, head.weight, head.bias)


def count_parameters(*blocks) -> int:
    return sum(int(t.data.size) for block in blocks for t in block.parameters())


# Checkpoint key of each _ConvLayer field; conv layer i's keys end in i.
_LAYER_KEYS = {"kernel": "kernel", "bias": "bias", "gamma": "gamma", "beta": "beta",
               "running_mean": "rmean", "running_var": "rvar"}


def _encoder_arrays(block: EncoderBlock, proj: ProjectionHead) -> dict[str, np.ndarray]:
    """Checkpoint key -> live array of e and g (a Tensor's data, not a copy)."""
    arrays = {}
    for i, layer in enumerate(block.convs):
        for name, key in _LAYER_KEYS.items():
            value = getattr(layer, name)
            arrays[f"{key}{i}"] = value.data if isinstance(value, Tensor) else value
    arrays["proj_w"], arrays["proj_b"] = proj.weight.data, proj.bias.data
    return arrays


def save_encoder(path: str, block: EncoderBlock, proj: ProjectionHead,
                 extra_meta: dict | None = None) -> None:
    meta = {"kind": "encoder", "config": config_to_dict(block.config)}
    if extra_meta:
        meta.update(extra_meta)
    ng.save_arrays(path, _encoder_arrays(block, proj), meta=meta)


def load_encoder(path: str) -> tuple[EncoderBlock, ProjectionHead, dict]:
    arrays, meta = ng.load_arrays(path)
    if meta.get("kind") != "encoder":
        raise CheckpointError(f"{path} is not an encoder checkpoint "
                              f"(kind={meta.get('kind')!r})")
    try:
        config = config_from_dict(meta.get("config"))
    except ConfigError as err:
        raise CheckpointError(f"encoder checkpoint {path}: {err}") from None
    block, proj = _skeleton(config)
    for key, live in _encoder_arrays(block, proj).items():
        if key not in arrays:
            raise CheckpointError(f"encoder checkpoint {path} lacks array {key!r}")
        if arrays[key].shape != live.shape:
            raise CheckpointError(f"encoder checkpoint {path}: array {key!r} has shape "
                                  f"{arrays[key].shape}, its config needs {live.shape}")
        live[...] = arrays[key]
    return block, proj, meta


def save_head(path: str, head: ClassificationHead, extra_meta: dict | None = None) -> None:
    meta = {"kind": "head"}
    if extra_meta:
        meta.update(extra_meta)
    ng.save_arrays(path, {"weight": head.weight.data, "bias": head.bias.data}, meta=meta)


def load_head(path: str) -> tuple[ClassificationHead, dict]:
    arrays, meta = ng.load_arrays(path)
    if meta.get("kind") != "head":
        raise CheckpointError(f"{path} is not a classification-head checkpoint "
                              f"(kind={meta.get('kind')!r})")
    try:
        head = ClassificationHead(Tensor(arrays["weight"], requires_grad=True),
                                  Tensor(arrays["bias"], requires_grad=True))
    except KeyError as missing:
        raise CheckpointError(f"head checkpoint {path} lacks array {missing}") from None
    if head.weight.data.ndim != 2 or head.bias.data.shape != (head.n_classes,):
        raise CheckpointError(f"head checkpoint {path}: weight of shape {head.weight.data.shape} "
                              f"and bias of shape {head.bias.data.shape} do not make a head")
    return head, meta

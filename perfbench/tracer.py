"""In-memory span tracer installed around flowcl's public functions.

Spans are recorded from outside the program: `install` replaces each traced
function with a wrapper in every flowcl module that holds a reference to it,
so calls made through any import path are seen. Each span keeps its name, its
parent's id, and perf_counter start and end; spans stay in memory and are
written once, when the traced command ends.

Backward rules are traced too: the wrapper around `record_op` wraps the rule
it receives in a span named after the innermost open span, so the rule that
`conv1d` records shows up as `numgrad.conv1d.bwd` under `numgrad.backward`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: dict[int, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(_clock())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = _clock()
        self._stack.pop()

    def current(self) -> str:
        return self.names[self._stack[-1]] if self._stack else "cli"

    def dump(self, path: str) -> None:
        """Write the spans as .npz, then `path`.json with how long that took."""
        start = _clock()
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(path, names=np.array(table),
                 name_index=np.array([index[n] for n in self.names], dtype=np.int32),
                 parents=np.array(self.parents, dtype=np.int32),
                 starts=np.array(self.starts), ends=np.array(self.ends),
                 attr_ids=np.array(list(self.attrs), dtype=np.int64),
                 attr_values=np.array(list(self.attrs.values()), dtype=np.float64))
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"write_s": _clock() - start}, fh)


def _span(tracer: Tracer, name: str, fn, attr=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if attr is not None:
            value = attr(args, kwargs, result)
            if value is not None:
                tracer.attrs[sid] = value
        return result
    return wrapper


def conv_flops(x_shape, kernel_shape) -> float:
    """Multiply-adds x 2 of one width-2 conv1d forward, from shapes alone."""
    batch, in_ch, width = x_shape
    return 2.0 * batch * kernel_shape[0] * 2 * in_ch * (width - 1)


def _encode(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(block, x, training=False):
        sid = tracer.open("model.encode.train" if training else "model.encode.eval")
        try:
            return fn(block, x, training=training)
        finally:
            tracer.close(sid)
            tracer.attrs[sid] = x.shape[0]
    return wrapper


def _record_op(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(output, inputs, rule):
        label = tracer.current() + ".bwd"
        flops = (2.0 * conv_flops(inputs[0].shape, inputs[1].shape)
                 if label == "numgrad.conv1d.bwd" else None)

        def timed_rule(g):
            sid = tracer.open(label)
            try:
                return rule(g)
            finally:
                tracer.close(sid)
                if flops is not None:
                    tracer.attrs[sid] = flops
        return fn(output, inputs, timed_rule)
    return wrapper


def _backward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(loss, tape):
        sid = tracer.open("numgrad.backward")
        try:
            return fn(loss, tape)
        finally:
            tracer.close(sid)
            tracer.attrs[sid] = len(tape)
    return wrapper


def _peak_memory(tracer: Tracer, name: str, fn):
    """Span plus tracemalloc peak (MB) for the duration of the call only."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        sid = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)
            tracer.attrs[sid] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
    return wrapper


def _rows(args, kwargs, result):
    return len(result)


def _rows_in(args, kwargs, result):
    return len(args[0])


def _conv_attr(args, kwargs, result):
    return conv_flops(args[0].shape, args[1].shape)


def _shuffle_attr(args, kwargs, result):
    return 1.0 if args[1:2] == ("pretrain-shuffle",) else None


# (module, attribute, span name, attribute hook); names match the layer table.
PLAIN_TARGETS = [
    ("flowcl.numgrad.ops", "conv1d", "numgrad.conv1d", _conv_attr),
    ("flowcl.numgrad.ops", "batchnorm1d", "numgrad.batchnorm1d", None),
    ("flowcl.numgrad.ops", "relu", "numgrad.relu", None),
    ("flowcl.numgrad.ops", "maxpool1d", "numgrad.maxpool1d", None),
    ("flowcl.numgrad.ops", "global_maxpool1d", "numgrad.global_maxpool1d", None),
    ("flowcl.numgrad.ops", "affine", "numgrad.affine", None),
    ("flowcl.numgrad.ops", "softmax_cross_entropy", "numgrad.softmax_cross_entropy", None),
    ("flowcl.numgrad.checkpoint", "save_arrays", "numgrad.checkpoint.save", None),
    ("flowcl.numgrad.checkpoint", "load_arrays", "numgrad.checkpoint.load", None),
    ("flowcl.sscl", "pretrain", "sscl.pretrain", None),
    ("flowcl.sscl", "holdout_loss", "sscl.holdout_loss", None),
    ("flowcl.sscl", "batch_loss", "sscl.batch_loss", None),
    ("flowcl.sscl", "train_head", "sscl.train_head", None),
    ("flowcl.sscl", "evaluate_head", "sscl.evaluate_head", None),
    ("flowcl.sscl", "predict", "sscl.predict", None),
    ("flowcl.sscl", "run_head_stage", "sscl.run_head_stage", None),
    ("flowcl.augment", "augment_pair", "augment.augment_pair", None),
    ("flowcl.seeding", "substream", "seeding.substream", _shuffle_attr),
    ("flowcl.model", "project", "model.project", None),
    ("flowcl.model", "build_encoder", "model.build_encoder", None),
    ("flowcl.model", "build_classification_head", "model.build_classification_head", None),
    ("flowcl.model", "save_encoder", "model.save_encoder", None),
    ("flowcl.model", "load_encoder", "model.load_encoder", None),
    ("flowcl.model", "save_head", "model.save_head", None),
    ("flowcl.model", "load_head", "model.load_head", None),
    ("flowcl.dataio", "load_csv", "dataio.load_csv", _rows),
    ("flowcl.dataio", "fit_preprocessor", "dataio.fit_preprocessor", None),
    ("flowcl.dataio", "encode_dataset", "dataio.encode_dataset", _rows_in),
    ("flowcl.dataio", "save_encoded", "dataio.save_encoded", None),
    ("flowcl.dataio", "load_encoded", "dataio.load_encoded", None),
    ("flowcl.dataio", "save_state", "dataio.save_state", None),
    ("flowcl.dataio", "load_state", "dataio.load_state", None),
    ("flowcl.dataio", "load_schema", "dataio.load_schema", None),
    ("flowcl.dataio", "packaged_schema", "dataio.packaged_schema", None),
    ("flowcl.dataio", "stratified_split", "dataio.stratified_split", None),
    ("flowcl.dataio", "stratified_subsample", "dataio.stratified_subsample", None),
    ("flowcl.dataio", "random_split", "dataio.random_split", None),
    ("flowcl.dataio", "binarize", "dataio.binarize", None),
    ("flowcl.dataio", "filter_classes", "dataio.filter_classes", None),
    ("flowcl.dataio", "write_json", "dataio.write_json", None),
    ("flowcl.transfer", "build_alignment", "transfer.build_alignment", None),
    ("flowcl.transfer", "align_matrix", "transfer.align_matrix", None),
    ("flowcl.transfer", "fit_transfer_preprocessor", "transfer.fit_transfer_preprocessor", None),
    ("flowcl.transfer", "transfer_evaluate", "transfer.transfer_evaluate", None),
    ("flowcl.metrics", "confusion", "metrics.confusion", None),
    ("flowcl.metrics", "metrics", "metrics.metrics", None),
    ("flowcl.metrics", "report_to_dict", "metrics.report_to_dict", None),
]


def _rebind(original, replacement) -> None:
    """Point every flowcl module attribute that holds `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "flowcl" or name.startswith("flowcl.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; return the targets this flowcl lacks."""
    missing = []
    targets = [(m, a, functools.partial(_span, tracer, n, attr=h))
               for m, a, n, h in PLAIN_TARGETS]
    targets += [
        ("flowcl.model", "encode", functools.partial(_encode, tracer)),
        ("flowcl.numgrad.tensor", "record_op", functools.partial(_record_op, tracer)),
        ("flowcl.numgrad.tensor", "backward", functools.partial(_backward, tracer)),
        ("flowcl.sscl", "representation_features",
         functools.partial(_peak_memory, tracer, "sscl.representation_features")),
    ]
    for module_name, attr, make in targets:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        _rebind(original, make(original))
    optim = sys.modules.get("flowcl.numgrad.optim")
    adamw = getattr(optim, "AdamW", None)
    if adamw is None:
        missing.append("flowcl.numgrad.optim.AdamW.step")
    else:
        adamw.step = _span(tracer, "numgrad.adamw.step", adamw.step)
    return missing

"""UNSW-NB15-shaped synthetic flow records for the benchmark.

Rows follow the packaged `unsw_nb15_smaller` schema: 39 numeric columns with
heavy-tailed (log-normal, partly zero) values, and the `proto`, `service` and
`state` categoricals, each drawn from its own vocabulary. Every class has its
own numeric offsets and a favourite value per categorical, so the label is
learnable from the features. Files carry the real pack's extra `id` and binary
`label` columns, which the schema ignores, and spell the Backdoors class with
its alias "Backdoor", as the real CSVs do.

Nothing here is downloaded: the generator is a pure function of (schema,
row count, seed).
"""

from __future__ import annotations

import csv

import numpy as np

# Share of rows in the benign class; the nine attack classes split the rest.
NORMAL_SHARE = 0.5
# Probability that a categorical takes its class's favourite value.
FAVOURITE_SHARE = 0.6
# Probability that a numeric cell is exactly 0 (counters that did not fire).
ZERO_SHARE = 0.2


def generate_rows(schema, n_rows: int, seed: int, stream: int = 0):
    """Return (rows, labels): CSV rows as string lists and class indices.

    Class structure (offsets, favourite categories) depends only on `seed`;
    `stream` selects independent draws of rows, so a train and a test file
    made from one seed share their class structure.
    """
    structure = np.random.default_rng([seed, 0x554E5357])
    draws = np.random.default_rng([seed, 0x554E5357, stream + 1])
    n_classes = len(schema.class_names)
    priors = [NORMAL_SHARE] + [(1.0 - NORMAL_SHARE) / (n_classes - 1)] * (n_classes - 1)
    labels = draws.choice(n_classes, size=n_rows, p=priors)
    columns = []  # one list of cell strings per feature, in schema order
    for f in schema.features:
        if f.kind == "numeric":
            log = (structure.uniform(0.0, 6.0) + structure.normal(0.0, 1.5, size=n_classes)[labels]
                   + draws.normal(0.0, 1.0, size=n_rows))
            values = np.where(draws.random(size=n_rows) < ZERO_SHARE, 0.0, np.exp(log))
            columns.append([f"{v:.6g}" for v in values])
        else:
            favourite = structure.integers(0, len(f.vocabulary), size=n_classes)[labels]
            uniform = draws.integers(0, len(f.vocabulary), size=n_rows)
            pick = np.where(draws.random(size=n_rows) < FAVOURITE_SHARE, favourite, uniform)
            columns.append([f.vocabulary[i] for i in pick])
    names = [_label_spelling(schema, c) for c in schema.class_names]
    rows = [[str(r + 1)] + [col[r] for col in columns]
            + [names[labels[r]], "0" if labels[r] == 0 else "1"]
            for r in range(n_rows)]
    return rows, labels


def _label_spelling(schema, class_name: str) -> str:
    for alias, canonical in schema.label_aliases:
        if canonical == class_name:
            return alias
    return class_name


def write_csv(path: str, schema, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f.name for f in schema.features]
                        + [schema.label_column, "label"])
        writer.writerows(rows)

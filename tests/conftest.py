"""Shared builders for small schemas, datasets, and models."""

import sys

import numpy as np
import pytest

from ctrbias.data import Dataset, FieldSchema
from ctrbias.models import init_params
from oracles import coded


def float_bits(x):
    """Raw bytes of a float64 array or scalar, so -0.0 and NaN signs count."""
    return np.asarray(x, dtype=np.float64).tobytes()


def make_schema(n_users=4, n_items=6, n_groups=3):
    """user/item/group schema in the layout the synthetic generator uses."""
    return FieldSchema(
        fields=(("user", n_users), ("item", n_items), ("group", n_groups)),
        bias_field="group",
        categories={
            "user": tuple(f"u{i}" for i in range(n_users)),
            "item": tuple(f"i{i}" for i in range(n_items)),
            "group": tuple(f"g{i}" for i in range(n_groups)),
        },
    )


def dataset(schema, indices, values, labels, users, items, stamps, **kw):
    """Dataset from user and item id columns given as strings (or values
    that print as the ids), coded through their sorted distinct strings."""
    (user_ids, user_vocab), (item_ids, item_vocab) = coded(users), coded(items)
    return Dataset(schema, indices, values, labels, user_ids, item_ids, stamps,
                   user_vocab=user_vocab, item_vocab=item_vocab, **kw)


def per_row_strings(ds):
    """Names of the per-row arrays of strings or objects that ds, or its
    ranking frame once built, holds; its id vocabularies are per distinct
    id."""
    frames = [vars(ds)] + ([vars(ds._blocks)] if ds._blocks is not None else [])
    return [name for frame in frames for name, value in frame.items()
            if isinstance(value, np.ndarray) and value.dtype.kind in "UO"
            and name not in ("user_vocab", "item_vocab")]


def make_dataset(schema, rows, split_tag="train"):
    """Dataset from (indices, values, label, user_id, item_id, timestamp)
    rows, each padded with index 0 / value 0.0 to the widest; Dataset
    checks index range, values, per-field sums and labels."""
    width = max((len(r[0]) for r in rows), default=0)
    indices = np.zeros((len(rows), width), dtype=np.int64)
    values = np.zeros((len(rows), width))
    for i, (idx, val, *_) in enumerate(rows):
        indices[i, :len(idx)] = idx
        values[i, :len(val)] = val
    labels, users, items, stamps = ([r[k] for r in rows] for k in range(2, 6))
    return dataset(schema, indices, values, labels, users, items, stamps,
                   split_tag=split_tag)


def random_dataset(rng, n_users=4, n_items=6, n_groups=3, n_rows=30,
                   multi_group_prob=0.0, split_tag="test"):
    """Random interaction log; rows may carry two groups (value 1/2 each)."""
    schema = make_schema(n_users, n_items, n_groups)
    rows = []
    for t in range(n_rows):
        u = int(rng.integers(n_users))
        i = int(rng.integers(n_items))
        if n_groups >= 2 and rng.random() < multi_group_prob:
            g = sorted(rng.choice(n_groups, size=2, replace=False).tolist())
            g_idx = [n_users + n_items + j for j in g]
            g_val = [0.5, 0.5]
        else:
            g_idx = [n_users + n_items + int(rng.integers(n_groups))]
            g_val = [1.0]
        rows.append(([u, n_users + i] + g_idx, [1.0, 1.0] + g_val,
                     int(rng.integers(2)), f"u{u}", f"i{i}", t))
    return make_dataset(schema, rows, split_tag=split_tag)


def random_params(rng, n, d, arch="fm", hidden=4, scale=0.5):
    """Model with non-trivial weights everywhere, for scoring tests."""
    params = init_params(n, d, arch, seed=int(rng.integers(2 ** 31)), hidden=hidden)
    params.w0 = float(rng.normal() * scale)
    params.w = rng.normal(size=n) * scale
    params.V = rng.normal(size=(n, d)) * scale
    if arch == "nfm":
        params.mlp.W1 = rng.normal(size=params.mlp.W1.shape) * scale
        params.mlp.b1 = rng.normal(size=params.mlp.b1.shape) * scale
        params.mlp.w_out = rng.normal(size=params.mlp.w_out.shape) * scale
        params.mlp.b_out = float(rng.normal() * scale)
    return params


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def count_calls(monkeypatch, module, name):
    """Wrap module.<name> wherever a ctrbias module holds it, or on the
    class itself when `module` is a class; return the list that gains one
    (args, kwargs) entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    if isinstance(module, type):
        monkeypatch.setattr(module, name, counted)
        return calls
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.split(".")[0] == "ctrbias"
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls

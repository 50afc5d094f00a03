"""Embedding datasets: in-memory representation, synthetic worlds, binary IO.

Datasets hold precomputed feature vectors with dense 1-based class labels.
The on-disk FSE1 format is little-endian: magic "FSE1", version u32,
dim u32, count u64, then count records of [label u32][dim x float32].
Features are stored as float32 in memory so a write/read round trip is
bit-exact.

Loading costs one size check, one mapping and one sort: `read_dataset`
sizes the payload with `os.fstat` and rejects a truncated or overlong file
(or a pipe, which has no size) before it maps anything, then maps the
records read-only, so no record-sized buffer is allocated and the features
are a read-only view of the file's pages. `EmbeddingDataset` indexes the
rows of every class from one stable argsort of the labels: a class's rows
are a slice of it between two bounds.
"""

from __future__ import annotations

import mmap
import operator
import os
import stat
import struct
from functools import cached_property

import numpy as np

from .crp import integers

_MAGIC = b"FSE1"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")


class EmbeddingDataset:
    """Labelled feature vectors with labels densely numbered 1..N."""

    def __init__(self, labels, features):
        labels = integers(labels, "row {i}: label {v} is not an integer class index").ravel()
        features = np.asarray(features, dtype=np.float32)
        if features.ndim != 2:
            raise ValueError(f"features must be (count, dim), got shape {features.shape}")
        if len(labels) != len(features):
            raise ValueError(f"{len(labels)} labels for {len(features)} feature rows")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        # stable, so each class keeps its rows in ascending order
        order = np.argsort(labels, kind="stable")
        ordered = labels[order]
        heads = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        uniq = ordered[np.concatenate([[0], heads])] if len(ordered) else ordered
        if len(uniq) and (uniq[0] < 1 or uniq[-1] != len(uniq)):
            missing = np.setdiff1d(np.arange(1, uniq[-1] + 1), uniq)
            what = f"missing {missing[0]}" if len(missing) else f"label {uniq[0]}"
            raise ValueError(f"labels must be dense 1..N ({what})")
        self.labels = labels
        self.features = features
        # class c's rows are order[bounds[c - 1]:bounds[c]]
        self._order, self._bounds = order, [0, *heads.tolist(), len(order)] if len(order) else [0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self._bounds) - 1

    @property
    def class_ids(self) -> np.ndarray:
        return np.arange(1, self.n_classes + 1)

    def class_rows(self, c) -> np.ndarray:
        """The rows of class c, an integer in 1..n_classes, in ascending order."""
        try:
            c = operator.index(c)
        except TypeError:
            raise ValueError(f"class id {c!r} is not an integer") from None
        if not 1 <= c <= self.n_classes:
            raise ValueError(f"class id {c} is not in 1..{self.n_classes}")
        return self._order[self._bounds[c - 1] : self._bounds[c]]

    @cached_property
    def features_f64(self) -> np.ndarray:
        return self.features.astype(np.float64)

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, EmbeddingDataset)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.features, other.features)
        )


def generate_synthetic_world(
    n_classes, dim, prior_variance, noise_variance, points_per_class, seed, *, return_means=False
):
    """Draw class means from N(0, prior_variance I) and points from
    N(mean, noise_variance I); deterministic under the seed."""
    if min(n_classes, dim, points_per_class) < 1:
        raise ValueError("n_classes, dim and points_per_class must be at least 1")
    if prior_variance < 0 or noise_variance < 0:
        raise ValueError("variances must be non-negative")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, np.sqrt(prior_variance), size=(n_classes, dim))
    noise = rng.normal(0.0, 1.0, size=(n_classes * points_per_class, dim))
    features = np.repeat(means, points_per_class, axis=0) + np.sqrt(noise_variance) * noise
    labels = np.repeat(np.arange(1, n_classes + 1), points_per_class)
    ds = EmbeddingDataset(labels, features)
    return (ds, means) if return_means else ds


def subset_classes(ds: EmbeddingDataset, class_ids) -> EmbeddingDataset:
    """Dataset restricted to the given classes, relabelled densely in
    ascending order of the original ids; row order preserved."""
    class_ids = np.sort(np.array([int(c) for c in class_ids], dtype=np.int64))
    mask = np.isin(ds.labels, class_ids)
    # 1-based position of each label among the sorted ids (the last, if repeated)
    labels = np.searchsorted(class_ids, ds.labels[mask], side="right")
    return EmbeddingDataset(labels, ds.features[mask])


def split_dataset(ds: EmbeddingDataset, first_k) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """Split by class id into (classes 1..first_k, the rest), both dense."""
    if not 0 < first_k < ds.n_classes:
        raise ValueError(f"first_k must be in 1..{ds.n_classes - 1}, got {first_k}")
    ids = ds.class_ids
    return subset_classes(ds, ids[:first_k]), subset_classes(ds, ids[first_k:])


def replace_file(path, chunks):
    """Write chunks (bytes-like) to a new file beside path, then move it over path: no reader
    sees a partly written file, one that mapped the old file keeps its pages, a failed write no change."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_dataset(path, ds: EmbeddingDataset):
    """Write ds by replace_file: datasets read from the old file keep their pages."""
    rec = np.empty(len(ds), dtype=_record_dtype(ds.dim))
    rec["label"] = ds.labels
    rec["feat"] = ds.features
    replace_file(path, [_HEADER.pack(_MAGIC, _VERSION, ds.dim, len(ds)), rec])


def read_dataset(path) -> EmbeddingDataset:
    """Map an FSE1 file read-only. The dataset reads the file's pages while it lives: do not truncate
    the file in place meanwhile, as reading a page cut off kills the process (SIGBUS); replace it, as
    `write_dataset` does."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(
                f"{path}: truncated header ({len(header)} bytes, need {_HEADER.size})"
            )
        magic, version, dim, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, not an FSE1 dataset")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version} (expected {_VERSION})")
        if dim < 1:
            raise ValueError(f"{path}: dim must be positive, got {dim}")
        rec_size = 4 + 4 * dim
        need = count * rec_size
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise ValueError(f"{path}: not a regular file, so its records cannot be sized")
        _check_payload(path, st.st_size - _HEADER.size, need, rec_size)
        pages = mmap.mmap(fh.fileno(), _HEADER.size + need, access=mmap.ACCESS_READ)
    rec = np.frombuffer(pages, dtype=_record_dtype(dim), count=count, offset=_HEADER.size)
    labels = rec["label"].astype(np.int64)
    if np.any(labels == 0):
        raise ValueError(f"{path}: record {int(np.flatnonzero(labels == 0)[0])}: label 0")
    return EmbeddingDataset(labels, rec["feat"])


def _check_payload(path, got, need, rec_size):
    if got < need:
        raise ValueError(
            f"{path}: truncated in record {got // rec_size} "
            f"(need {need} payload bytes, got {got})"
        )
    if got > need:
        raise ValueError(f"{path}: trailing garbage ({got - need} bytes past count)")


def _record_dtype(dim):
    return np.dtype([("label", "<u4"), ("feat", "<f4", (dim,))])

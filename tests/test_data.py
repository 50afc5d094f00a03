"""Datasets, synthetic worlds, and the two binary file formats.

The FSE1 header test parses the written bytes with struct independently of
the reader. The checkpoint round trip must be bit-exact because arrays are
written as raw little-endian float64. The class index and the relabelling
of subsets are checked against the per-class scan and the dict remap they
replaced, so sampled episodes cannot move.
"""

import json
import os
import re
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowr import checkpoint
from flowr.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from flowr.crp import CrpParams
from flowr.data import (
    EmbeddingDataset,
    generate_synthetic_world,
    read_dataset,
    split_dataset,
    subset_classes,
    write_dataset,
)
from flowr.encoder import ClassEmbeddings, Encoder
from flowr.gaussian import NoiseModel
from flowr.meta import MetaParams
from flowr.model import init_large_context, predict


@st.composite
def shuffled_dense_labels(draw, max_classes=8):
    """Labels 1..N, each class 1..6 rows, in a random order (N may be 0)."""
    counts = draw(st.lists(st.integers(1, 6), max_size=max_classes))
    labels = np.repeat(np.arange(1, len(counts) + 1), counts).tolist()
    return np.array(draw(st.permutations(labels)), dtype=np.int64)


class TestEmbeddingDataset:
    def test_rejects_sparse_labels(self):
        with pytest.raises(ValueError, match="missing 2"):
            EmbeddingDataset([1, 3], np.zeros((2, 4), dtype=np.float32))

    def test_rejects_label_zero(self):
        with pytest.raises(ValueError, match="label 0"):
            EmbeddingDataset([0, 1], np.zeros((2, 4), dtype=np.float32))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="3 labels for 2 feature rows"):
            EmbeddingDataset([1, 1, 2], np.zeros((2, 4), dtype=np.float32))

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingDataset([1], [[np.inf, 0.0]])

    def test_rejects_non_integer_labels(self):
        """[1.0, 2.6] used to be truncated to the labels [1, 2]."""
        with pytest.raises(ValueError, match=r"^row 1: label 2\.6 is not an integer class index$"):
            EmbeddingDataset([1.0, 2.6], np.zeros((2, 4), dtype=np.float32))

    def test_integer_valued_float_labels_are_accepted(self):
        ds = EmbeddingDataset([1.0, 2.0], np.zeros((2, 4), dtype=np.float32))
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, [1, 2])

    def test_class_rows_partition_the_dataset(self):
        ds = generate_synthetic_world(4, 3, 1.0, 0.1, 5, seed=0)
        rows = np.concatenate([ds.class_rows(c) for c in ds.class_ids])
        assert sorted(rows) == list(range(len(ds)))
        for c in ds.class_ids:
            assert np.all(ds.labels[ds.class_rows(c)] == c)

    @pytest.mark.parametrize(
        ("c", "message"),
        [
            (0, r"class id 0 is not in 1\.\.3"),
            (4, r"class id 4 is not in 1\.\.3"),
            (-1, r"class id -1 is not in 1\.\.3"),
            (3.7, r"class id 3\.7 is not an integer"),
            (2.0, r"class id 2\.0 is not an integer"),
            ("1", r"class id '1' is not an integer"),
        ],
    )
    def test_class_rows_refuses_a_bad_class_id(self, c, message):
        """class_rows(0) used to raise a bare KeyError and class_rows(3.7)
        to return class 3's rows."""
        ds = EmbeddingDataset([1, 2, 3, 3], np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(ValueError, match=f"^{message}$"):
            ds.class_rows(c)
        np.testing.assert_array_equal(ds.class_rows(np.int64(3)), [2, 3])

    @given(labels=shuffled_dense_labels())
    @example(labels=np.array([1, 1, 1], dtype=np.int64))  # one class
    @example(labels=np.array([3, 1, 2], dtype=np.int64))  # one row per class
    @example(labels=np.zeros(0, dtype=np.int64))  # empty
    @settings(max_examples=150)
    def test_class_rows_match_per_class_scan(self, labels):
        ds = EmbeddingDataset(labels, np.zeros((len(labels), 2), dtype=np.float32))
        assert ds.n_classes == (labels.max() if len(labels) else 0)
        for c in ds.class_ids:
            rows, ref = ds.class_rows(c), np.flatnonzero(labels == c)
            assert rows.dtype == ref.dtype == np.int64
            np.testing.assert_array_equal(rows, ref)


class TestSyntheticWorld:
    def test_seed_determinism(self):
        a = generate_synthetic_world(5, 4, 2.0, 0.3, 7, seed=11)
        b = generate_synthetic_world(5, 4, 2.0, 0.3, 7, seed=11)
        c = generate_synthetic_world(5, 4, 2.0, 0.3, 7, seed=12)
        assert a == b
        assert a != c

    def test_return_means_centers_classes(self):
        """With tiny noise every point sits close to its class mean."""
        ds, means = generate_synthetic_world(3, 6, 4.0, 1e-8, 10, seed=2, return_means=True)
        assert means.shape == (3, 6)
        for c in ds.class_ids:
            np.testing.assert_allclose(
                ds.features_f64[ds.class_rows(c)].mean(axis=0), means[c - 1], atol=1e-3
            )

    def test_shapes_and_label_layout(self):
        ds = generate_synthetic_world(3, 2, 1.0, 0.5, 4, seed=0)
        assert (len(ds), ds.dim, ds.n_classes) == (12, 2, 3)
        np.testing.assert_array_equal(ds.labels, np.repeat([1, 2, 3], 4))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            generate_synthetic_world(0, 2, 1.0, 0.5, 4, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            generate_synthetic_world(2, 2, -1.0, 0.5, 4, seed=0)

    def test_benchmark_scale_separability(self):
        """prior variance 25, noise 0.5, dim 8: the class means stay far
        apart relative to the noise floor, so episodes sampled from these
        worlds are learnable. Checked over several seeds."""
        noise_scale = np.sqrt(0.5)
        ok = total = 0
        for seed in range(5):
            _, means = generate_synthetic_world(
                15, 8, 25.0, 0.5, 5, seed=seed, return_means=True
            )
            d = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
            iu = np.triu_indices(len(means), k=1)
            ok += np.count_nonzero(d[iu] > 6.0 * noise_scale)
            total += len(iu[0])
        assert ok / total >= 0.95


class TestSubsetAndSplit:
    def test_subset_relabels_densely(self):
        ds = generate_synthetic_world(5, 3, 1.0, 0.2, 4, seed=3)
        sub = subset_classes(ds, [2, 5])
        assert sub.n_classes == 2 and len(sub) == 8
        np.testing.assert_array_equal(sub.features[sub.class_rows(1)], ds.features[ds.class_rows(2)])
        np.testing.assert_array_equal(sub.features[sub.class_rows(2)], ds.features[ds.class_rows(5)])

    @given(labels=shuffled_dense_labels(max_classes=10), data=st.data())
    @settings(max_examples=100)
    def test_subset_matches_dict_relabelling(self, labels, data):
        """Shuffled labels, class ids in any order: the relabelled dataset
        equals the one built by remapping each row through a dict."""
        rng = np.random.default_rng(len(labels))
        ds = EmbeddingDataset(labels, rng.normal(size=(len(labels), 3)))
        ids = data.draw(st.permutations(range(1, ds.n_classes + 1)))
        class_ids = ids[: data.draw(st.integers(0, len(ids)))]
        sub = subset_classes(ds, class_ids)

        remap = {c: j + 1 for j, c in enumerate(sorted(class_ids))}
        mask = np.isin(ds.labels, class_ids)
        ref_labels = np.array([remap[int(c)] for c in ds.labels[mask]], dtype=np.int64)
        assert sub.labels.dtype == np.int64
        np.testing.assert_array_equal(sub.labels, ref_labels)
        np.testing.assert_array_equal(sub.features, ds.features[mask])
        assert sub.n_classes == len(class_ids)
        for c in sub.class_ids:
            np.testing.assert_array_equal(sub.class_rows(c), np.flatnonzero(ref_labels == c))

    def test_split_covers_everything(self):
        ds = generate_synthetic_world(6, 3, 1.0, 0.2, 4, seed=4)
        left, right = split_dataset(ds, 4)
        assert (left.n_classes, right.n_classes) == (4, 2)
        assert len(left) + len(right) == len(ds)
        np.testing.assert_array_equal(
            np.vstack([left.features, right.features]), ds.features
        )

    def test_split_bounds(self):
        ds = generate_synthetic_world(3, 2, 1.0, 0.2, 2, seed=0)
        with pytest.raises(ValueError, match="first_k must be in 1..2"):
            split_dataset(ds, 3)


class TestDatasetMapping:
    """The FSE1 payload is mapped, not copied, and a rewrite of the file
    replaces it, so a dataset read before the rewrite keeps its values."""

    def test_read_allocates_no_record_sized_buffer(self, tmp_path):
        """What a read allocates is the labels, the class index and the
        count x dim bool temporary of the finite check: dim / (4 + 4 dim)
        of the payload, under a half, where a copied payload is all of it."""
        path = tmp_path / "d.fse"
        write_dataset(path, generate_synthetic_world(40, 64, 1.0, 0.1, 400, seed=3))
        payload = os.path.getsize(path) - 20
        assert payload >= 1 << 20
        tracemalloc.start()
        try:
            ds = read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == 16_000
        assert peak < payload / 2

    def test_rewrite_keeps_a_live_dataset(self, tmp_path):
        """A rewrite that truncated the mapped file in place would kill this
        process with SIGBUS when the old dataset is next read."""
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from flowr.data import generate_synthetic_world, read_dataset, write_dataset

            path = sys.argv[1]
            write_dataset(path, generate_synthetic_world(30, 16, 1.0, 0.1, 200, seed=1))
            old = read_dataset(path)
            labels, features = old.labels.copy(), np.array(old.features)
            write_dataset(path, generate_synthetic_world(2, 4, 1.0, 0.1, 3, seed=2))
            assert np.array_equal(old.labels, labels)
            assert np.array_equal(old.features, features)
            assert len(read_dataset(path)) == 6
            """
        )
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "d.fse")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert os.listdir(tmp_path) == ["d.fse"]

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "d.fse").mkdir()
        with pytest.raises(IsADirectoryError):
            write_dataset(tmp_path / "d.fse", generate_synthetic_world(2, 2, 1.0, 0.1, 3, seed=7))
        assert os.listdir(tmp_path) == ["d.fse"]


class TestDatasetFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = generate_synthetic_world(4, 7, 3.0, 0.4, 9, seed=5)
        path = tmp_path / "d.fse"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert back == ds
        assert back.features.dtype == np.float32

    def test_empty_dataset_round_trips(self, tmp_path):
        ds = EmbeddingDataset(np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=np.float32))
        path = tmp_path / "empty.fse"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert len(back) == 0 and back.dim == 3
        assert back.features.shape == (0, 3) and back.n_classes == 0

    @pytest.mark.parametrize("points_per_class", [0, 5])
    def test_read_features_are_read_only(self, tmp_path, points_per_class):
        ds = EmbeddingDataset(
            np.repeat([1, 2], points_per_class), np.ones((2 * points_per_class, 3))
        )
        path = tmp_path / "d.fse"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert not back.features.flags.writeable
        if points_per_class:
            with pytest.raises(ValueError, match="read-only"):
                back.features[0, 0] = 2.0

    def test_header_layout(self, tmp_path):
        """Independent struct parse: magic, version, dim, count occupy the
        first 20 bytes, so record 0 starts at byte 20."""
        ds = generate_synthetic_world(10, 64, 1.0, 0.1, 60, seed=6)
        path = tmp_path / "d.fse"
        write_dataset(path, ds)
        raw = path.read_bytes()
        magic, version, dim, count = struct.unpack_from("<4sIIQ", raw, 0)
        assert (magic, version, dim, count) == (b"FSE1", 1, 64, 600)
        (label0,) = struct.unpack_from("<I", raw, 20)
        feat0 = np.frombuffer(raw, dtype="<f4", count=64, offset=24)
        assert label0 == ds.labels[0]
        np.testing.assert_array_equal(feat0, ds.features[0])
        assert len(raw) == 20 + 600 * (4 + 4 * 64)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "d.fse"
        path.write_bytes(b"FSE1\x01\x00")
        with pytest.raises(ValueError, match="truncated header"):
            read_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.fse"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="bad magic"):
            read_dataset(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "d.fse"
        path.write_bytes(struct.pack("<4sIIQ", b"FSE1", 7, 2, 0))
        with pytest.raises(ValueError, match="unsupported version 7"):
            read_dataset(path)

    def test_truncated_record_names_index(self, tmp_path):
        ds = generate_synthetic_world(2, 2, 1.0, 0.1, 3, seed=7)
        path = tmp_path / "d.fse"
        write_dataset(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[: 20 + 2 * 12 + 5])  # dies partway through record 2
        with pytest.raises(ValueError, match="truncated in record 2"):
            read_dataset(path)

    @pytest.mark.parametrize("count", [250_000, 2**40])
    def test_overstated_count_fails_before_allocating(self, tmp_path, count):
        """A header claiming more records than the file holds is refused
        from the file size: no count-record buffer is ever allocated (at
        2**40 records of dim 64 the buffer could not be)."""
        path = tmp_path / "d.fse"
        record = struct.pack("<I64f", 1, *range(64))
        path.write_bytes(struct.pack("<4sIIQ", b"FSE1", 1, 64, count) + 2 * record)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated in record 2"):
                read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_pipe_is_refused(self, tmp_path):
        """The payload is sized from the file, which a pipe does not have."""
        path = tmp_path / "d.fse"
        write_dataset(path, generate_synthetic_world(2, 2, 1.0, 0.1, 3, seed=7))
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "wb") as w:
            w.write(path.read_bytes())
        try:
            with pytest.raises(ValueError, match="not a regular file"):
                read_dataset(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)

    def test_trailing_garbage(self, tmp_path):
        ds = generate_synthetic_world(2, 2, 1.0, 0.1, 3, seed=7)
        path = tmp_path / "d.fse"
        write_dataset(path, ds)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError, match="trailing garbage"):
            read_dataset(path)

    def test_label_zero_rejected_with_position(self, tmp_path):
        ds = generate_synthetic_world(2, 2, 1.0, 0.1, 2, seed=7)
        path = tmp_path / "d.fse"
        write_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 20 + 3 * 12, 0)  # zero out record 3's label
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="record 3: label 0"):
            read_dataset(path)


def _random_checkpoint(rng, *, lc=False):
    d = 5
    params = MetaParams(
        encoder=Encoder.affine(rng.normal(size=(d, 7)), rng.normal(size=d)),
        q0=rng.normal(size=d),
        log_lambda0=float(rng.normal()),
        rho=float(abs(rng.normal()) + 0.5),  # keeps b > 0 for zero-count states
        class_q=rng.normal(size=(4, d)) if lc else None,
        class_log_lambda=rng.normal(size=4) if lc else None,
    )
    embeddings = None
    if lc:
        embeddings = ClassEmbeddings(
            means=rng.normal(size=(4, d)), variances=np.exp(rng.normal(size=4))
        )
    return Checkpoint(
        params=params,
        crp=CrpParams(a=0.5, rho=params.rho),
        noise=NoiseModel(noise_variance=0.5),
        setting="lc" if lc else "sc",
        embeddings=embeddings,
        config_hash="deadbeef",
    )


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        ckpt = _random_checkpoint(np.random.default_rng(8), lc=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.params.q0, ckpt.params.q0)
        np.testing.assert_array_equal(back.params.encoder.weight, ckpt.params.encoder.weight)
        np.testing.assert_array_equal(back.params.encoder.bias, ckpt.params.encoder.bias)
        np.testing.assert_array_equal(back.params.class_q, ckpt.params.class_q)
        np.testing.assert_array_equal(back.params.class_log_lambda, ckpt.params.class_log_lambda)
        np.testing.assert_array_equal(back.embeddings.means, ckpt.embeddings.means)
        np.testing.assert_array_equal(back.embeddings.variances, ckpt.embeddings.variances)
        assert back.params.log_lambda0 == ckpt.params.log_lambda0
        assert back.params.rho == ckpt.params.rho
        assert back.crp.a == ckpt.crp.a
        assert back.noise.noise_variance == ckpt.noise.noise_variance
        assert back.setting == "lc"
        assert back.config_hash == "deadbeef"

    def test_small_context_round_trip_omits_stats(self, tmp_path):
        ckpt = _random_checkpoint(np.random.default_rng(9))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.params.class_q is None and back.embeddings is None

    def test_identity_encoder_round_trips(self, tmp_path):
        rng = np.random.default_rng(10)
        ckpt = Checkpoint(
            params=MetaParams(Encoder.identity(), rng.normal(size=3), 0.2, 0.3),
            crp=CrpParams(a=0.5, rho=0.3),
            noise=NoiseModel(0.5),
            setting="sc",
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.params.encoder.kind == "identity"
        assert back.config_hash is None

    def test_reload_replays_identical_predictions(self, tmp_path):
        """Predictions built from a loaded checkpoint match the original
        model bit for bit on the same queries."""
        rng = np.random.default_rng(11)
        ckpt = _random_checkpoint(rng, lc=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)

        def states(c):
            return init_large_context(
                c.embeddings, c.params.prior(), c.crp, c.noise, c.params.encoder
            )

        s0, s1 = states(ckpt), states(back)
        for _ in range(10):
            x = rng.normal(size=7)
            r0, r1 = predict(s0, x), predict(s1, x)
            np.testing.assert_array_equal(r0.probs, r1.probs)
            assert r0.novelty_score == r1.novelty_score

    def test_truncation_names_section(self, tmp_path):
        ckpt = _random_checkpoint(np.random.default_rng(12), lc=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"

        bad.write_bytes(raw[:8])
        with pytest.raises(ValueError, match="section 'prefix'"):
            load_checkpoint(bad)

        header_len = struct.unpack_from("<4sII", raw)[2]
        bad.write_bytes(raw[: 12 + header_len - 4])
        with pytest.raises(ValueError, match="section 'header'"):
            load_checkpoint(bad)

        bad.write_bytes(raw[: 12 + header_len + 3])
        with pytest.raises(ValueError, match="section 'q0'"):
            load_checkpoint(bad)

        bad.write_bytes(raw[:-4])
        with pytest.raises(ValueError, match="section"):
            load_checkpoint(bad)

    def test_trailing_garbage(self, tmp_path):
        ckpt = _random_checkpoint(np.random.default_rng(13))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing garbage"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(path)

    @staticmethod
    def _rewritten(tmp_path, edit=None, blob=None):
        """A saved affine checkpoint whose header is edit(header), or the bytes blob, followed by
        the saved bytes of each array its manifest still names."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, _random_checkpoint(np.random.default_rng(15)))
        raw = path.read_bytes()
        end = 12 + struct.unpack_from("<4sII", raw)[2]
        header, chunks = json.loads(raw[12:end]), {}
        for name, shape in header["arrays"]:
            chunks[name], end = raw[end : end + 8 * int(np.prod(shape))], end + 8 * int(np.prod(shape))
        if blob is None:
            edit(header)
            blob = json.dumps(header).encode()
            raw = b"".join(chunks[entry[0]] for entry in header.get("arrays", ()) if entry[0] in chunks)
        else:
            raw = b"".join(chunks.values())
        path.write_bytes(struct.pack("<4sII", b"FLCK", 1, len(blob)) + blob + raw)
        return path

    @pytest.mark.parametrize(
        ("blob", "message"),
        [
            (b"{not json", r"checkpoint header is not JSON \(Expecting property name .*\)"),
            (b"\xff\xfe", r"checkpoint header is not JSON \(.*\)"),
            (b"[1, 2]", r"checkpoint header is not a JSON object"),
        ],
    )
    def test_refuses_a_header_that_is_not_a_json_object(self, tmp_path, blob, message):
        """Header text that is not JSON raised a JSONDecodeError that did not name the file."""
        path = self._rewritten(tmp_path, blob=blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(path)

    def test_refuses_a_header_without_arrays(self, tmp_path):
        """A header without 'arrays' raised KeyError: 'arrays'."""
        path = self._rewritten(tmp_path, lambda h: h.pop("arrays"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint header has no 'arrays'$"):
            load_checkpoint(path)

    def test_refuses_an_affine_checkpoint_without_its_weight(self, tmp_path):
        """An affine header whose manifest lists no encoder_weight raised KeyError."""
        path = self._rewritten(tmp_path, lambda h: h.update(arrays=[a for a in h["arrays"] if a[0] != "encoder_weight"]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint has no array 'encoder_weight'$"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("log_lambda0", "x", "'log_lambda0' is not a finite number: 'x'"),
            ("rho", None, "'rho' is not a finite number: None"),
            ("noise_variance", [1], r"'noise_variance' is not a finite number: \[1\]"),
            ("a", True, "'a' is not a finite number: True"),
            ("log_lambda0", float("inf"), "'log_lambda0' is not a finite number: inf"),
            ("setting", 5, "'setting' is not 'sc' or 'lc': 5"),
            ("config_hash", 7, "'config_hash' is not a string: 7"),
        ],
    )
    def test_refuses_a_bad_header_value(self, tmp_path, key, value, message):
        """A string log_lambda0, a setting of 5 and an infinite log_lambda0
        loaded silently; a null rho raised a TypeError that did not name the file."""
        path = self._rewritten(tmp_path, lambda h: h.update({key: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint header {message}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda h: h.update(encoder_kind="bogus"), "unknown encoder kind 'bogus'"),
            (lambda h: h.update(encoder_kind="identity"), "identity encoder takes no parameters"),
            (lambda h: h.update(a=2.0), r"discount a must lie in \[0, 1\), got 2\.0"),
        ],
        ids=["unknown-kind", "identity-over-a-weight", "crp-discount"],
    )
    def test_refuses_a_value_its_model_would_refuse(self, tmp_path, edit, message):
        """An unknown encoder kind loaded as the identity encoder, and an
        identity kind over a saved weight dropped the weight."""
        path = self._rewritten(tmp_path, edit)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[-1], [2, -3], [1.5], ["2"], True])
    def test_refuses_a_bad_array_shape(self, tmp_path, shape):
        """A negative dimension raised `read length must be non-negative`."""
        path = self._rewritten(tmp_path, lambda h: h["arrays"][0].__setitem__(1, shape))
        with pytest.raises(
            ValueError,
            match=f"^{re.escape(str(path))}: checkpoint array entry 0 is not \\[name, shape of non-negative integers\\]$",
        ):
            load_checkpoint(path)

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        """save_checkpoint writes beside its target and moves the file over
        it, as write_dataset does: a save that fails part-way (here the
        first array write) leaves the old checkpoint whole and no temporary
        file. It used to truncate the old file first."""
        path = tmp_path / "m.ckpt"
        old, new = _random_checkpoint(np.random.default_rng(16)), _random_checkpoint(np.random.default_rng(17))
        save_checkpoint(path, old)
        with mock.patch.object(checkpoint.np, "ascontiguousarray", side_effect=OSError("no space left")):
            with pytest.raises(OSError, match="no space left"):
                save_checkpoint(path, new)
        assert os.listdir(tmp_path) == ["m.ckpt"]
        np.testing.assert_array_equal(load_checkpoint(path).params.q0, old.params.q0)
        save_checkpoint(path, new)
        assert os.listdir(tmp_path) == ["m.ckpt"]
        np.testing.assert_array_equal(load_checkpoint(path).params.q0, new.params.q0)

    def test_config_hash_mismatch_warns(self, tmp_path):
        ckpt = _random_checkpoint(np.random.default_rng(14))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.warns(RuntimeWarning, match="does not match"):
            load_checkpoint(path, expected_config_hash="cafef00d")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_checkpoint(path, expected_config_hash="deadbeef")

"""Data formats and partitioning.

Loader tests build tiny well-formed (and deliberately malformed) binary
files on the fly, so the real formats are exercised without shipping any
dataset."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmatch.data import (
    DataFormatError,
    Dataset,
    load_cifar10,
    load_features,
    load_mnist,
    make_synthetic,
    partition_by_class,
    partition_iid,
    read_idx,
    stratified_holdout,
    stratified_subset,
    write_features,
)


def write_idx(path, array: np.ndarray) -> None:
    array = array.astype(np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">BBBB", 0, 0, 0x08, array.ndim))
        f.write(struct.pack(f">{array.ndim}I", *array.shape))
        f.write(array.tobytes())


def make_mnist_dir(tmp_path, n_train=40, n_test=16):
    rng = np.random.default_rng(0)
    write_idx(tmp_path / "train-images-idx3-ubyte",
              rng.integers(0, 256, (n_train, 28, 28)))
    write_idx(tmp_path / "train-labels-idx1-ubyte",
              rng.integers(0, 10, (n_train,)))
    write_idx(tmp_path / "t10k-images-idx3-ubyte",
              rng.integers(0, 256, (n_test, 28, 28)))
    write_idx(tmp_path / "t10k-labels-idx1-ubyte",
              rng.integers(0, 10, (n_test,)))
    return tmp_path


class TestIdx:
    def test_roundtrip(self, tmp_path):
        a = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        write_idx(tmp_path / "x", a)
        assert np.array_equal(read_idx(tmp_path / "x"), a)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "x").write_bytes(b"\x01\x00\x08\x01" + b"\x00" * 8)
        with pytest.raises(DataFormatError):
            read_idx(tmp_path / "x")

    def test_truncated_payload_rejected(self, tmp_path):
        buf = struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(">I", 10) + b"\x00" * 5
        (tmp_path / "x").write_bytes(buf)
        with pytest.raises(DataFormatError):
            read_idx(tmp_path / "x")

    def test_load_mnist_shapes_and_scaling(self, tmp_path):
        make_mnist_dir(tmp_path)
        train, test = load_mnist(tmp_path)
        assert train.samples.shape == (40, 784)
        assert test.samples.shape == (16, 784)
        assert train.samples.dtype == np.float64
        assert train.samples.min() >= 0.0 and train.samples.max() <= 1.0

    def test_load_mnist_missing_file(self, tmp_path):
        make_mnist_dir(tmp_path)
        (tmp_path / "train-labels-idx1-ubyte").unlink()
        with pytest.raises(DataFormatError, match="missing"):
            load_mnist(tmp_path)

    def test_load_mnist_count_mismatch(self, tmp_path):
        make_mnist_dir(tmp_path)
        write_idx(tmp_path / "train-labels-idx1-ubyte",
                  np.zeros(7, dtype=np.uint8))
        with pytest.raises(DataFormatError, match="images vs"):
            load_mnist(tmp_path)


@pytest.fixture(scope="module")
def cifar_dir(tmp_path_factory):
    """Full-size binary batches (the loader checks exact record counts)."""
    root = tmp_path_factory.mktemp("cifar")
    rng = np.random.default_rng(1)

    def batch(path, n):
        rec = np.zeros((n, 3073), dtype=np.uint8)
        rec[:, 0] = rng.integers(0, 10, n)
        rec[:, 1:] = rng.integers(0, 256, (n, 3072))
        path.write_bytes(rec.tobytes())

    for i in range(1, 6):
        batch(root / f"data_batch_{i}.bin", 10000)
    batch(root / "test_batch.bin", 10000)
    return root


def link_cifar(src, dst, corrupt: str):
    """Clone the fixture dir via hardlinks except the file to corrupt."""
    import shutil
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        if name == corrupt:
            shutil.copy(src / name, dst / name)
        else:
            (dst / name).hardlink_to(src / name)
    return dst


class TestCifar:
    def test_load_shapes(self, cifar_dir):
        train, test = load_cifar10(cifar_dir)
        assert train.samples.shape == (50000, 3, 32, 32)
        assert test.samples.shape == (10000, 3, 32, 32)
        assert 0.0 <= train.samples.min() and train.samples.max() <= 1.0

    def test_non_record_multiple_rejected(self, cifar_dir, tmp_path):
        link_cifar(cifar_dir, tmp_path, corrupt="data_batch_3.bin")
        with open(tmp_path / "data_batch_3.bin", "ab") as f:
            f.write(b"\x00" * 100)
        with pytest.raises(DataFormatError, match="3073"):
            load_cifar10(tmp_path)

    def test_label_out_of_range_rejected(self, cifar_dir, tmp_path):
        link_cifar(cifar_dir, tmp_path, corrupt="test_batch.bin")
        with open(tmp_path / "test_batch.bin", "r+b") as f:
            f.write(b"\x4d")
        with pytest.raises(DataFormatError, match="labels"):
            load_cifar10(tmp_path)


class TestFeatureContainer:
    def _dataset(self, n=12):
        rng = np.random.default_rng(2)
        return Dataset(rng.random((n, 1, 32, 32)), rng.integers(0, 10, n))

    def test_roundtrip(self, tmp_path):
        ds = self._dataset()
        write_features(tmp_path / "f.fedf", ds)
        back = load_features(tmp_path / "f.fedf")
        assert back.samples.shape == ds.samples.shape
        assert np.array_equal(back.labels, ds.labels)
        # float32 storage: agreement to single precision
        assert np.allclose(back.samples, ds.samples, atol=1e-6)

    def test_bad_magic(self, tmp_path):
        ds = self._dataset()
        write_features(tmp_path / "f.fedf", ds)
        raw = bytearray((tmp_path / "f.fedf").read_bytes())
        raw[:4] = b"NOPE"
        (tmp_path / "f.fedf").write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            load_features(tmp_path / "f.fedf")

    def test_truncated_file(self, tmp_path):
        ds = self._dataset()
        write_features(tmp_path / "f.fedf", ds)
        raw = (tmp_path / "f.fedf").read_bytes()
        (tmp_path / "f.fedf").write_bytes(raw[:-3])
        with pytest.raises(DataFormatError, match="bytes"):
            load_features(tmp_path / "f.fedf")

    def test_trailing_junk_rejected(self, tmp_path):
        ds = self._dataset()
        write_features(tmp_path / "f.fedf", ds)
        with open(tmp_path / "f.fedf", "ab") as f:
            f.write(b"junk")
        with pytest.raises(DataFormatError):
            load_features(tmp_path / "f.fedf")


class TestSynthetic:
    def test_deterministic_given_rng(self):
        a = make_synthetic(np.random.default_rng(9))
        b = make_synthetic(np.random.default_rng(9))
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_shapes_and_balance(self):
        ds = make_synthetic(np.random.default_rng(0), classes=4, per_class=25,
                            input_dim=16)
        assert ds.samples.shape == (100, 16)
        assert np.array_equal(np.bincount(ds.labels), [25, 25, 25, 25])

    def test_blobs_are_linearly_separable_enough(self):
        """A fresh mlp should exceed 90% train accuracy within 200 steps."""
        from fedmatch import nn
        from fedmatch.losses import cross_entropy
        from fedmatch.nn import ModelGraph, dense, relu

        ds = make_synthetic(np.random.default_rng(3))
        graph = ModelGraph((784,), (dense(784, 100), relu(),
                                    dense(100, 100), relu(), dense(100, 10)))
        params = nn.init_params(graph, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        for _ in range(200):
            idx = rng.choice(ds.n, 64, replace=False)
            trace = nn.forward(graph, params, ds.samples[idx])
            _, grad = cross_entropy(trace.logits, ds.labels[idx])
            grads = nn.backward(graph, params, trace, grad)
            params = nn.sgd_step(params, grads, 0.1)
        trace = nn.forward(graph, params, ds.samples)
        acc = (trace.logits.argmax(1) == ds.labels).mean()
        assert acc > 0.9


class TestStratifiedHoldout:
    def test_sizes_and_disjointness(self):
        ds = make_synthetic(np.random.default_rng(0), classes=5, per_class=40,
                            input_dim=8)
        rest, hold = stratified_holdout(ds, 50, np.random.default_rng(1))
        assert hold.n == 50 and rest.n == 150
        assert np.array_equal(np.bincount(hold.labels), [10] * 5)

    def test_stratification_with_imbalance(self):
        x = np.zeros((30, 4))
        y = np.array([0] * 20 + [1] * 10)
        ds = Dataset(x, y)
        _, hold = stratified_holdout(ds, 9, np.random.default_rng(0))
        counts = np.bincount(hold.labels)
        assert counts[0] == 6 and counts[1] == 3

    def test_out_of_range_size_rejected(self):
        ds = make_synthetic(np.random.default_rng(0), classes=2, per_class=5,
                            input_dim=4)
        with pytest.raises(ValueError):
            stratified_holdout(ds, 10, np.random.default_rng(0))

    def test_subset_is_stratified(self):
        ds = make_synthetic(np.random.default_rng(0), classes=5, per_class=40,
                            input_dim=8)
        sub = stratified_subset(ds, 60, np.random.default_rng(1))
        assert np.array_equal(np.bincount(sub.labels), np.full(5, 12))


class TestPartitions:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(10, 300), k=st.integers(1, 10), seed=st.integers(0, 99))
    def test_iid_partition_is_a_disjoint_cover(self, n, k, seed):
        part = partition_iid(n, k, np.random.default_rng(seed))
        allidx = np.sort(np.concatenate(part.client_indices))
        assert np.array_equal(allidx, np.arange(n))
        sizes = part.sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_iid_more_clients_than_samples_rejected(self):
        with pytest.raises(ValueError):
            partition_iid(3, 5, np.random.default_rng(0))

    def test_class_partition_gives_each_client_one_class(self):
        y = np.repeat(np.arange(10), 13)
        np.random.default_rng(0).shuffle(y)
        part = partition_by_class(y, 10)
        for k, idx in enumerate(part.client_indices):
            assert np.all(y[idx] == k)
            assert idx.size == 13

    def test_class_partition_requires_matching_client_count(self):
        y = np.repeat(np.arange(10), 5)
        with pytest.raises(ValueError, match="0..6"):
            partition_by_class(y, 7)

    def test_class_partition_rejects_missing_class(self):
        y = np.repeat([0, 1, 3], 5)  # class 2 absent
        with pytest.raises(ValueError):
            partition_by_class(y, 4)

    def test_deterministic_iid_partition(self):
        a = partition_iid(100, 7, np.random.default_rng(42))
        b = partition_iid(100, 7, np.random.default_rng(42))
        for ia, ib in zip(a.client_indices, b.client_indices):
            assert np.array_equal(ia, ib)

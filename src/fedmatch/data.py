"""Datasets: loading, synthesis, splitting, partitioning.

Supported sources:

* MNIST in the classic IDX format (big-endian headers, ubyte payloads);
* CIFAR-10 in its binary batch format (3073-byte records: label byte then
  3x32x32 pixels);
* a small feature-container format ("FEDF") for preprocessed spectrogram
  features, little-endian: magic "FEDF", u32 version, u32 count, 3x u32
  dims, count*prod(dims) float32 features, count label bytes;
* synthetic Gaussian class blobs for fast, data-free end-to-end runs.

Pixels/features are scaled to [0, 1] where applicable and stored as
float64 so they can flow straight into the network stack.

The loaders check only that a file holds its documented format.  Whether
the data fits the model (sample shape, one label per sample, finite
samples, labels within the model's classes, every class present for the
non-iid split) is decided once, in `federation.setup_experiment`; the
`Dataset`, its subsets, splits and partitions trust it from there on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """A data file violates its documented binary layout."""


MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"

FEATURE_MAGIC = b"FEDF"
FEATURE_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """Samples plus integer labels.

    Construction checks nothing: a loader builds one from a file it has
    parsed, and set-up decides whether that data fits the model.
    """

    samples: np.ndarray  # (n, *input_shape) float64
    labels: np.ndarray  # (n,) int64

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.samples[indices], self.labels[indices])


# ---------------------------------------------------------------------------
# IDX (MNIST)


def read_idx(path: str | Path) -> np.ndarray:
    """Parse one IDX file of unsigned bytes into an ndarray."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise DataFormatError(f"{path}: truncated IDX header")
    zero1, zero2, dtype_code, ndim = struct.unpack(">BBBB", raw[:4])
    if zero1 != 0 or zero2 != 0:
        raise DataFormatError(f"{path}: bad IDX magic {raw[:4]!r}")
    if dtype_code != 0x08:
        raise DataFormatError(f"{path}: only ubyte IDX payloads supported")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise DataFormatError(f"{path}: truncated IDX dimension list")
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    expected = int(np.prod(dims))
    payload = np.frombuffer(raw, dtype=np.uint8, offset=header_end)
    if payload.size != expected:
        raise DataFormatError(
            f"{path}: payload holds {payload.size} bytes, header promises {expected}")
    return payload.reshape(dims)


def load_mnist(data_dir: str | Path) -> tuple[Dataset, Dataset]:
    """Load the four canonical MNIST files from `data_dir`.

    Images come back flattened to (n, 784) float64 in [0, 1].
    """
    d = Path(data_dir)
    arrays = {}
    for key, fname in MNIST_FILES.items():
        path = d / fname
        if not path.exists():
            raise DataFormatError(f"missing MNIST file: {path}")
        arrays[key] = read_idx(path)
    out = []
    for split, ik, lk in (("train", "train_images", "train_labels"),
                          ("test", "test_images", "test_labels")):
        images, labels = arrays[ik], arrays[lk]
        if images.ndim != 3 or images.shape[1:] != (28, 28):
            raise DataFormatError(f"MNIST {split} images have shape {images.shape}")
        x = images.reshape(images.shape[0], 784).astype(np.float64) / 255.0
        out.append(Dataset(x, labels.astype(np.int64)))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# CIFAR-10 binary


def _read_cifar_batch(path: Path) -> tuple[np.ndarray, np.ndarray]:
    if not path.exists():
        raise DataFormatError(f"missing CIFAR-10 file: {path}")
    raw = path.read_bytes()
    if len(raw) % 3073:
        raise DataFormatError(
            f"{path}: length {len(raw)} is not a multiple of 3073")
    n = len(raw) // 3073
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(n, 3073)
    labels = rec[:, 0].astype(np.int64)
    images = rec[:, 1:].reshape(n, 3, 32, 32).astype(np.float64) / 255.0
    return images, labels


def load_cifar10(data_dir: str | Path) -> tuple[Dataset, Dataset]:
    """Load CIFAR-10 binary batches (50k train across five files, 10k test)."""
    d = Path(data_dir)
    xs, ys = [], []
    for fname in CIFAR_TRAIN_FILES:
        x, y = _read_cifar_batch(d / fname)
        xs.append(x)
        ys.append(y)
    train = Dataset(np.concatenate(xs), np.concatenate(ys))
    xt, yt = _read_cifar_batch(d / CIFAR_TEST_FILE)
    test = Dataset(xt, yt)
    if train.n != 50000 or test.n != 10000:
        raise DataFormatError(
            f"unexpected CIFAR-10 sizes: train {train.n}, test {test.n}")
    return train, test


# ---------------------------------------------------------------------------
# Feature container (preprocessed spectrograms etc.)


def load_features(path: str | Path) -> Dataset:
    """Read one FEDF feature container."""
    raw = Path(path).read_bytes()
    header = struct.calcsize("<4sIIIII")
    if len(raw) < header:
        raise DataFormatError(f"{path}: truncated header")
    magic, version, count, d0, d1, d2 = struct.unpack("<4sIIIII", raw[:header])
    if magic != FEATURE_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != FEATURE_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    per = d0 * d1 * d2
    feat_bytes = 4 * count * per
    expected = header + feat_bytes + count
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: file is {len(raw)} bytes, layout requires {expected}")
    feats = np.frombuffer(raw, dtype="<f4", offset=header, count=count * per)
    labels = np.frombuffer(raw, dtype=np.uint8, offset=header + feat_bytes)
    x = feats.astype(np.float64).reshape(count, d0, d1, d2)
    return Dataset(x, labels.astype(np.int64))


def write_features(path: str | Path, dataset: Dataset) -> None:
    """Write a Dataset with (d0, d1, d2)-shaped samples as a FEDF container."""
    x = dataset.samples
    if x.ndim != 4:
        raise DataFormatError(f"feature container needs (n, d0, d1, d2), got {x.shape}")
    if dataset.labels.max(initial=0) > 255:
        raise DataFormatError("feature container labels must fit in one byte")
    n, d0, d1, d2 = x.shape
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIIIII", FEATURE_MAGIC, FEATURE_VERSION, n, d0, d1, d2))
        f.write(np.ascontiguousarray(x, dtype="<f4").tobytes())
        f.write(dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Synthetic task


def make_synthetic(rng: np.random.Generator, classes: int = 10,
                   per_class: int = 100, input_dim: int = 784,
                   spread: float = 1.0) -> Dataset:
    """Gaussian class blobs with well-separated random means.

    Class means are standard normal per coordinate, so in high dimension
    mean pairs sit ~sqrt(2 * input_dim) apart while samples scatter only
    `spread` around their mean: linearly separable by a wide margin at the
    defaults, which is what a smoke-test task should be.  Features are
    scaled down by 4 at the end so their magnitude resembles unit-range
    pixel data and the same hyper-parameter ranges behave comparably.
    """
    means = rng.normal(0.0, 1.0, (classes, input_dim))
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    noise = rng.normal(0.0, spread, (labels.size, input_dim))
    samples = 0.25 * (means[labels] + noise)
    perm = rng.permutation(labels.size)
    return Dataset(samples[perm], labels[perm])


# ---------------------------------------------------------------------------
# Splits and partitions


def stratified_holdout(dataset: Dataset, holdout_size: int,
                       rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Split off a class-stratified holdout; returns (rest, holdout).

    Per-class quotas are as even as integer arithmetic allows; remainders
    go to the largest classes first so the holdout hits the exact size.
    Callers pass 0 < holdout_size < dataset.n, so no quota exceeds its
    class's count: floor(h * c / n) <= c - 1 and the remainder adds at most 1.
    """
    n = dataset.n
    classes, counts = np.unique(dataset.labels, return_counts=True)
    quota = np.floor(holdout_size * counts / n).astype(int)
    short = holdout_size - quota.sum()
    order = np.argsort(-counts, kind="stable")
    for j in order[:short]:
        quota[j] += 1
    hold_idx = []
    for c, q in zip(classes, quota):
        idx = np.flatnonzero(dataset.labels == c)
        pick = rng.permutation(idx.size)[:q]
        hold_idx.append(idx[pick])
    hold = np.sort(np.concatenate(hold_idx))
    mask = np.ones(n, dtype=bool)
    mask[hold] = False
    rest = np.flatnonzero(mask)
    return dataset.subset(rest), dataset.subset(hold)


def partition_iid(n_samples: int, n_clients: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Client shards of a random equal split, one index array per client.

    The sorted sections of `np.array_split` over one permutation: the
    first n_samples % n_clients shards hold one extra sample.  Callers
    pass 1 <= n_clients <= n_samples.
    """
    perm = rng.permutation(n_samples)
    return tuple(np.sort(s) for s in np.array_split(perm, n_clients))


def partition_by_class(labels: np.ndarray, n_clients: int) -> tuple[np.ndarray, ...]:
    """Pathological non-iid split: client k holds exactly the indices of class k.

    Callers pass labels whose set is exactly {0, ..., n_clients - 1}.
    """
    return tuple(np.flatnonzero(labels == k) for k in range(n_clients))

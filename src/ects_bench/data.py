"""Dataset ingestion: series files and manifests, splitting, normalization,
imbalancing and the synthetic generator. Nothing here fits a model.

A series file whose path ends in '.npy' is one float64 (n, 1 + T) matrix in
numpy's .npy format, T >= 2, with finite values and each row's integer label
in column 0; `prepare` writes its dataset parts so, with np.save, whose bytes
are deterministic. Any other series file is headerless ASCII text, one series
per line: ``label,v1,...,vT`` with finite values and '\n' or '\r\n' line
endings; whitespace may surround a line but not appear inside it, and each
value is read as float() reads it. A dataset manifest is a JSON object with
no keys but {name, train_file, test_file, num_classes, length}.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from tokenize import TokenError
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import OUTSIDE_FORMAT, SeriesSet
from .errors import ConfigError, DataError, SplitError, writing_to


@dataclass(frozen=True)
class Dataset:
    name: str
    train: SeriesSet
    test: SeriesSet
    num_classes: int
    length: int

    def __post_init__(self):
        if any(c in self.name for c in ",\n\r"):
            raise DataError(f"dataset {self.name!r}: a name cannot hold ',', '\\n' or '\\r'")
        if self.num_classes < 2:
            raise DataError(f"dataset {self.name!r}: need K >= 2 classes")
        for part_name, part in (("train", self.train), ("test", self.test)):
            if part.length != self.length:
                raise DataError(
                    f"dataset {self.name!r}: {part_name} series have length {part.length}, expected {self.length}"
                )
            too_big = np.flatnonzero(part.labels >= self.num_classes)
            if too_big.size:
                i = too_big[0]
                raise DataError(f"dataset {self.name!r}: series {part.ids[i]!r} label {part.labels[i]} >= K")
        missing = sorted(set(range(self.num_classes)) - set(self.train.labels.tolist()))
        if missing:
            raise DataError(f"dataset {self.name!r}: classes {missing} absent from train")


@dataclass(frozen=True)
class SplitSpec:
    """Fractions of the three-way protocol split: 40% of train for the
    classifiers, 30% of that part for calibration; the rest trains the
    trigger."""

    classifier_fraction: float = 0.4
    calibration_fraction_of_classifier_part: float = 0.3

    def __post_init__(self):
        for f in (self.classifier_fraction, self.calibration_fraction_of_classifier_part):
            if not 0.0 < f < 1.0:
                raise ConfigError(f"split fraction {f} must be in (0, 1)")


def _parse_series_file(path: str) -> Tuple[List[int], np.ndarray]:
    """The raw labels and the (n, T) value matrix of a series file: a .npy
    matrix if the path ends in '.npy', text otherwise. A bad file is a
    DataError naming its path, and a bad text line its path:line."""
    if path.endswith(".npy"):
        return _read_series_matrix(path)
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
    except OSError as exc:
        raise DataError(f"cannot read series file {path}: {exc.strerror or exc}") from None
    parsed = _parse_series_bulk(lines)
    return parsed if parsed is not None else _parse_series_lines(path, lines)


def _read_series_matrix(path: str) -> Tuple[List[int], np.ndarray]:
    """The raw labels and value matrix of a .npy series file. The header's
    shape is checked against the file's size before any data is read, so a
    header that declares more data than the file holds allocates nothing."""
    fmt = np.lib.format
    try:
        with open(path, "rb") as fh:
            try:
                version = fmt.read_magic(fh)  # a zip, pickle or text body fails here
                read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
                with warnings.catch_warnings():  # numpy reads a Python 2 header ('shape': (2L, 3L)) with a warning
                    warnings.simplefilter("ignore", UserWarning)
                    shape, fortran_order, dtype = read_header(fh)
            # numpy's header parser, ast.literal_eval on at most 10,000 bytes of
            # text, lets each of these through for some malformed header.
            except (ValueError, TypeError, MemoryError, RecursionError, TokenError) as exc:
                raise DataError(f"{path}: not a .npy file ({str(exc) or type(exc).__name__})") from None
            if dtype != np.float64 or len(shape) != 2 or shape[1] < 3:
                raise DataError(f"{path}: expected a float64 (n, 1 + T) matrix with T >= 2, "
                                f"found {dtype.str} values of shape {shape}")
            data_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
            if shape[0] * shape[1] * 8 != data_bytes:
                raise DataError(f"{path}: header declares shape {shape}, but the file holds "
                                f"{data_bytes} data bytes")
            matrix = np.fromfile(fh, np.float64).reshape(shape, order="F" if fortran_order else "C")
    except OSError as exc:
        raise DataError(f"cannot read series file {path}: {exc.strerror or exc}") from None
    if not len(matrix):
        raise DataError(f"{path}: no series")
    for bad, what in ((~np.isfinite(matrix).all(axis=1), "a non-finite value"),
                      (matrix[:, 0] != np.floor(matrix[:, 0]), "a label that is not an integer")):
        if bad.any():
            raise DataError(f"{path}: row {int(np.argmax(bad))} holds {what}")
    return list(map(int, matrix[:, 0].tolist())), matrix[:, 1:]


def _parse_series_bulk(lines: List[bytes]) -> Optional[Tuple[List[int], np.ndarray]]:
    """What _parse_series_lines returns for the same lines, with every value
    field converted in one call; None wherever that routine might raise.
    np.loadtxt reads each field with the parser float() uses; a field the
    byte check lets through reads the same in both."""
    labels: List[int] = []
    bodies: List[str] = []
    for line in map(bytes.strip, lines):
        if not line:
            continue
        if line.count(b",") < 2 or len(line.translate(None, OUTSIDE_FORMAT)) != len(line):
            return None
        comma = line.find(b",")
        try:
            labels.append(int(line[:comma]))
        except ValueError:
            return None
        bodies.append(line[comma + 1:].decode("ascii"))
    if not bodies:
        return None
    try:
        values = np.loadtxt(bodies, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a bad field or a ragged row
        return None
    if len(values) != len(bodies) or not np.isfinite(values).all():
        return None
    return labels, values


def _parse_series_lines(path: str, lines: List[bytes]) -> Tuple[List[int], np.ndarray]:
    """The reference parser, one line at a time: the raw labels and value
    matrix of a file's lines, or a DataError naming the first bad line."""
    labels: List[int] = []
    rows: List[np.ndarray] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if len(line.translate(None, OUTSIDE_FORMAT)) != len(line):
            raise DataError(f"{path}:{lineno}: non-ASCII byte, '_' or whitespace inside the line")
        fields = line.decode("ascii").split(",")
        if len(fields) < 3:
            raise DataError(f"{path}:{lineno}: expected 'label,v1,...,vT' with T >= 2")
        try:
            label = int(fields[0])
            values = np.array(list(map(float, fields[1:])))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric field ({exc})") from None
        if not np.isfinite(values).all():
            raise DataError(f"{path}:{lineno}: non-finite value")
        if rows and len(values) != len(rows[0]):
            raise DataError(
                f"{path}:{lineno}: ragged row with {len(values)} values, expected {len(rows[0])}"
            )
        labels.append(label)
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no series")
    return labels, np.stack(rows)


def load_dataset(train_path: str, test_path: str, name: str = "") -> Dataset:
    """Load a dataset from a pair of series files.

    Raw labels are remapped to 0..K-1 preserving their sort order; a test
    label never seen in train is an error.
    """
    train_labels, train_values = _parse_series_file(train_path)
    test_labels, test_values = _parse_series_file(test_path)
    raw_labels = sorted(set(train_labels))
    remap = {raw: i for i, raw in enumerate(raw_labels)}
    for label in test_labels:
        if label not in remap:
            raise DataError(f"{test_path}: test label {label} unseen in train")

    def part(prefix: str, labels: List[int], values: np.ndarray) -> SeriesSet:
        ids = tuple(f"{prefix}-{i}" for i in range(len(labels)))
        return SeriesSet(ids, values, list(map(remap.__getitem__, labels)))

    if not name:
        name = os.path.splitext(os.path.basename(train_path))[0]
    return Dataset(name, part("train", train_labels, train_values), part("test", test_labels, test_values),
                   len(raw_labels), train_values.shape[1])


def save_dataset(dataset: Dataset, out_dir: str) -> Dict[str, object]:
    """Write train.npy and test.npy plus a manifest that names them relative
    to its own directory; returns the manifest object. An output directory
    that cannot be made or written is a ConfigError naming it."""
    manifest = {
        "name": dataset.name,
        "train_file": "train.npy",
        "test_file": "test.npy",
        "num_classes": dataset.num_classes,
        "length": dataset.length,
    }
    with writing_to("dataset", out_dir):
        os.makedirs(out_dir, exist_ok=True)
        for part, series in (("train", dataset.train), ("test", dataset.test)):
            np.save(os.path.join(out_dir, manifest[f"{part}_file"]),
                    np.hstack([series.labels[:, None], series.values]))
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return manifest


def load_manifest(path: str) -> Dataset:
    """Load the dataset a manifest file names; relative series paths are
    taken from the manifest's directory."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from None
    return dataset_from_manifest(manifest, f"manifest {path}", os.path.dirname(os.path.abspath(path)))


def dataset_from_manifest(manifest: object, where: str, base: str = "") -> Dataset:
    """Load the dataset a manifest object names, with relative series paths
    joined to base. A malformed manifest, or one whose K or T disagrees with
    its files, is a DataError that starts with where."""
    if not isinstance(manifest, dict):
        raise DataError(f"{where}: root must be a JSON object")
    for key, value in manifest.items():
        kind = {"name": str, "train_file": str, "test_file": str, "num_classes": int, "length": int}.get(key)
        if kind is None:
            raise DataError(f"{where}: unknown key {key!r}")
        if type(value) is not kind:  # a boolean is not an integer
            raise DataError(f"{where}: {key} must be {'a string' if kind is str else 'an integer'}")
    missing = [key for key in ("train_file", "test_file") if key not in manifest]
    if missing:
        raise DataError(f"{where}: missing {' and '.join(missing)}")
    ds = load_dataset(
        os.path.join(base, manifest["train_file"]), os.path.join(base, manifest["test_file"]),
        manifest.get("name", ""),
    )
    for key, symbol, value in (("num_classes", "K", ds.num_classes), ("length", "T", ds.length)):
        if manifest.get(key, value) != value:
            raise DataError(f"{where}: says {symbol}={manifest[key]}, files have {symbol}={value}")
    return ds


def stratified_split(series: SeriesSet, fraction: float, seed: int) -> Tuple[SeriesSet, SeriesSet]:
    """Split per class: part_a gets round(fraction * count), at least 1 and at
    most count - 1. Classes are taken in label order, and each part keeps its
    members' order within a class. Deterministic given the seed."""
    classes, counts = np.unique(series.labels, return_counts=True)
    rng = np.random.default_rng(seed)
    part_a: List[np.ndarray] = []
    part_b: List[np.ndarray] = []
    for label, n in zip(classes.tolist(), counts.tolist()):
        if n < 2:
            raise SplitError(f"class {label} has a single member; cannot split")
        members = np.flatnonzero(series.labels == label)
        take = min(max(int(round(fraction * n)), 1), n - 1)
        order = rng.permutation(n)
        part_a.append(members[np.sort(order[:take])])
        part_b.append(members[np.sort(order[take:])])
    return series.take(np.concatenate(part_a)), series.take(np.concatenate(part_b))


def znormalize(values: Sequence[float]) -> np.ndarray:
    """Full-series z-normalization with the population std.

    Exactly-constant input (max == min) maps to zeros; any other finite input
    comes out with mean 0 and population std 1, however small or large its
    spread. Raises ValueError for fewer than 2 values.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least 2 values")
    lo, hi = arr.min(), arr.max()
    if lo == hi:
        return np.zeros_like(arr)
    # An exact power-of-two scale into [-1, 1] keeps the range from overflowing;
    # mapping onto [0, 1] first keeps a tiny spread from underflowing in the std
    # and a rounded mean from landing on one of a few nearly equal values.
    exponent = np.frexp(max(abs(lo), abs(hi)))[1]
    scaled = np.ldexp(arr, -exponent)
    low = scaled.min()
    unit = (scaled - low) / (scaled.max() - low)
    centred = unit - unit.mean()
    return centred / centred.std()


def znormalize_dataset(dataset: Dataset) -> Dataset:
    def norm(part: SeriesSet) -> SeriesSet:
        values = np.empty_like(part.values)
        for i, row in enumerate(part.values):
            values[i] = znormalize(row)
        return SeriesSet(part.ids, values, part.labels)
    return Dataset(dataset.name, norm(dataset.train), norm(dataset.test),
                   dataset.num_classes, dataset.length)


def _subsample_minority(
    series: SeriesSet, minority_class: int, minority_fraction: float, rng: np.random.Generator,
) -> SeriesSet:
    minority = np.flatnonzero(series.labels == minority_class)
    majority = np.flatnonzero(series.labels != minority_class)
    n_maj = len(majority)
    n_min = len(minority)
    if n_min / (n_min + n_maj) <= minority_fraction:
        raise DataError(
            f"minority class {minority_class} already at or below fraction {minority_fraction}"
        )
    # Pick the kept count minimizing the distance to the target share.
    best_m = min(
        range(1, n_min + 1), key=lambda m: (abs(m / (n_maj + m) - minority_fraction), m)
    )
    kept = np.concatenate([majority, minority[np.sort(rng.permutation(n_min)[:best_m])]])
    return series.take(sorted(kept.tolist(), key=series.ids.__getitem__))  # stable: by id, then kept order


def make_imbalanced(
    dataset: Dataset, minority_class: int, minority_fraction: float, seed: int
) -> Dataset:
    """Subsample the minority class of a binary dataset toward the target share.

    Train and test parts are subsampled independently; majority members are
    never touched."""
    if dataset.num_classes != 2:
        raise DataError("make_imbalanced requires a binary dataset")
    if not 0.0 < minority_fraction < 1.0:
        raise DataError("minority_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train = _subsample_minority(dataset.train, minority_class, minority_fraction, rng)
    test = _subsample_minority(dataset.test, minority_class, minority_fraction, rng)
    return Dataset(dataset.name, train, test, 2, dataset.length)


def generate_synthetic(
    length: int,
    per_class_train: int,
    per_class_test: int,
    noise_std: float,
    seed: int,
    name: str = "synthetic",
) -> Dataset:
    """Three-class generator: class c carries a +1 mean level on its own third
    of the timeline, zero elsewhere, plus Gaussian noise."""
    if per_class_train < 1 or per_class_test < 1:
        raise DataError("per-class counts must be >= 1")
    if noise_std < 0:
        raise DataError("noise_std must be >= 0")
    classes = 3
    rng = np.random.default_rng(seed)
    templates = np.zeros((classes, length))
    for c in range(classes):
        lo = c * length // 3
        hi = (c + 1) * length // 3
        templates[c, lo:hi] = 1.0

    def make(part: str, per_class: int) -> SeriesSet:
        values = [
            templates[c] + (rng.normal(0.0, noise_std, size=(per_class, length)) if noise_std > 0
                            else np.zeros((per_class, length)))
            for c in range(classes)
        ]
        ids = tuple(f"{part}-c{c}-{i}" for c in range(classes) for i in range(per_class))
        return SeriesSet(ids, np.concatenate(values), np.repeat(np.arange(classes), per_class))

    train = make("train", per_class_train)
    test = make("test", per_class_test)
    return Dataset(name, train, test, classes, length)

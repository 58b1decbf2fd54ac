import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ects_bench.classify import _macro_ovr_auc, information_gain_screen
from ects_bench.core import SeriesSet
from ects_bench.data import (
    Dataset,
    SplitSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    make_imbalanced,
    save_dataset,
    stratified_split,
    znormalize,
    znormalize_dataset,
    _parse_series_file,
    _parse_series_lines,
)
from ects_bench.errors import ConfigError, DataError, SplitError


def _write(tmp_path, name, text):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


class TestLoadDataset:
    def test_minimal_two_class(self, tmp_path):
        train = _write(tmp_path, "train.csv", "1,0.0,0.5\n0,1.0,1.5\n")
        test = _write(tmp_path, "test.csv", "0,2.0,2.5\n1,0.1,0.2\n")
        ds = load_dataset(train, test)
        assert ds.num_classes == 2
        assert ds.length == 2
        # raw labels remapped preserving sort order: 0 -> 0, 1 -> 1
        assert ds.train.labels.tolist() == [1, 0]

    def test_label_remap_preserves_order(self, tmp_path):
        train = _write(tmp_path, "train.csv", "7,0.0,0.5\n3,1.0,1.5\n")
        test = _write(tmp_path, "test.csv", "3,2.0,2.5\n")
        ds = load_dataset(train, test)
        assert ds.train.labels.tolist() == [1, 0]  # raw 7 sorts after raw 3

    def test_ragged_row_names_line(self, tmp_path):
        train = _write(tmp_path, "train.csv", "0,1.0,2.0\n1,1.0,2.0,3.0\n")
        test = _write(tmp_path, "test.csv", "0,1.0,2.0\n")
        with pytest.raises(DataError, match="ragged"):
            load_dataset(train, test)

    def test_non_numeric_field(self, tmp_path):
        train = _write(tmp_path, "train.csv", "0,1.0,abc\n")
        test = _write(tmp_path, "test.csv", "0,1.0,2.0\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_dataset(train, test)

    def test_surrounding_whitespace_and_crlf_accepted(self, tmp_path):
        train = _write(tmp_path, "train.csv", " 0,1.0,2.0\t\r\n1,3.0,4.0\r\n\r\n")
        test = _write(tmp_path, "test.csv", "1,-1e3,+2.5 \n")
        ds = load_dataset(train, test)
        assert ds.train.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.test.values.tolist() == [[-1000.0, 2.5]]

    def test_test_length_differs_from_train(self, tmp_path):
        train = _write(tmp_path, "tr.csv", "0,1.0,2.0\n1,3.0,4.0\n")
        test = _write(tmp_path, "te.csv", "0,1.0,2.0,3.0\n")
        with pytest.raises(DataError, match=r"^dataset 'tr': test series have length 3, expected 2$"):
            load_dataset(train, test)

    def test_empty_file(self, tmp_path):
        train = _write(tmp_path, "train.csv", "")
        test = _write(tmp_path, "test.csv", "0,1.0,2.0\n")
        with pytest.raises(DataError, match="no series"):
            load_dataset(train, test)

    def test_unseen_test_label(self, tmp_path):
        train = _write(tmp_path, "train.csv", "0,1.0,2.0\n1,3.0,4.0\n")
        test = _write(tmp_path, "test.csv", "2,1.0,2.0\n")
        with pytest.raises(DataError, match="unseen"):
            load_dataset(train, test)

    def test_round_trip_byte_identical(self, tmp_path):
        ds = generate_synthetic(6, 3, 2, 0.5, seed=7)
        out1 = os.path.join(tmp_path, "d1")
        save_dataset(ds, out1)
        ds2 = load_manifest(os.path.join(out1, "manifest.json"))
        out2 = os.path.join(tmp_path, "d2")
        save_dataset(ds2, out2)
        for fname in ("train.npy", "test.npy"):
            with open(os.path.join(out1, fname), "rb") as fh:
                a = fh.read()
            with open(os.path.join(out2, fname), "rb") as fh:
                b = fh.read()
            assert a == b

    def test_saved_values_load_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(6, 4)) * np.array([1.0, 1e-300, 1e300, 1.0])
        values[0, :3] = (-0.0, 5e-324, 0.1)
        values[1, 0] = -5e-324
        ds = Dataset("bits", SeriesSet(tuple(f"s{i}" for i in range(6)), values, [0, 1] * 3),
                     SeriesSet(("t",), values[-1:], [1]), 2, 4)
        save_dataset(ds, str(tmp_path))
        back = load_manifest(os.path.join(tmp_path, "manifest.json"))
        assert back.train.values.tobytes() == values.tobytes()
        assert back.test.values.tobytes() == values[-1:].tobytes()

    def test_npy_matrix_in_either_order_loads_like_its_text(self, tmp_path):
        text = "7,0.1,-2.5,3.0\n3,1.0,2.0,-0.0\n7,5e-324,1e300,4.0\n"
        matrix = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
        paths = [_write(tmp_path, "s.csv", text)]
        for order in "CF":
            paths.append(os.path.join(tmp_path, f"s{order}.npy"))
            np.save(paths[-1], np.asarray(matrix, order=order))
        loaded = [load_dataset(path, path, "s") for path in paths]
        for ds in loaded[1:]:
            assert ds.train.labels.tolist() == loaded[0].train.labels.tolist() == [1, 0, 1]
            assert ds.train.values.tobytes() == loaded[0].train.values.tobytes()


@pytest.mark.parametrize("header", [
    "{[1]: 2}",  # ast.literal_eval raises TypeError
    "(" * 500,  # numpy's header filter raises tokenize.TokenError
    "-" * 9000 + "1",  # the parser's stack overflows
    "{'descr': 5, 'fortran_order': False, 'shape': (2, 3), }",
    "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), 'extra': 1}",
], ids=["unhashable_key", "unclosed_parentheses", "deep_unary_minus", "bad_descr", "extra_key"])
def test_malformed_npy_header_is_a_data_error(tmp_path, header):
    text = (header + "\n").encode("ascii")
    path = os.path.join(tmp_path, "bad.npy")
    with open(path, "wb") as fh:
        fh.write(b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + bytes(48))
    with pytest.raises(DataError) as info:
        load_dataset(path, path)
    assert str(info.value).startswith(f"{path}: not a .npy file")


# Series file bytes: digits, number syntax, the separator, words float()
# reads, bytes the format excludes, blank lines and CRLF endings.
_LINE_TOKENS = [str(d).encode() for d in range(10)] + [
    b".", b"e", b"E", b"+", b"-", b",", b"inf", b"nan", b"_", b" ", b"\t", b"\r", b"#", b"\xe9"]


@st.composite
def _series_file_bytes(draw):
    width = draw(st.integers(1, 4))
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(lambda v: repr(v).encode()),
                       st.integers(-999, 999).map(lambda v: str(v).encode()),
                       st.sampled_from([b"1e3", b".5", b"5.", b"+2", b"-0"]))
    soup = st.lists(st.sampled_from(_LINE_TOKENS), max_size=8).map(b"".join)
    field = st.one_of(number, soup.filter(lambda f: b"," not in f))
    label = st.integers(0, 3).map(lambda v: str(v).encode())
    row = st.builds(lambda label, fields: b",".join([label] + fields), label,
                    st.lists(number, min_size=width, max_size=width))
    odd_row = st.builds(lambda label, fields: b",".join([label] + fields), st.one_of(label, field),
                        st.lists(field, min_size=width, max_size=width + 1))
    lines = draw(st.one_of(st.lists(st.one_of(row, st.just(b"")), max_size=6),
                           st.lists(st.one_of(row, odd_row, soup, st.just(b"")), max_size=6)))
    return b"".join(line + draw(st.sampled_from([b"\n", b"\r\n"])) for line in lines)


class TestSeriesFileText:
    @given(_series_file_bytes())
    @settings(max_examples=200, deadline=None)
    @example(b"0,1.0,2.0\n1,nan,2.0\n")
    @example(b"0,1.0,2.0\n\n1,1.0,2.0,3.0\n")
    @example(b"0,1.0,x\n0,1.0,2.0,3.0\n")
    @example(b"0,1.0,2.0\n1,\n")
    @example(b"0,5\n1,6\n")
    def test_parser_matches_the_line_reference(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            with open(path, "wb") as fh:
                fh.write(content)
            outcomes = []
            for parse in (_parse_series_file, lambda p: _parse_series_lines(p, content.split(b"\n"))):
                try:
                    labels, values = parse(path)
                    outcomes.append((labels, values.shape, values.tobytes()))
                except DataError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


def _split_reference(ids, labels, fraction, seed):
    """The split as one list per class: classes in label order, members in
    input order, part_a gets the sorted first `take` of a permutation."""
    by_class = {}
    for i, label in zip(ids, labels):
        by_class.setdefault(label, []).append(i)
    if any(len(members) < 2 for members in by_class.values()):
        raise SplitError("single member")
    rng = np.random.default_rng(seed)
    part_a, part_b = [], []
    for label in sorted(by_class):
        members = by_class[label]
        n = len(members)
        take = min(max(int(round(fraction * n)), 1), n - 1)
        order = rng.permutation(n)
        part_a.extend(members[i] for i in sorted(order[:take]))
        part_b.extend(members[i] for i in sorted(order[take:]))
    return part_a, part_b


class TestStratifiedSplit:
    def _series(self, counts):
        ids = [f"c{label}-{i}" for label, n in counts.items() for i in range(n)]
        values = [(float(i), float(i + 1)) for n in counts.values() for i in range(n)]
        labels = [label for label, n in counts.items() for _ in range(n)]
        return SeriesSet(tuple(ids), values, labels)

    def test_five_per_class_fraction_04(self):
        series = self._series({0: 5, 1: 5})
        a, b = stratified_split(series, 0.4, seed=1)
        assert len(a) == 4 and len(b) == 6
        assert int(np.sum(a.labels == 0)) == 2
        assert int(np.sum(a.labels == 1)) == 2

    def test_min_one_per_class(self):
        series = self._series({0: 3, 1: 3})
        a, b = stratified_split(series, 0.4, seed=1)
        assert int(np.sum(a.labels == 0)) == 1
        assert int(np.sum(a.labels == 1)) == 1

    def test_deterministic(self):
        series = self._series({0: 8, 1: 8})
        a1, b1 = stratified_split(series, 0.5, seed=42)
        a2, b2 = stratified_split(series, 0.5, seed=42)
        assert a1.ids == a2.ids
        assert b1.ids == b2.ids

    def test_partition_is_exact(self):
        series = self._series({0: 7, 1: 5, 2: 9})
        a, b = stratified_split(series, 0.3, seed=3)
        ids_a = set(a.ids)
        ids_b = set(b.ids)
        assert ids_a.isdisjoint(ids_b)
        assert ids_a | ids_b == set(series.ids)
        for label, n in ((0, 7), (1, 5), (2, 9)):
            na = int(np.sum(a.labels == label))
            nb = int(np.sum(b.labels == label))
            assert na + nb == n

    @settings(max_examples=80, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 3), min_size=1, max_size=40)
        | st.lists(st.sampled_from([0, 5]), min_size=1, max_size=40),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(labels=[0, 1, 0], fraction=0.5, seed=0)
    @example(labels=[2, 2, 2, 2, 0, 0], fraction=0.5, seed=1)
    def test_matches_per_class_list_reference(self, labels, fraction, seed):
        ids = tuple(f"s{i}" for i in range(len(labels)))
        series = SeriesSet(ids, np.arange(2.0 * len(labels)).reshape(-1, 2), labels)
        try:
            want = _split_reference(ids, labels, fraction, seed)
        except SplitError:
            with pytest.raises(SplitError, match="single member"):
                stratified_split(series, fraction, seed)
            return
        a, b = stratified_split(series, fraction, seed)
        assert (list(a.ids), list(b.ids)) == want
        for part in (a, b):
            rows = [ids.index(i) for i in part.ids]
            assert part.labels.tolist() == [labels[r] for r in rows]
            assert part.values.tolist() == series.values[rows].tolist()

    def test_singleton_class_error(self):
        series = self._series({0: 4, 1: 1})
        with pytest.raises(SplitError, match="class 1"):
            stratified_split(series, 0.5, seed=0)


class TestZnormalize:
    def test_simple(self):
        out = znormalize([0.0, 1.0, 2.0])
        np.testing.assert_allclose(out, [-1.22474487, 0.0, 1.22474487], atol=1e-6)

    def test_constant_to_zeros(self):
        np.testing.assert_array_equal(znormalize([5.0, 5.0, 5.0]), [0.0, 0.0, 0.0])

    def test_idempotent(self):
        x = [3.0, -1.0, 4.0, 1.0, 5.0]
        once = znormalize(x)
        twice = znormalize(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    # Regressions: a spread whose squared deviations underflow, a std far below
    # 1e-12, and two adjacent floats whose rounded mean equals one of them.
    @example([0.0, 1.1142790554381046e-301])
    @example([0.0, 6.534424990398895e-82])
    @example([1e6, float(np.nextafter(1e6, 2e6))])
    def test_mean_zero_std_one(self, values):
        out = znormalize(values)
        if np.ptp(values) == 0.0:
            assert np.all(out == 0.0)
        else:
            assert abs(out.mean()) < 1e-9
            assert abs(out.std() - 1.0) < 1e-9

    def test_dataset_variant(self):
        ds = generate_synthetic(6, 2, 2, 0.2, seed=0)
        normed = znormalize_dataset(ds)
        for arr in normed.train.values:
            assert abs(arr.mean()) < 1e-9 or np.all(arr == 0.0)


class TestMakeImbalanced:
    def _balanced_binary(self, per_class):
        def part(prefix):
            ids = tuple(f"{prefix}-{c}-{i}" for c in range(2) for i in range(per_class))
            values = [(float(i), 0.0) for c in range(2) for i in range(per_class)]
            return SeriesSet(ids, values, [c for c in range(2) for _ in range(per_class)])
        return Dataset("bin", part("train"), part("test"), 2, 2)

    def test_target_fraction_approx(self):
        ds = self._balanced_binary(50)
        out = make_imbalanced(ds, 1, 0.2, seed=0)
        assert int(np.sum(out.train.labels == 0)) == 50
        # 13/(50+13) = 0.206 is the closest achievable share to 0.2
        assert int(np.sum(out.train.labels == 1)) == 13
        assert list(out.train.ids) == sorted(out.train.ids)

    def test_not_over_target_error(self):
        ds = self._balanced_binary(10)
        with pytest.raises(DataError, match="already at or below"):
            make_imbalanced(ds, 1, 0.5, seed=0)

    def test_deterministic(self):
        ds = self._balanced_binary(20)
        a = make_imbalanced(ds, 0, 0.25, seed=9)
        b = make_imbalanced(ds, 0, 0.25, seed=9)
        assert a.train.ids == b.train.ids
        assert a.test.ids == b.test.ids

    def test_majority_untouched(self):
        ds = self._balanced_binary(30)
        out = make_imbalanced(ds, 1, 0.2, seed=2)
        majority_before = {i for i, label in zip(ds.train.ids, ds.train.labels) if label == 0}
        majority_after = {i for i, label in zip(out.train.ids, out.train.labels) if label == 0}
        assert majority_before == majority_after

    def test_requires_binary(self):
        ds = generate_synthetic(6, 3, 2, 0.1, seed=0)
        with pytest.raises(DataError, match="binary"):
            make_imbalanced(ds, 0, 0.2, seed=0)


class TestGenerateSynthetic:
    def test_noiseless_template(self):
        ds = generate_synthetic(15, 1, 1, 0.0, seed=0)
        class0 = ds.train.values[ds.train.labels == 0][0]
        assert class0[:5].tolist() == [1.0] * 5
        assert class0[5:].tolist() == [0.0] * 10

    def test_noiseless_nearest_neighbor_is_perfect(self):
        ds = generate_synthetic(9, 2, 3, 0.0, seed=1)
        train, train_labels = ds.train.values, ds.train.labels
        for values, label in zip(ds.test.values, ds.test.labels):
            d = np.abs(train - values).sum(axis=1)
            assert train_labels[int(np.argmin(d))] == label

    def test_deterministic(self):
        a = generate_synthetic(12, 4, 4, 0.3, seed=5)
        b = generate_synthetic(12, 4, 4, 0.3, seed=5)
        assert np.array_equal(a.train.values, b.train.values)
        assert np.array_equal(a.test.values, b.test.values)

    def test_templates_pairwise_distinct(self):
        ds = generate_synthetic(9, 1, 1, 0.0, seed=0)
        templates = {int(label): values.tolist() for label, values in zip(ds.train.labels, ds.train.values)}
        assert templates[0] != templates[1]
        assert templates[1] != templates[2]
        assert templates[0] != templates[2]


class TestInformationGainScreen:
    def test_auc_helper_perfect_ranking(self):
        proba = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        labels = np.array([0, 0, 1, 1])
        assert _macro_ovr_auc(proba, labels, 2) == pytest.approx(1.0)

    def test_synthetic_accepted(self):
        ds = generate_synthetic(20, 20, 5, 0.0, seed=3)
        gain_half, gain_full, accepted = information_gain_screen(ds, seed=0)
        assert accepted
        assert gain_half > 0.0 and gain_full > 0.0

    def test_shuffled_labels_rejected(self):
        ds = generate_synthetic(20, 20, 5, 0.3, seed=3)
        rng = np.random.default_rng(0)
        labels = rng.permutation(ds.train.labels)
        # keep every class present; relabel train arbitrarily
        shuffled = SeriesSet(ds.train.ids, ds.train.values, labels)
        shuffled_ds = Dataset(ds.name, shuffled, ds.test, ds.num_classes, ds.length)
        gain_half, gain_full, accepted = information_gain_screen(shuffled_ds, seed=0)
        assert abs(gain_half) < 0.05
        assert abs(gain_full) < 0.05


def test_split_spec_validates_fractions():
    with pytest.raises(ConfigError):
        SplitSpec(classifier_fraction=0.0)
    with pytest.raises(ConfigError):
        SplitSpec(calibration_fraction_of_classifier_part=1.0)


def test_dataset_validation_errors():
    no_test = SeriesSet((), np.empty((0, 2)), ())
    with pytest.raises(DataError, match="absent"):
        Dataset("d", SeriesSet(("a", "c"), [(1.0, 2.0), (0.0, 0.0)], [0, 0]), no_test, 2, 2)
    with pytest.raises(DataError, match="length"):
        Dataset("d", SeriesSet(("a", "b"), [(1.0, 2.0), (1.0, 2.0)], [0, 1]), no_test, 2, 3)
    with pytest.raises(DataError, match="'b' label 2 >= K"):
        Dataset("d", SeriesSet(("a", "b"), [(1.0, 2.0), (1.0, 2.0)], [0, 2]), no_test, 2, 2)

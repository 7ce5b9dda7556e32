"""Synthetic generator and CSV/binary round-trip tests."""

import mmap
import os
import struct
import tracemalloc

import numpy as np
import pytest

from ferhead.datasets import (
    EXPRESSION_CLASSES,
    FeatureDataset,
    SynthSpec,
    default_action_dirs,
    generate,
    load_bin,
    load_csv,
    make_synth_spec,
    map_bin,
    save_bin,
    save_csv,
    table_header,
)
from ferhead.errors import ContractViolation, DataFormatError
from ferhead.numerics import SplitMix64


def small_spec(**overrides):
    base = dict(
        n_classes=3,
        n_actions=4,
        feature_dim=12,
        noise_sigma=0.02,
        samples_per_class=5,
        seed=0,
    )
    base.update(overrides)
    return make_synth_spec(**base)


class TestGenerate:
    def test_row_count_and_nonnegativity(self):
        data = generate(small_spec())
        assert len(data) == 15
        assert np.all(data.features >= 0)
        np.testing.assert_array_equal(np.bincount(data.labels), [5, 5, 5])

    def test_deterministic(self):
        a = generate(small_spec())
        b = generate(small_spec())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_noise_free_jitter_free_samples_identical_per_class(self):
        spec = small_spec(noise_sigma=0.0)
        spec.jitter = 0.0
        data = generate(spec)
        for k in range(3):
            rows = data.features[data.labels == k]
            for row in rows:
                np.testing.assert_array_equal(row, rows[0])

    def test_same_structure_different_seed_same_population(self):
        a = make_synth_spec(seed=0, structure_seed=5, feature_dim=16, n_actions=4)
        b = make_synth_spec(seed=9, structure_seed=5, feature_dim=16, n_actions=4)
        assert np.array_equal(a.action_dirs, b.action_dirs)
        assert np.array_equal(a.class_profiles, b.class_profiles)
        assert not np.array_equal(generate(a).features, generate(b).features)

    def test_nearest_profile_classifier_perfect_on_clean_data(self):
        """Orthonormal dirs + disjoint profiles + no noise => exact recovery."""
        rng = SplitMix64(1)
        dirs = default_action_dirs(3, 9, rng)  # disjoint blocks, orthonormal
        profiles = np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        spec = SynthSpec(
            action_dirs=dirs,
            class_profiles=profiles,
            noise_sigma=0.0,
            samples_per_class=20,
            seed=3,
        )
        data = generate(spec)
        # brute-force oracle: project each sample onto every action direction
        # and pick the class whose profile best matches (least squares)
        correct = 0
        for x, label in zip(data.features, data.labels):
            coords = dirs @ x
            errors = [np.linalg.norm(coords / max(coords.max(), 1e-12) - p / p.max()) for p in profiles]
            correct += int(np.argmin(errors) == label)
        assert correct == len(data)

    def test_identical_profiles_rejected(self):
        spec = small_spec()
        spec.class_profiles[1] = spec.class_profiles[0]
        with pytest.raises(ContractViolation, match="identical"):
            generate(spec)

    def test_non_unit_dirs_rejected(self):
        spec = small_spec()
        spec.action_dirs = spec.action_dirs * 2.0
        with pytest.raises(ContractViolation, match="unit"):
            generate(spec)

    @pytest.mark.parametrize("name", ["noise_sigma", "jitter"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_spread_not_finite_and_nonnegative_rejected(self, name, value):
        spec = small_spec()
        setattr(spec, name, value)
        with pytest.raises(ContractViolation, match=f"{name} must be finite and >= 0"):
            generate(spec)

    def test_rows_not_finite_in_float32_rejected(self):
        spec = small_spec()
        spec.noise_sigma = 1e200
        message = r"noise_sigma=1e\+200: row \d+: f_\d+=inf is not finite"
        with pytest.raises(ContractViolation, match=message):
            generate(spec)

    @pytest.mark.parametrize("n_actions", [0, -1, 21])
    def test_action_count_outside_one_to_feature_dim_rejected(self, n_actions):
        message = rf"n_actions must lie in \[1, feature_dim=20\], got {n_actions}"
        with pytest.raises(ContractViolation, match=message):
            default_action_dirs(n_actions, 20, SplitMix64(2))

    def test_action_dirs_orthonormal(self):
        dirs = default_action_dirs(5, 20, SplitMix64(2))
        gram = dirs @ dirs.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        data = generate(small_spec())
        path = tmp_path / "data.csv"
        save_csv(str(path), data)
        loaded = load_csv(str(path), data.n_classes)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_every_float32_round_trips_at_nine_digits(self, tmp_path):
        values = np.random.default_rng(0).integers(0, 2**32, 4000, dtype=np.uint32).view(np.float32)
        extremes = [np.finfo(np.float32).max, np.finfo(np.float32).smallest_subnormal, -0.0]
        values = np.concatenate([values[np.isfinite(values)], np.float32(extremes)])
        data = FeatureDataset(values.reshape(-1, 1), np.zeros(len(values), dtype=int), 1)
        path = tmp_path / "bits.csv"
        save_csv(str(path), data)
        cells = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
        # at most 9 significant digits, and some values need all 9
        assert max(len(c.lstrip("-").split("e")[0].replace(".", "").strip("0")) for c in cells) == 9
        loaded = load_csv(str(path), 1)
        assert loaded.features.view(np.uint32).tobytes() == data.features.view(np.uint32).tobytes()

    def test_header_shape(self, tmp_path):
        data = generate(small_spec())
        path = tmp_path / "data.csv"
        save_csv(str(path), data)
        header = path.read_text().splitlines()[0]
        assert header.split(",")[0] == "label"
        assert header.split(",")[1] == "f_1"
        assert header.split(",")[-1] == f"f_{data.feature_dim}"

    def test_wrong_arity_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f_1,f_2\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_csv(str(path), 2)

    def test_out_of_range_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f_1\n9,1.0\n")
        with pytest.raises(DataFormatError, match="label 9"):
            load_csv(str(path), 7)

    def test_out_of_range_label_after_blank_lines_names_its_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("label,f_1,f_2\n\n0,1.0,2.0\n\n9,1.0,2.0\n")
        with pytest.raises(DataFormatError, match=r"blank\.csv:5: label 9 out of range"):
            load_csv(str(path), 3)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f_1\n0,1.0\n0,oops\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_csv(str(path), 1)


class TestBinaryRoundTrip:
    def test_f32_roundtrip(self, tmp_path):
        data = generate(small_spec())
        path = tmp_path / "data.bin"
        save_bin(str(path), data)
        loaded = load_bin(str(path))
        np.testing.assert_array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_exact_byte_layout(self, tmp_path):
        data = FeatureDataset(np.array([[1.5, -2.5]]), np.array([3]), 7)
        path = tmp_path / "tiny.bin"
        save_bin(str(path), data)
        blob = path.read_bytes()
        # magic + version + N + P + K + 2 f32 features + 1 u32 label
        assert len(blob) == 4 + 4 + 4 + 4 + 4 + 2 * 4 + 4 == 32
        assert blob[:4] == b"FDRL"

    def test_truncation_is_format_error(self, tmp_path):
        data = generate(small_spec())
        path = tmp_path / "data.bin"
        save_bin(str(path), data)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataFormatError, match="expected"):
            load_bin(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WHAT" + b"\x00" * 28)
        with pytest.raises(DataFormatError, match="magic"):
            load_bin(str(path))

    def test_bad_version(self, tmp_path):
        import struct

        path = tmp_path / "v9.bin"
        path.write_bytes(b"FDRL" + struct.pack("<4I", 9, 0, 0, 0))
        with pytest.raises(DataFormatError, match="version"):
            load_bin(str(path))


class TestBinaryLoad:
    @pytest.mark.parametrize("suffix", ["csv", "bin"])
    def test_table_of_no_rows_is_refused_naming_the_file(self, tmp_path, suffix):
        """Both loaders refuse an empty table with one message."""
        path = tmp_path / f"empty.{suffix}"
        empty = FeatureDataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 3)
        (save_csv if suffix == "csv" else save_bin)(str(path), empty)
        with pytest.raises(DataFormatError, match=f"^{path}: no data rows$"):
            load_csv(str(path), 3) if suffix == "csv" else load_bin(str(path))

    def test_rows_are_the_stored_float32_values(self, tmp_path):
        data = generate(small_spec())
        path = tmp_path / "data.bin"
        save_bin(str(path), data)
        loaded = load_bin(str(path))
        n, p = data.features.shape
        stored = np.frombuffer(path.read_bytes(), dtype="<f4", count=n * p, offset=20)
        assert loaded.features.dtype == np.float32
        assert loaded.features.shape == (n, p)
        assert loaded.features.flags.c_contiguous
        assert loaded.features.astype("<f4").tobytes() == stored.tobytes()

    def test_loading_peaks_at_the_returned_arrays(self, tmp_path):
        """No whole-file bytes object and no widened copy: peak <= 1.1x the result."""
        rng = np.random.default_rng(0)
        data = FeatureDataset(
            rng.random((7000, 512), dtype=np.float32),
            rng.integers(0, 7, 7000),
            7,
        )
        path = tmp_path / "large.bin"
        save_bin(str(path), data)
        tracemalloc.start()
        try:
            loaded = load_bin(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = loaded.features.nbytes + loaded.labels.nbytes
        assert peak <= 1.1 * returned, f"peak {peak} bytes for {returned} returned"

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda blob: blob[:-5], "expected 800 bytes for N=15 P=12, found 795"),
            (lambda blob: blob + b"\0", "expected 800 bytes for N=15 P=12, found 801"),
            (lambda blob: b"WHAT" + blob[4:], "bad magic b'WHAT'"),
            (lambda blob: blob[:10], "truncated header"),
            (lambda blob: blob[:4] + struct.pack("<I", 9) + blob[8:], "unsupported version 9"),
        ],
        ids=["truncated", "overlong", "bad-magic", "short-header", "bad-version"],
    )
    def test_damaged_file_messages(self, tmp_path, damage, message):
        path = tmp_path / "data.bin"
        save_bin(str(path), generate(small_spec()))  # 15 rows of 12 features
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataFormatError) as err:
            load_bin(str(path))
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_row_and_column(self, tmp_path, value):
        data = generate(small_spec())  # 15 rows of 12 features
        data.features[5, 2] = value
        path = tmp_path / "data.bin"
        save_bin(str(path), data)
        with pytest.raises(DataFormatError) as err:
            load_bin(str(path))
        assert str(err.value) == f"{path}: row 6: f_3={np.float32(value)} is not finite"

    def test_finite_features_whose_squares_overflow_load(self, tmp_path):
        """The sum of squares overflows, so the entry-wise scan decides."""
        data = generate(small_spec())
        data.features[:, 0] = np.finfo(np.float32).max
        path = tmp_path / "data.bin"
        save_bin(str(path), data)
        with np.errstate(all="raise"):
            loaded = load_bin(str(path))
        np.testing.assert_array_equal(loaded.features, data.features)


def resident_file_kb() -> int:
    """This process's resident file-backed memory (RssFile), in kB."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("RssFile:"))


class TestMapBin:
    def test_rows_and_labels_equal_load_bin_s_as_a_read_only_view(self, tmp_path):
        data = generate(small_spec())
        path = tmp_path / "data.bin"
        save_bin(str(path), data)
        mapped, read = map_bin(str(path)), load_bin(str(path))
        assert mapped.features.dtype == np.float32 and mapped.features.shape == (15, 12)
        np.testing.assert_array_equal(mapped.features, read.features)
        np.testing.assert_array_equal(mapped.labels, read.labels)
        assert mapped.labels.dtype == np.int64 and mapped.n_classes == read.n_classes
        assert isinstance(mapped.features.base, mmap.mmap)
        assert not mapped.features.flags.writeable
        assert mapped.mapped_from == str(path) and read.mapped_from == ""

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob[:-5],
            lambda blob: blob + b"\0",
            lambda blob: b"WHAT" + blob[4:],
            lambda blob: blob[:10],
            lambda blob: blob[:4] + struct.pack("<I", 9) + blob[8:],
            lambda blob: blob[:-4] + struct.pack("<I", 3),
        ],
        ids=["truncated", "overlong", "bad-magic", "short-header", "bad-version", "label"],
    )
    def test_a_damaged_file_fails_with_load_bin_s_message(self, tmp_path, damage):
        path = tmp_path / "data.bin"
        save_bin(str(path), generate(small_spec()))
        path.write_bytes(damage(path.read_bytes()))
        messages = []
        for load in (load_bin, map_bin):
            with pytest.raises(DataFormatError) as err:
                load(str(path))
            messages.append(str(err.value))
        assert messages[0] == messages[1] and messages[0].startswith(f"{path}: ")

    def test_a_table_of_no_rows_is_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_bin(str(path), FeatureDataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 3))
        with pytest.raises(DataFormatError, match=f"^{path}: no data rows$"):
            map_bin(str(path))

    def test_mapping_reads_no_row_and_a_block_check_names_file_row_and_column(self, tmp_path):
        data = generate(small_spec())
        data.features[11, 4] = np.inf
        path = tmp_path / "data.bin"
        save_bin(str(path), data)
        mapped = map_bin(str(path))  # load_bin would refuse the table here
        mapped.raise_if_not_finite(0, 10)
        with pytest.raises(DataFormatError) as err:
            mapped.raise_if_not_finite(10, 15)
        assert str(err.value) == f"{path}: row 12: f_5=inf is not finite"

    @pytest.mark.parametrize("rows", [4, 15, 20])
    def test_blocks_hand_out_every_row_once_in_order(self, tmp_path, rows):
        data = generate(small_spec())
        path = tmp_path / "data.bin"
        save_bin(str(path), data)
        for table in (data, map_bin(str(path))):
            starts, parts = zip(*table.blocks(rows))
            assert list(starts) == list(range(0, 15, rows))
            np.testing.assert_array_equal(np.concatenate(parts), data.features)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads RssFile")
    def test_a_pass_over_the_blocks_keeps_about_one_block_resident(self, tmp_path):
        """Each block's pages are released behind it: a pass over a 16 MB table
        never has half of it mapped in (a fault maps a whole page-cache folio,
        up to 2 MiB on kernels with large folios, so a 0.5 MB block peaked at
        about 4 MB), leaves under 1 MB of it mapped in, and a later read of
        those rows gets the same bytes."""
        rng = np.random.default_rng(0)
        data = FeatureDataset(rng.random((8000, 512), dtype=np.float32), np.zeros(8000), 7)
        path = tmp_path / "large.bin"
        save_bin(str(path), data)
        mapped = map_bin(str(path))
        before = resident_file_kb()
        grew = 0
        for _, block in mapped.blocks(256):
            float(block.sum())  # faults the block's pages in
            grew = max(grew, resident_file_kb() - before)
        assert 256 * 512 * 4 // 1024 <= grew < 8 << 10
        assert resident_file_kb() - before < 1024
        np.testing.assert_array_equal(mapped.features, data.features)


class TestTableHeader:
    def test_both_formats_give_p_and_the_stored_k(self, tmp_path):
        data = generate(small_spec())  # 3 classes, 12 features
        save_bin(str(tmp_path / "d.bin"), data)
        save_csv(str(tmp_path / "d.csv"), data)
        assert table_header(str(tmp_path / "d.bin")) == (12, 3)
        assert table_header(str(tmp_path / "d.csv")) == (12, None)

    def test_damaged_headers_fail_as_the_loaders_do(self, tmp_path):
        data = generate(small_spec())
        binary, text = tmp_path / "d.bin", tmp_path / "d.csv"
        save_bin(str(binary), data)
        binary.write_bytes(binary.read_bytes()[:-5])
        text.write_text("f_1,f_2\n1,2\n")
        for path, load in ((binary, load_bin), (text, lambda path: load_csv(path, 3))):
            with pytest.raises(DataFormatError) as from_header:
                table_header(str(path))
            with pytest.raises(DataFormatError) as from_load:
                load(str(path))
            assert str(from_header.value) == str(from_load.value)


class TestFeatureDatasetDtype:
    def test_float32_kept_anything_else_narrowed_to_float32(self):
        labels = np.zeros(2, dtype=int)
        as32 = np.ones((2, 3), dtype=np.float32)
        assert FeatureDataset(as32, labels, 1).features is as32
        for given in (np.ones((2, 3)), np.ones((2, 3), dtype=np.float16),
                      np.ones((2, 3), dtype=int), [[1.0] * 3] * 2):
            assert FeatureDataset(given, labels, 1).features.dtype == np.float32
        # beyond float32's range narrows to inf without a warning; forward rejects it
        assert np.isinf(FeatureDataset(np.full((2, 3), 1e39), labels, 1).features).all()

    def test_generate_and_both_loaders_give_float32(self, tmp_path):
        data = generate(small_spec())
        save_csv(str(tmp_path / "d.csv"), data)
        save_bin(str(tmp_path / "d.bin"), data)
        for got in (data, load_csv(str(tmp_path / "d.csv"), 3), load_bin(str(tmp_path / "d.bin"))):
            assert got.features.dtype == np.float32
            np.testing.assert_array_equal(got.features, data.features)

    def test_class_names_follow_the_class_count(self):
        features, labels = np.zeros((1, 2)), np.zeros(1, dtype=int)
        assert FeatureDataset(features, labels, 7).class_names == EXPRESSION_CLASSES
        assert FeatureDataset(features, labels, 2).class_names == ("class_0", "class_1")


class TestFeatureDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            FeatureDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 1)

    def test_label_range(self):
        with pytest.raises(ContractViolation):
            FeatureDataset(np.zeros((2, 2)), np.array([0, 5]), 2)

import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oavl.scores import sample_record
from oavl.seeding import make_rng
from oavl.synth import (
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    PgmError,
    SynthConfig,
    SynthConfigError,
    generate_dataset,
    ground_truth_region,
    read_manifest,
    read_pgm,
    render_image,
    split_counts,
    write_manifest,
    write_pgm,
)

from conftest import NOT_UTF8, make_record, malformed_manifests, spliced, truncated

CLEAN = SynthConfig(noise_sigma=0.0, max_shift=0)
BG = np.float32(0.05)


def medial_gap_rows(image, col=10):
    """Rows of background between the bands in one column of the medial half."""
    column = image[:, col]
    inside = np.arange(26, 50)
    return [r for r in inside if column[r] == BG]


class TestRenderGeometry:
    def test_gap_is_twelve_rows_at_grade_zero(self):
        image = render_image(make_record(), CLEAN, seed=0)
        assert medial_gap_rows(image) == list(range(26, 38))

    @pytest.mark.parametrize("grade,expected", [(1, 10), (2, 8), (3, 6), (4, 4)])
    def test_jsn_narrows_gap(self, grade, expected):
        record = make_record(jsn={"jm": grade})
        image = render_image(record, CLEAN, seed=0)
        assert len(medial_gap_rows(image)) == expected

    def test_gap_monotone_in_jsn(self):
        gaps = []
        for grade in range(5):
            image = render_image(make_record(jsn={"jm": grade}), CLEAN, seed=0)
            gaps.append(len(medial_gap_rows(image)))
        assert gaps == sorted(gaps, reverse=True)
        assert len(set(gaps)) == 5

    def test_deterministic_bitwise(self):
        record = sample_record(make_rng(3), "d")
        cfg = SynthConfig(noise_sigma=0.03, max_shift=2)
        a = render_image(record, cfg, seed=11)
        b = render_image(record, cfg, seed=11)
        assert a.dtype == np.float32
        assert np.array_equal(a, b)

    def test_side_mirroring(self):
        rng = make_rng(6)
        for _ in range(10):
            record = sample_record(rng)
            record.side = "left"
            left = render_image(record, CLEAN, seed=5)
            twin = record.copy()
            twin.side = "right"
            right = render_image(twin, CLEAN, seed=5)
            assert np.array_equal(right, left[:, ::-1])

    def test_pixels_in_unit_interval(self):
        rng = make_rng(8)
        cfg = SynthConfig(noise_sigma=0.1, max_shift=2)
        for i in range(10):
            image = render_image(sample_record(rng), cfg, seed=i)
            assert image.min() >= 0.0 and image.max() <= 1.0

    def test_sclerosis_brightens_strip(self):
        base = render_image(make_record(), CLEAN, seed=0)
        bright = render_image(make_record(sclerosis={"fm": 3}), CLEAN, seed=0)
        strip = (slice(22, 26), slice(0, 32))
        assert np.allclose(bright[strip], base[strip] + np.float32(0.36), atol=1e-6)

    def test_config_validation(self):
        with pytest.raises(SynthConfigError):
            SynthConfig(height=16).validate()
        with pytest.raises(SynthConfigError):
            SynthConfig(noise_sigma=-1).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("max_shift", 1.5), ("noise_sigma", True), ("height", 64.0), ("width", "64")],
    )
    def test_config_field_of_the_wrong_type(self, field, value):
        # a bool is no number, and only an int also passes as a float
        with pytest.raises(SynthConfigError, match=f"^{field} must be"):
            SynthConfig(**{field: value}).validate()

    @pytest.mark.parametrize("sigma", [float("inf"), float("-inf"), float("nan")])
    def test_noise_sigma_must_be_finite(self, sigma):
        with pytest.raises(SynthConfigError, match="noise_sigma must be finite"):
            SynthConfig(noise_sigma=sigma).validate()

    @pytest.mark.parametrize("height, width, limit", [(64, 64, 14), (32, 32, 7), (200, 32, 15)])
    def test_max_shift_is_bounded_by_the_knee_layout(self, height, width, limit):
        cfg = SynthConfig(height=height, width=width, max_shift=limit)
        for seed in range(100):  # these seeds draw both extreme shifts on each axis
            assert render_image(make_record(), cfg, seed=seed).shape == (height, width)
        with pytest.raises(SynthConfigError, match=f"at most {limit}$"):
            SynthConfig(height=height, width=width, max_shift=limit + 1).validate()


class TestGroundTruth:
    def test_osteophyte_spur_footprint(self):
        record = make_record(osteophytes={"fm": 3})
        region = ground_truth_region(record, ("osteophytes", "fm"), SynthConfig(max_shift=2))
        rows, cols = np.nonzero(region.mask)
        # 6x3 spur at the medial femur gap corner, dilated by 2 px and
        # clipped at the image edge: rows 21..27, cols 0..7
        assert rows.min() == 21 and rows.max() == 27
        assert cols.min() == 0 and cols.max() == 7
        assert region.mask.sum() == (3 + 4) * (6 + 2)

    def test_jsn_region_covers_raised_rows(self):
        record = make_record(jsn={"jl": 2})
        region = ground_truth_region(record, ("jsn", "jl"), SynthConfig(max_shift=0))
        rows, cols = np.nonzero(region.mask)
        assert rows.min() == 34 and rows.max() == 37
        assert cols.min() == 32 and cols.max() == 63

    def test_region_mirrors_for_right_knee(self):
        left = make_record(osteophytes={"fm": 2})
        right = make_record(side="right", osteophytes={"fm": 2})
        cfg = SynthConfig(max_shift=0)
        mask_left = ground_truth_region(left, ("osteophytes", "fm"), cfg).mask
        mask_right = ground_truth_region(right, ("osteophytes", "fm"), cfg).mask
        assert np.array_equal(mask_right, mask_left[:, ::-1])

    def test_absent_feature_rejected(self):
        with pytest.raises(ValueError, match="feature absent"):
            ground_truth_region(make_record(), ("osteophytes", "fm"), CLEAN)

    def test_every_present_feature_has_mass(self):
        rng = make_rng(12)
        cfg = SynthConfig(max_shift=2)
        for _ in range(10):
            record = sample_record(rng)
            for name in ("osteophytes", "sclerosis", "jsn", "attrition", "cysts",
                         "chondrocalcinosis"):
                for comp, value in getattr(record, name).items():
                    if value:
                        region = ground_truth_region(record, (name, comp), cfg)
                        assert region.mask.any()

    def test_mask_matches_rendered_change(self):
        # the renderer must only touch pixels inside the (undilated) mask
        record = make_record(cysts={"tm": True})
        base = render_image(make_record(), CLEAN, seed=0)
        stamped = render_image(record, CLEAN, seed=0)
        region = ground_truth_region(record, ("cysts", "tm"), CLEAN)
        changed = base != stamped
        assert changed.any()
        assert not (changed & ~region.mask).any()


class TestPgm:
    def test_round_trip(self, tmp_path):
        image = render_image(sample_record(make_rng(2), "p"), SynthConfig(), seed=4)
        path = tmp_path / "img.pgm"
        write_pgm(str(path), image)
        again = read_pgm(str(path))
        assert again.shape == image.shape
        assert np.abs(again - image).max() <= 0.5 / 65535

    def test_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(str(path), np.zeros((4, 6), dtype=np.float32))
        header = path.read_bytes()[:20]
        assert header.startswith(b"P5\n6 4\n65535\n")

    @pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, sample):
        image = np.zeros((4, 4), dtype=np.float32)
        image[2, 1] = sample
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="bad.pgm: image holds a non-finite sample"):
            write_pgm(str(path), image)
        assert not path.exists()

    def test_short_payload_names_the_file(self, tmp_path):
        path = tmp_path / "short.pgm"
        write_pgm(str(path), np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-27])  # keep 5 of the 32 payload bytes
        with pytest.raises(ValueError, match="short.pgm: payload holds 5 bytes, header says 32"):
            read_pgm(str(path))


class TestManifest:
    def _manifest(self, n=20):
        rng = make_rng(5)
        entries = [
            ManifestEntry(
                record=sample_record(rng, f"m{i:03d}"),
                image_path=f"images/m{i:03d}.pgm",
                split="train" if i % 3 else "test",
            )
            for i in range(n)
        ]
        return DatasetManifest(entries=entries)

    def test_failed_write_keeps_previous_manifest(self, tmp_path, monkeypatch):
        path = str(tmp_path / "manifest.jsonl")
        write_manifest(self._manifest(5), path)
        before = open(path, "rb").read()

        class DiskFull(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr("oavl.synth.open", DiskFull, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_manifest(self._manifest(20), path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["manifest.jsonl"]

    def test_round_trip(self, tmp_path):
        manifest = self._manifest(100)
        path = str(tmp_path / "manifest.jsonl")
        write_manifest(manifest, path)
        again = read_manifest(path)
        assert [e.record for e in again.entries] == [e.record for e in manifest.entries]
        assert [e.split for e in again.entries] == [e.split for e in manifest.entries]
        assert [e.image_path for e in again.entries] == [e.image_path for e in manifest.entries]

    def test_bad_grade_names_line_and_field(self, tmp_path):
        manifest = self._manifest(3)
        path = str(tmp_path / "m.jsonl")
        write_manifest(manifest, path)
        lines = open(path).read().splitlines()
        obj = json.loads(lines[1])
        obj["kl"] = 7
        lines[1] = json.dumps(obj)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="line 2") as exc:
            read_manifest(path)
        assert "kl" in str(exc.value)

    def test_duplicate_id_rejected(self, tmp_path):
        manifest = self._manifest(2)
        manifest.entries[1].record.id = manifest.entries[0].record.id
        path = str(tmp_path / "m.jsonl")
        write_manifest(manifest, path)
        with pytest.raises(ManifestError, match="duplicate id"):
            read_manifest(path)

    def test_empty_file_is_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_manifest(str(path)).entries == []

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ManifestError, match="line 1"):
            read_manifest(str(path))


# --- hostile inputs: every malformed file ends in the reader's typed error ----


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_pgm(fuzz_dir):
    path = fuzz_dir / "valid.pgm"
    write_pgm(str(path), np.linspace(0.0, 1.0, 6).reshape(2, 3))
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_manifest(fuzz_dir):
    rng = make_rng(6)
    entries = [
        ManifestEntry(sample_record(rng, f"f{i}"), f"images/f{i}.pgm", split)
        for i, split in enumerate(("train", "val", "test"))
    ]
    path = fuzz_dir / "valid.jsonl"
    write_manifest(DatasetManifest(entries=entries), str(path))
    return path.read_bytes()


@st.composite
def edited_pgms(draw, blob: bytes):
    """A valid PGM after 1-3 drawn edits: a header line or the payload
    replaced, the size line rewritten, bytes spliced in, or the file cut."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("line", "size", "splice", "cut")))
        lines = blob.split(b"\n", 3)  # magic, size, maxval, payload
        if kind == "line":
            lines[draw(st.integers(0, len(lines) - 1))] = draw(st.binary(max_size=12))
            blob = b"\n".join(lines)
        elif kind == "size" and len(lines) > 1:
            dims = draw(st.lists(st.integers(0, 2**70), max_size=3))
            lines[1] = b" ".join(str(d).encode("ascii") for d in dims)
            blob = b"\n".join(lines)
        elif kind == "splice":
            blob = draw(spliced(blob, st.one_of(NOT_UTF8, st.binary(min_size=1, max_size=4))))
        elif kind == "cut" and blob:
            blob = draw(truncated(blob))
    return blob


class TestHostileInputs:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_edited_pgm_reads_or_raises_pgm_error(self, fuzz_dir, valid_pgm, data):
        path = fuzz_dir / "edited.pgm"
        path.write_bytes(data.draw(edited_pgms(valid_pgm)))
        try:
            image = read_pgm(str(path))
        except PgmError:
            return
        assert image.dtype == np.float32 and image.ndim == 2 and image.size
        assert 0.0 <= image.min() and image.max() <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncated_pgm_raises_pgm_error(self, fuzz_dir, valid_pgm, data):
        path = fuzz_dir / "truncated.pgm"
        path.write_bytes(data.draw(truncated(valid_pgm)))
        with pytest.raises(PgmError, match="truncated.pgm"):
            read_pgm(str(path))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_malformed_manifest_raises_manifest_error(self, fuzz_dir, valid_manifest, data):
        path = fuzz_dir / "malformed.jsonl"
        path.write_bytes(data.draw(malformed_manifests(valid_manifest)))
        with pytest.raises(ManifestError):
            read_manifest(str(path))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_edited_manifest_reads_or_raises_manifest_error(self, fuzz_dir, valid_manifest, data):
        blob = valid_manifest
        lines = blob.split(b"\n")
        kind = data.draw(st.sampled_from(("line", "splice", "cut")))
        if kind == "line":
            row = data.draw(st.integers(0, len(lines) - 1))
            lines[row] = data.draw(st.text(max_size=40)).encode("utf-8")
            blob = b"\n".join(lines)
        elif kind == "splice":
            blob = data.draw(spliced(blob, st.binary(min_size=1, max_size=6)))
        else:
            blob = data.draw(truncated(blob))
        path = fuzz_dir / "edited.jsonl"
        path.write_bytes(blob)
        try:
            manifest = read_manifest(str(path))
        except ManifestError:
            return
        assert len({e.record.id for e in manifest.entries}) == len(manifest.entries)

    @pytest.mark.parametrize(
        "line",
        ["[" * 100_000, '{"a": ' * 100_000, "1" * 5000, '{"age": ' + "7" * 5000 + "}"],
        ids=["deep-array", "deep-object", "long-int", "long-int-field"],
    )
    def test_json_past_the_parser_limits_is_manifest_error(self, tmp_path, line):
        # json.loads raises RecursionError for deep nesting and a plain
        # ValueError for an int of more than 4300 digits, neither a JSONDecodeError
        path = tmp_path / "limits.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ManifestError, match="line 1"):
            read_manifest(str(path))


class TestGenerateDataset:
    def test_split_counts_mirror_ratios(self):
        assert split_counts(100, (0.81, 0.09, 0.10)) == (81, 9, 10)
        assert split_counts(2472, (0.81, 0.09, 0.10)) == (2002, 222, 248)

    def test_split_counts_reject_a_nan_ratio(self):
        with pytest.raises(ValueError, match=r"ratios must be finite, .* got \(nan, 0\.5, 0\.5\)"):
            split_counts(100, (np.nan, 0.5, 0.5))

    def test_generate_small_dataset(self, tmp_path):
        cfg = SynthConfig(seed=9)
        manifest = generate_dataset(60, cfg, str(tmp_path / "d"), (0.81, 0.09, 0.10))
        assert len(manifest.entries) == 60
        assert len(manifest.split("train")) == 48
        assert len(manifest.split("val")) == 5
        assert len(manifest.split("test")) == 7
        ids = [e.record.id for e in manifest.entries]
        assert len(set(ids)) == 60
        for entry in manifest.entries[:5]:
            image = read_pgm(manifest.resolve_image(entry))
            assert image.shape == (64, 64)

    def test_fixed_seed_reproduces_manifest(self, tmp_path):
        cfg = SynthConfig(seed=13)
        generate_dataset(12, cfg, str(tmp_path / "a"))
        generate_dataset(12, cfg, str(tmp_path / "b"))
        a = (tmp_path / "a" / "manifest.jsonl").read_bytes()
        b = (tmp_path / "b" / "manifest.jsonl").read_bytes()
        assert a == b
        img_a = (tmp_path / "a" / "images" / "rec-00000.pgm").read_bytes()
        img_b = (tmp_path / "b" / "images" / "rec-00000.pgm").read_bytes()
        assert img_a == img_b

    @pytest.mark.parametrize("cfg", [{"noise_sigma": float("inf")}, {"max_shift": 100}])
    def test_rejected_config_writes_nothing(self, cfg, tmp_path):
        # the config refuses the fields when built, before anything is written
        with pytest.raises(SynthConfigError):
            generate_dataset(12, SynthConfig(**cfg), str(tmp_path / "x"))
        assert not (tmp_path / "x").exists()

    def test_too_small_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least 10"):
            generate_dataset(5, SynthConfig(), str(tmp_path / "x"))

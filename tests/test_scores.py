import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oavl.scores import (
    GRADE_WORDS,
    OaScoreRecord,
    ScoreValidationError,
    grade_word,
    perturb_negative,
    sample_record,
    severity_signature,
    validate_record,
)
from oavl.seeding import make_rng

from conftest import make_record


class TestValidation:
    def test_minimal_valid_record_accepted(self):
        record = make_record(age=60, side="left", alignment="neutral")
        assert validate_record(record) is record

    def test_grade_out_of_range_rejected(self):
        record = make_record()
        record.osteophytes["fm"] = 5
        with pytest.raises(ScoreValidationError, match="grade out of range") as exc:
            validate_record(record)
        assert exc.value.field == "osteophytes[fm]"

    def test_missing_compartment_rejected(self):
        record = make_record()
        del record.jsn["jl"]
        with pytest.raises(ScoreValidationError, match="missing key") as exc:
            validate_record(record)
        assert exc.value.field == "jsn[jl]"

    def test_bool_is_not_a_grade(self):
        record = make_record()
        record.kl = True
        with pytest.raises(ScoreValidationError):
            validate_record(record)

    def test_flag_must_be_boolean(self):
        record = make_record()
        record.cysts["tm"] = 1
        with pytest.raises(ScoreValidationError, match="boolean"):
            validate_record(record)

    def test_unknown_compartment_rejected(self):
        record = make_record()
        record.jsn["xx"] = 1
        with pytest.raises(ScoreValidationError, match="unknown compartment"):
            validate_record(record)

    @pytest.mark.parametrize("record_id", ["a\x00", "\x00", "r\n1", "r\x1f", "r\x7f", "r\x85"])
    def test_id_with_control_character_rejected(self, record_id):
        record = make_record()
        record.id = record_id
        with pytest.raises(ScoreValidationError, match="control character") as exc:
            validate_record(record)
        assert exc.value.field == "id"

    @pytest.mark.parametrize("record_id", ["knee/7", "../../escaped", "..\\x", "\\"])
    def test_id_with_path_separator_rejected(self, record_id):
        # ids name image and saliency files, so one must not reach outside their directory
        record = make_record()
        record.id = record_id
        with pytest.raises(ScoreValidationError, match="path separator") as exc:
            validate_record(record)
        assert exc.value.field == "id"

    @pytest.mark.parametrize("record_id", ["rec 1", "rec-é", "\u00a0r"])
    def test_printable_id_accepted(self, record_id):
        record = make_record()
        record.id = record_id
        assert validate_record(record) is record

    def test_json_round_trip(self):
        record = sample_record(make_rng(5), "j1")
        again = OaScoreRecord.from_json_dict(record.to_json_dict())
        assert again == record

    def test_json_unknown_key_rejected(self):
        obj = make_record().to_json_dict()
        obj["bogus"] = 1
        with pytest.raises(ScoreValidationError, match="unknown key"):
            OaScoreRecord.from_json_dict(obj)

    def test_json_map_that_is_not_a_map_rejected(self):
        obj = make_record().to_json_dict()
        obj["osteophytes"] = 5
        with pytest.raises(ScoreValidationError, match="compartment map") as exc:
            OaScoreRecord.from_json_dict(obj)
        assert exc.value.field == "osteophytes"

    def test_json_first_missing_key_in_field_order(self):
        obj = make_record().to_json_dict()
        del obj["chondrocalcinosis"], obj["kl"], obj["sex"]
        with pytest.raises(ScoreValidationError, match="missing key") as exc:
            OaScoreRecord.from_json_dict(obj)
        assert exc.value.field == "sex"

    def test_json_unknown_key_reported_before_a_missing_one(self):
        # the order configs.check_json_keys gives every JSON reader
        obj = make_record().to_json_dict()
        del obj["sex"]
        obj["bogus"] = 1
        with pytest.raises(ScoreValidationError, match="^bogus: unknown key$") as exc:
            OaScoreRecord.from_json_dict(obj)
        assert exc.value.field == "bogus"

    def test_json_record_does_not_alias_its_source(self):
        obj = make_record().to_json_dict()
        record = OaScoreRecord.from_json_dict(obj)
        obj["jsn"]["jm"] = 4
        assert record.jsn["jm"] == 0
        assert record.to_json_dict()["jsn"] is not record.jsn


class TestGradeWord:
    @pytest.mark.parametrize("grade,word", [(0, "no"), (2, "mild"), (4, "severe")])
    def test_word_map(self, grade, word):
        assert grade_word(grade) == word

    def test_bijection(self):
        words = [grade_word(g) for g in range(5)]
        assert words == list(GRADE_WORDS)
        assert len(set(words)) == 5

    def test_out_of_range(self):
        with pytest.raises(ScoreValidationError):
            grade_word(5)


class TestSignature:
    def test_id_age_sex_excluded(self):
        a = make_record(record_id="a", age=50, sex="male")
        b = make_record(record_id="b", age=70, sex="female")
        assert severity_signature(a) == severity_signature(b)

    def test_kl_included(self):
        assert severity_signature(make_record(kl=1)) != severity_signature(make_record(kl=2))

    def test_deterministic_bytes(self):
        record = sample_record(make_rng(9), "s")
        first = severity_signature(record)
        second = severity_signature(record)
        assert first == second
        assert repr(first) == repr(second)

    @given(st.integers(0, 4), st.integers(0, 4), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_signature_iff_grades_and_flags(self, kl, osteo_fm, cyst_tm):
        base = make_record(kl=kl, osteophytes={"fm": osteo_fm})
        base.cysts["tm"] = cyst_tm
        twin = base.copy()
        twin.id, twin.age, twin.sex = "other", 99, "female"
        assert severity_signature(base) == severity_signature(twin)
        changed = base.copy()
        changed.chondrocalcinosis["jl"] = not changed.chondrocalcinosis["jl"]
        assert severity_signature(base) != severity_signature(changed)


class TestSampleRecord:
    def test_deterministic(self):
        a = sample_record(make_rng(42), "x")
        b = sample_record(make_rng(42), "x")
        assert a == b

    def test_validates(self):
        for seed in range(50):
            validate_record(sample_record(make_rng(seed), f"s{seed}"))

    def test_kl0_features_clamped(self):
        found = 0
        for seed in range(200):
            record = sample_record(make_rng(seed), "c")
            if record.kl == 0:
                found += 1
                values = list(record.osteophytes.values()) + list(record.sclerosis.values())
                values += list(record.jsn.values()) + list(record.attrition.values())
                assert set(values) <= {0, 1}
        assert found > 10

    def test_age_range(self):
        ages = {sample_record(make_rng(s), "a").age for s in range(300)}
        assert min(ages) >= 45 and max(ages) <= 79

    def test_feature_mean_tracks_kl(self):
        # Monte-Carlo oracle over the stated sampling law: the per-feature
        # clamp(kl + delta) construction keeps feature means tied to kl.
        rng = make_rng(123, "mc")
        kl_sum = 0.0
        osteo_sum = 0.0
        n = 10_000
        for _ in range(n):
            record = sample_record(rng)
            kl_sum += record.kl
            osteo_sum += np.mean(list(record.osteophytes.values()))
        assert abs(osteo_sum / n - kl_sum / n) <= 0.1


class TestPerturbNegative:
    @pytest.mark.parametrize(
        "grade,allowed",
        [(0, {2, 3, 4}), (1, {3, 4}), (2, {0, 4}), (3, {0, 1}), (4, {0, 1, 2})],
    )
    def test_allowed_sets(self, grade, allowed):
        record = make_record(kl=grade, fill=grade)
        rng = make_rng(7, "sets", grade)
        seen = set()
        for _ in range(200):
            seen.add(perturb_negative(record, rng).kl)
        assert seen == allowed

    def test_two_level_rule_over_10000_trials(self):
        rng = make_rng(11, "rule")
        for trial in range(10_000):
            record = sample_record(rng)
            negative = perturb_negative(record, rng)
            assert abs(negative.kl - record.kl) >= 2
            for name in ("osteophytes", "sclerosis", "jsn", "attrition"):
                for comp, value in getattr(record, name).items():
                    assert abs(getattr(negative, name)[comp] - value) >= 2

    def test_id_and_demographics(self):
        record = sample_record(make_rng(3), "base")
        negative = perturb_negative(record, make_rng(4))
        assert negative.id == "base-neg"
        assert (negative.age, negative.sex, negative.side, negative.alignment) == (
            record.age,
            record.sex,
            record.side,
            record.alignment,
        )

    def test_flags_flip_half_the_time(self):
        record = make_record()
        rng = make_rng(8, "flags")
        flips = sum(perturb_negative(record, rng).cysts["fm"] for _ in range(2000))
        assert 850 < flips < 1150

    def test_negative_validates(self):
        rng = make_rng(21)
        for _ in range(100):
            validate_record(perturb_negative(sample_record(rng), rng))

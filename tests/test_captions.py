import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oavl.captions import (
    CaptionParseError,
    TEMPLATE_ORDER,
    TemplateKind,
    build_vocabulary,
    parse_caption,
    render_caption,
    shuffle_sentences,
    split_text,
    tokenize,
)
from oavl.scores import perturb_negative, sample_record
from oavl.seeding import make_rng

from conftest import make_record


@pytest.fixture(scope="module")
def vocab():
    return build_vocabulary()


def assert_full_recovery(parsed, record):
    assert parsed.kl == record.kl
    for name in ("osteophytes", "sclerosis", "jsn", "attrition"):
        assert getattr(parsed, name) == getattr(record, name), name
    assert parsed.cysts == record.cysts
    assert parsed.chondrocalcinosis == record.chondrocalcinosis


def assert_overall_recovery(parsed, record):
    assert parsed.kl == record.kl
    assert parsed.side == record.side
    assert parsed.max_sclerosis == max(record.sclerosis.values())
    assert parsed.max_osteophytes == max(record.osteophytes.values())
    assert parsed.any_cysts == any(record.cysts.values())
    assert parsed.any_chondrocalcinosis == any(record.chondrocalcinosis.values())


class TestRender:
    def test_abnormality_matches_report_style(self):
        record = make_record(
            kl=2,
            osteophytes={"fm": 2, "tm": 1},
            sclerosis={"fm": 2, "tm": 2},
            jsn={"jm": 2},
        )
        caption = render_caption(record, TemplateKind.ABNORMALITY, include_zero_grades=False)
        assert caption == (
            "mild osteoarthritis. "
            "Osteophytes: mild in femur medial, early in tibia medial. "
            "Sclerosis: mild in femur medial, mild in tibia medial. "
            "Joint Space Narrowing: mild in joint medial."
        )

    def test_overall_exact_sentence(self):
        record = make_record(
            kl=3,
            side="left",
            sclerosis={"fm": 3, "tm": 1},
            osteophytes={"fl": 3},
        )
        caption = render_caption(record, TemplateKind.OVERALL, include_zero_grades=True)
        assert caption == (
            "Image shows moderate osteoarthritis in the left knee. "
            "It shows sign of moderate sclerosis, no sign of cysts, "
            "no sign of chondrocalcinosis, and sign of moderate osteophytes."
        )

    def test_all_zero_record_collapses_to_kl_sentence(self):
        record = make_record()
        for kind in (TemplateKind.ABNORMALITY, TemplateKind.LOCATION):
            assert render_caption(record, kind, include_zero_grades=False) == (
                "no osteoarthritis."
            )
        overall = render_caption(record, TemplateKind.OVERALL, include_zero_grades=False)
        assert overall == "Image shows no osteoarthritis in the left knee."

    def test_alignment_sentence_trails(self):
        record = make_record(alignment="varus")
        text = render_caption(record, TemplateKind.ABNORMALITY, False)
        assert text.endswith("knee is varus.")
        neutral = make_record(alignment="neutral")
        assert "knee is" not in render_caption(neutral, TemplateKind.ABNORMALITY, False)

    def test_demographics_behind_flag(self):
        record = make_record(age=67, sex="female")
        plain = render_caption(record, TemplateKind.OVERALL, True)
        assert "year old" not in plain
        with_demo = render_caption(record, TemplateKind.OVERALL, True, include_demographics=True)
        assert "The patient is a 67 year old female." in with_demo
        parsed = parse_caption(with_demo)
        assert parsed.age == 67 and parsed.sex == "female"

    def test_render_is_pure(self):
        record = sample_record(make_rng(5), "p")
        a = render_caption(record, TemplateKind.LOCATION, True)
        b = render_caption(record, TemplateKind.LOCATION, True)
        assert a == b


class TestCaptionBag:
    def test_negative_bag_differs_in_every_graded_clause(self):
        rng = make_rng(17)
        for _ in range(25):
            record = sample_record(rng)
            negative = perturb_negative(record, rng)
            pos = parse_caption(
                render_caption(record, TemplateKind.LOCATION, True)
            )
            neg = parse_caption(
                render_caption(negative, TemplateKind.LOCATION, True)
            )
            assert pos.kl != neg.kl
            for name in ("osteophytes", "sclerosis", "jsn", "attrition"):
                for comp, value in getattr(pos, name).items():
                    assert abs(getattr(neg, name)[comp] - value) >= 2


class TestShuffle:
    def test_single_sentence_unchanged(self):
        caption = render_caption(make_record(), TemplateKind.ABNORMALITY, False)
        assert shuffle_sentences(caption, make_rng(1)) == caption

    def test_multiset_preserved(self):
        caption = render_caption(sample_record(make_rng(4), "m"), TemplateKind.LOCATION, True)
        shuffled = shuffle_sentences(caption, make_rng(2))
        assert sorted(shuffled[:-1].split(". ")) == sorted(caption[:-1].split(". "))

    def test_deterministic(self):
        caption = render_caption(sample_record(make_rng(4), "m"), TemplateKind.ABNORMALITY, True)
        assert (
            shuffle_sentences(caption, make_rng(3))
            == shuffle_sentences(caption, make_rng(3))
        )


class TestParse:
    def test_single_phrase(self):
        parsed = parse_caption("Osteophytes: mild in femur medial.")
        assert parsed.osteophytes == {"fm": 2}
        assert parsed.sclerosis == {} and parsed.kl is None

    def test_round_trip_all_kinds(self):
        rng = make_rng(31)
        for _ in range(50):
            record = sample_record(rng)
            for kind in (TemplateKind.ABNORMALITY, TemplateKind.LOCATION):
                parsed = parse_caption(render_caption(record, kind, True))
                assert_full_recovery(parsed, record)
            parsed = parse_caption(render_caption(record, TemplateKind.OVERALL, True))
            assert_overall_recovery(parsed, record)

    def test_parse_insensitive_to_shuffling(self):
        rng = make_rng(32)
        for _ in range(20):
            record = sample_record(rng)
            caption = render_caption(record, TemplateKind.ABNORMALITY, True)
            shuffled = shuffle_sentences(caption, rng)
            assert parse_caption(shuffled) == parse_caption(caption)

    def test_rejects_text_outside_grammar(self):
        cases = [
            ("no osteoarthritis. Hello world.", len("no osteoarthritis. ")),
            # the renderer writes grade 0 as "no sign of", never "sign of no"
            ("It shows sign of no sclerosis.", 0),
            ("It shows sign of no osteophytes.", 0),
        ]
        for text, position in cases:
            with pytest.raises(CaptionParseError) as exc:
                parse_caption(text)
            assert exc.value.position == position, text

    def test_rejects_missing_terminator(self):
        with pytest.raises(CaptionParseError):
            parse_caption("no osteoarthritis")

    def test_rejects_wrong_compartment(self):
        with pytest.raises(CaptionParseError):
            parse_caption("Joint Space Narrowing: mild in femur medial.")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, seed):
        record = sample_record(make_rng(seed), "h")
        parsed = parse_caption(render_caption(record, TemplateKind.LOCATION, True))
        assert_full_recovery(parsed, record)


class TestTokenizer:
    def test_simple_lookup(self, vocab):
        tokens = tokenize("no osteoarthritis.", vocab, max_len=8)
        words = ["no", "osteoarthritis", "."]
        expected = [vocab.index(w) for w in words] + [vocab.pad_index] * 5
        assert tokens.tolist() == expected

    def test_punctuation_splits(self):
        assert split_text("Osteophytes: mild, early.") == [
            "osteophytes", ":", "mild", ",", "early", ".",
        ]

    def test_truncation_to_max_len(self, vocab):
        text = "no osteoarthritis. " * 60
        assert tokenize(text, vocab, max_len=96).shape == (96,)
        long_words = split_text(text)
        assert len(long_words) > 96

    def test_vocabulary_closure_over_random_bags(self, vocab):
        rng = make_rng(77)
        for _ in range(1000):
            record = sample_record(rng)
            negative = perturb_negative(record, rng)
            for source in (record, negative):
                for kind in TEMPLATE_ORDER:
                    caption = render_caption(source, kind, True, include_demographics=True)
                    tokens = tokenize(caption, vocab)
                    assert not (tokens == vocab.unk_index).any()

    def test_unknown_word_maps_to_unk(self, vocab):
        tokens = tokenize("zebra osteoarthritis.", vocab, max_len=4)
        assert tokens[0] == vocab.unk_index

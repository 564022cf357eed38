"""Report-caption grammar: rendering, augmentation, parsing, tokenization.

Three template styles render a score record into period-terminated
sentences; the grammar is closed, so a caption can be parsed back into the
grades and flags it states, and the full terminal vocabulary can be
enumerated exactly for tokenization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from .scores import (
    COMPARTMENT_NAMES,
    FEATURE_BY_NAME,
    FEATURES,
    GRADE_WORDS,
    Feature,
    OaScoreRecord,
    WORD_TO_GRADE,
    grade_word,
)

DEFAULT_MAX_LEN = 96

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class TemplateKind(str, Enum):
    ABNORMALITY = "abnormality"
    LOCATION = "location"
    OVERALL = "overall"


TEMPLATE_ORDER = (TemplateKind.ABNORMALITY, TemplateKind.LOCATION, TemplateKind.OVERALL)

# Narration order of the abnormality and location templates (chondrocalcinosis
# before cysts, unlike the record's field order), and the overall template's
# aggregate clauses in sentence order.
_NARRATED = tuple(
    FEATURE_BY_NAME[name]
    for name in ("osteophytes", "sclerosis", "jsn", "attrition", "chondrocalcinosis", "cysts")
)
_AGGREGATED = tuple(
    FEATURE_BY_NAME[name] for name in ("sclerosis", "cysts", "chondrocalcinosis", "osteophytes")
)

# Location-template traversal: joint first, then femur, then tibia,
# medial before lateral within each.
LOCATION_ORDER = ("jm", "jl", "fm", "fl", "tm", "tl")

_NAME_TO_COMPARTMENT = {name: key for key, name in COMPARTMENT_NAMES.items()}


class CaptionParseError(ValueError):
    """Text outside the caption grammar; ``position`` is a character offset."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at char {position}: {message}")
        self.position = position


def _state_word(feature: Feature, value) -> str:
    """How a finding is stated: its grade word, or "sign" / "no sign" for a flag."""
    if feature.graded:
        return grade_word(value)
    return "sign" if value else "no sign"


def _stated_value(feature: Feature, word: str):
    """Inverse of :func:`_state_word`."""
    return WORD_TO_GRADE[word] if feature.graded else word == "sign"


def _abnormality_sentences(record: OaScoreRecord, include_zero: bool) -> List[str]:
    sentences = []
    for feature in _NARRATED:
        values = getattr(record, feature.name)
        entries = [
            f"{_state_word(feature, values[c])} in {COMPARTMENT_NAMES[c]}"
            for c in feature.compartments
            if include_zero or values[c]
        ]
        if entries:
            sentences.append(f"{feature.words.title()}: " + ", ".join(entries) + ".")
    return sentences


def _location_phrases(record: OaScoreRecord, comp: str, include_zero: bool) -> List[str]:
    phrases = []
    for feature in _NARRATED:
        if comp in feature.compartments:
            value = getattr(record, feature.name)[comp]
            if include_zero or value:
                of = "" if feature.graded else " of"
                phrases.append(f"{_state_word(feature, value)}{of} {feature.words}")
    return phrases


def _location_sentences(record: OaScoreRecord, include_zero: bool) -> List[str]:
    sentences = []
    for comp in LOCATION_ORDER:
        phrases = _location_phrases(record, comp, include_zero)
        if phrases:
            sentences.append(
                f"In {COMPARTMENT_NAMES[comp]} compartment: " + ", ".join(phrases) + "."
            )
    return sentences


def _join_clauses(clauses: List[str]) -> str:
    if len(clauses) == 1:
        return clauses[0]
    if len(clauses) == 2:
        return f"{clauses[0]} and {clauses[1]}"
    return ", ".join(clauses[:-1]) + ", and " + clauses[-1]


def _overall_sentences(record: OaScoreRecord, include_zero: bool) -> List[str]:
    sentences = [
        f"Image shows {grade_word(record.kl)} osteoarthritis in the {record.side} knee."
    ]
    clauses = []
    for feature in _AGGREGATED:
        worst = max(getattr(record, feature.name).values())  # for flags: any present
        if worst:
            grade = f"{grade_word(worst)} " if feature.graded else ""
            clauses.append(f"sign of {grade}{feature.words}")
        elif include_zero:
            clauses.append(f"no sign of {feature.words}")
    if clauses:
        sentences.append("It shows " + _join_clauses(clauses) + ".")
    return sentences


def render_caption(
    record: OaScoreRecord,
    kind: TemplateKind,
    include_zero_grades: bool = True,
    include_demographics: bool = False,
) -> str:
    """Render one template style for a record as caption text.

    With ``include_zero_grades`` false, grade-0 entries and absent flags are
    omitted and emptied sentences are dropped; the leading KL sentence always
    stays. A non-neutral alignment adds a trailing "knee is ..." sentence.
    """
    if kind == TemplateKind.ABNORMALITY:
        sentences = [f"{grade_word(record.kl)} osteoarthritis."]
        sentences.extend(_abnormality_sentences(record, include_zero_grades))
    elif kind == TemplateKind.LOCATION:
        sentences = [f"{grade_word(record.kl)} osteoarthritis."]
        sentences.extend(_location_sentences(record, include_zero_grades))
    elif kind == TemplateKind.OVERALL:
        sentences = _overall_sentences(record, include_zero_grades)
    else:
        raise ValueError(f"unknown template kind: {kind!r}")
    if record.alignment != "neutral":
        sentences.append(f"knee is {record.alignment}.")
    if include_demographics:
        sentences.append(f"The patient is a {record.age} year old {record.sex}.")
    return " ".join(sentences)


def _split_into_sentences(text: str) -> List[Tuple[str, int]]:
    """Split caption text into (sentence, char offset) pairs."""
    if not text:
        raise CaptionParseError(0, "empty caption")
    if not text.endswith("."):
        raise CaptionParseError(len(text) - 1, "caption must end with a period")
    sentences = []
    pos = 0
    for part in text[:-1].split(". "):
        if not part:
            raise CaptionParseError(pos, "empty sentence")
        sentences.append((part, pos))
        pos += len(part) + 2
    return sentences


def shuffle_sentences(text: str, rng: np.random.Generator) -> str:
    """Permute a caption's sentences with the given generator; the multiset is unchanged."""
    parts = [s for s, _ in _split_into_sentences(text)]
    order = rng.permutation(len(parts))
    return ". ".join(parts[i] for i in order) + "."


@dataclass
class ParsedScores:
    """Grades and flags recovered from caption text; unstated fields stay absent.

    Per-compartment maps are partial. The overall template states only
    aggregates, which land in ``max_sclerosis`` / ``max_osteophytes`` /
    ``any_cysts`` / ``any_chondrocalcinosis``.
    """

    kl: Optional[int] = None
    side: Optional[str] = None
    alignment: Optional[str] = None
    age: Optional[int] = None
    sex: Optional[str] = None
    osteophytes: Dict[str, int] = field(default_factory=dict)
    sclerosis: Dict[str, int] = field(default_factory=dict)
    jsn: Dict[str, int] = field(default_factory=dict)
    attrition: Dict[str, int] = field(default_factory=dict)
    cysts: Dict[str, bool] = field(default_factory=dict)
    chondrocalcinosis: Dict[str, bool] = field(default_factory=dict)
    max_sclerosis: Optional[int] = None
    max_osteophytes: Optional[int] = None
    any_cysts: Optional[bool] = None
    any_chondrocalcinosis: Optional[bool] = None


def _alternation(words) -> str:
    return "(" + "|".join(words) + ")"


_WORD = _alternation(GRADE_WORDS)
_ANY_LOC = _alternation(COMPARTMENT_NAMES.values())

_RE_KL = re.compile(rf"^{_WORD} osteoarthritis$")
_RE_OVERALL_KL = re.compile(rf"^image shows {_WORD} osteoarthritis in the (left|right) knee$")
_RE_IT_SHOWS = re.compile(r"^it shows (.+)$")
_RE_FEATURE = re.compile(rf"^{_alternation(f.words for f in FEATURES)}: (.+)$")
_RE_GRADED_ENTRY = re.compile(rf"^{_WORD} in {_ANY_LOC}$")
_RE_FLAG_ENTRY = re.compile(rf"^(sign|no sign) in {_ANY_LOC}$")
_RE_LOCATION = re.compile(rf"^in {_ANY_LOC} compartment: (.+)$")
_RE_LOC_GRADED = re.compile(rf"^{_WORD} {_alternation(f.words for f in FEATURES if f.graded)}$")
_RE_LOC_FLAG = re.compile(
    rf"^(sign|no sign) of {_alternation(f.words for f in FEATURES if not f.graded)}$"
)
# "sign of mild sclerosis", "no sign of sclerosis", "sign of cysts", ...; grade
# 0 is only ever "no sign of", so the grade word after "sign of" is never "no"
_RE_AGGREGATE = re.compile(
    rf"^(sign|no sign) of (?:{_alternation(GRADE_WORDS[1:])} )?"
    rf"{_alternation(f.words for f in _AGGREGATED)}$"
)
_RE_ALIGNMENT = re.compile(r"^knee is (varus|valgus|neutral)$")
_RE_DEMOGRAPHICS = re.compile(r"^the patient is a (\d+) year old (male|female)$")

_FEATURE_BY_WORDS = {feature.words: feature for feature in FEATURES}


def _parse_feature_sentence(label: str, body: str, parsed: ParsedScores, pos: int) -> None:
    feature = _FEATURE_BY_WORDS[label]
    entry_re = _RE_GRADED_ENTRY if feature.graded else _RE_FLAG_ENTRY
    target = getattr(parsed, feature.name)
    for entry in body.split(", "):
        m = entry_re.match(entry)
        if not m:
            raise CaptionParseError(pos, f"bad entry {entry!r} for {label}")
        comp = _NAME_TO_COMPARTMENT[m.group(2)]
        if comp not in feature.compartments:
            raise CaptionParseError(pos, f"{m.group(2)} is not a {label} compartment")
        target[comp] = _stated_value(feature, m.group(1))


def _parse_location_sentence(loc_name: str, body: str, parsed: ParsedScores, pos: int) -> None:
    comp = _NAME_TO_COMPARTMENT[loc_name]
    for phrase in body.split(", "):
        m = _RE_LOC_GRADED.match(phrase) or _RE_LOC_FLAG.match(phrase)
        if not m:
            raise CaptionParseError(pos, f"bad phrase {phrase!r} in {loc_name}")
        feature = _FEATURE_BY_WORDS[m.group(2)]
        if comp not in feature.compartments:
            raise CaptionParseError(pos, f"{m.group(2)} cannot occur in {loc_name}")
        getattr(parsed, feature.name)[comp] = _stated_value(feature, m.group(1))


def _parse_aggregate_clauses(body: str, parsed: ParsedScores, pos: int) -> None:
    clauses: List[str] = []
    for chunk in body.split(", "):
        if chunk.startswith("and "):
            chunk = chunk[len("and ") :]
        clauses.extend(chunk.split(" and "))
    for clause in clauses:
        if not clause:
            raise CaptionParseError(pos, "empty clause")
        m = _RE_AGGREGATE.match(clause)
        feature = _FEATURE_BY_WORDS[m.group(3)] if m else None
        # a grade word is stated exactly when a graded finding is present
        if feature is None or (m.group(2) is not None) != (
            feature.graded and m.group(1) == "sign"
        ):
            raise CaptionParseError(pos, f"bad clause {clause!r}")
        if feature.graded:
            setattr(parsed, f"max_{feature.name}", WORD_TO_GRADE.get(m.group(2), 0))
        else:
            setattr(parsed, f"any_{feature.name}", m.group(1) == "sign")


def parse_caption(text: str) -> ParsedScores:
    """Recover the grades and flags a caption states.

    Accepts any sentence order (captions may be shuffled); rejects text
    outside the grammar with the offending character position.
    """
    parsed = ParsedScores()
    for sentence, pos in _split_into_sentences(text):
        lower = sentence.lower()
        m = _RE_KL.match(lower)
        if m:
            parsed.kl = WORD_TO_GRADE[m.group(1)]
            continue
        m = _RE_OVERALL_KL.match(lower)
        if m:
            parsed.kl = WORD_TO_GRADE[m.group(1)]
            parsed.side = m.group(2)
            continue
        m = _RE_IT_SHOWS.match(lower)
        if m:
            _parse_aggregate_clauses(m.group(1), parsed, pos)
            continue
        m = _RE_FEATURE.match(lower)
        if m:
            _parse_feature_sentence(m.group(1), m.group(2), parsed, pos)
            continue
        m = _RE_LOCATION.match(lower)
        if m:
            _parse_location_sentence(m.group(1), m.group(2), parsed, pos)
            continue
        m = _RE_ALIGNMENT.match(lower)
        if m:
            parsed.alignment = m.group(1)
            continue
        m = _RE_DEMOGRAPHICS.match(lower)
        if m:
            parsed.age = int(m.group(1))
            parsed.sex = m.group(2)
            continue
        raise CaptionParseError(pos, f"unrecognized sentence {sentence!r}")
    return parsed


# --- tokenization ---------------------------------------------------------

_STRUCTURE_WORDS = (
    "osteoarthritis",
    "osteophytes",
    "sclerosis",
    "joint",
    "space",
    "narrowing",
    "attrition",
    "chondrocalcinosis",
    "cysts",
    "femur",
    "tibia",
    "medial",
    "lateral",
    "in",
    "compartment",
    "sign",
    "of",
    "image",
    "shows",
    "the",
    "left",
    "right",
    "knee",
    "it",
    "and",
    "is",
    "varus",
    "valgus",
    "neutral",
    "patient",
    "a",
    "year",
    "old",
    "male",
    "female",
)

_TOKEN_RE = re.compile(r"[^\s.,:]+|[.,:]")


class Vocabulary:
    """Closed token inventory of the caption grammar plus <pad>/<unk>."""

    pad_index = 0
    unk_index = 1

    def __init__(self, tokens: Tuple[str, ...]):
        self.tokens = tokens
        self._indices = {token: i for i, token in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        return self._indices.get(token, self.unk_index)


def build_vocabulary() -> Vocabulary:
    """Enumerate every terminal the grammar can produce, in fixed order."""
    tokens: List[str] = [PAD_TOKEN, UNK_TOKEN, ".", ",", ":"]
    tokens.extend(GRADE_WORDS)
    tokens.extend(_STRUCTURE_WORDS)
    tokens.extend(str(age) for age in range(0, 121))
    assert len(tokens) == len(set(tokens))
    return Vocabulary(tokens=tuple(tokens))


def split_text(text: str) -> List[str]:
    """Lowercase and split into word/punctuation tokens (".", ",", ":" separate)."""
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Fixed-length index sequence: truncated to ``max_len``, right-padded."""
    words = split_text(text)[:max_len]
    indices = [vocab.index(w) for w in words]
    indices.extend([vocab.pad_index] * (max_len - len(indices)))
    return np.asarray(indices, dtype=np.int64)

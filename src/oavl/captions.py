"""Report-caption grammar: rendering, augmentation, tokenization.

Three template styles render a score record into period-terminated
sentences; the grammar is closed, so the full terminal vocabulary can be
enumerated exactly for tokenization.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Dict, List, Tuple

import numpy as np

from .scores import (
    COMPARTMENT_NAMES,
    FEATURE_BY_NAME,
    GRADE_WORDS,
    Feature,
    OaScoreRecord,
    grade_word,
)

DEFAULT_MAX_LEN = 96

# Sentences whose token ids a Vocabulary memoizes; the grammar renders fewer
# than half as many, so text from outside it cannot grow the memo unbounded.
SENTENCE_MEMO_CAP = 8192

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


def _state_word(feature: Feature, value) -> str:
    """How a finding is stated: its grade word, or "sign" / "no sign" for a flag."""
    if feature.graded:
        return grade_word(value)
    return "sign" if value else "no sign"


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


def shuffle_sentences(text: str, rng: np.random.Generator) -> str:
    """Permute a rendered caption's sentences with the given generator; the multiset is unchanged."""
    # rendered sentences meet at ". ", the boundary tokenize splits on too
    parts = text[:-1].split(". ")
    order = rng.permutation(len(parts))
    return ". ".join(parts[i] for i in order) + "."


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
        self._sentences: Dict[str, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        return self._indices.get(token, self.unk_index)

    def sentence_ids(self, sentence: str) -> Tuple[int, ...]:
        """The ids of a text's tokens, memoized for the first SENTENCE_MEMO_CAP texts."""
        ids = self._sentences.get(sentence)
        if ids is None:
            ids = tuple(self.index(w) for w in split_text(sentence))
            if len(self._sentences) < SENTENCE_MEMO_CAP:
                self._sentences[sentence] = ids
        return ids


def build_vocabulary() -> Vocabulary:
    """Enumerate every terminal the grammar can produce, in fixed order."""
    tokens: List[str] = [PAD_TOKEN, UNK_TOKEN, ".", ",", ":"]
    tokens.extend(GRADE_WORDS)
    tokens.extend(_STRUCTURE_WORDS)
    tokens.extend(str(age) for age in range(0, 121))
    assert len(tokens) == len(set(tokens))
    return Vocabulary(tokens=tuple(tokens))


# the grammar's vocabulary size: the model's default and the one a checkpoint must match
VOCAB_SIZE = len(build_vocabulary())


def split_text(text: str) -> List[str]:
    """Lowercase and split into word/punctuation tokens (".", ",", ":" separate)."""
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Fixed-length index sequence: truncated to ``max_len``, right-padded."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    # no token spans ". " or the final ".", so the ids are each sentence's,
    # from the memo, with the period's after each
    period = vocab.index(".")
    closed = text.endswith(".")
    indices: List[int] = []
    for sentence in (text[:-1] if closed else text).split(". "):
        indices += vocab.sentence_ids(sentence)
        indices.append(period)
    if not closed:
        indices.pop()
    del indices[max_len:]
    indices += [vocab.pad_index] * (max_len - len(indices))
    return np.asarray(indices, dtype=np.int64)

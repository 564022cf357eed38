"""Test oracle: parse caption text back into the grades and flags it states.

The caption grammar is closed, so every sentence ``oavl.captions`` renders
can be read back. Tests and acceptance criterion 3 use this parser to check
the renderer; the pipeline never parses a caption. The parser alone checks
caption text and reports where it leaves the grammar, as a character offset:
the pipeline's sentence split (``shuffle_sentences``, ``tokenize``) only
ever sees captions the grammar rendered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from oavl.captions import _AGGREGATED
from oavl.scores import COMPARTMENT_NAMES, FEATURES, GRADE_WORDS, Feature

class CaptionParseError(ValueError):
    """Text outside the caption grammar; ``position`` is a character offset."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at char {position}: {message}")
        self.position = position


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


WORD_TO_GRADE = {word: g for g, word in enumerate(GRADE_WORDS)}

_NAME_TO_COMPARTMENT = {name: key for key, name in COMPARTMENT_NAMES.items()}


def _stated_value(feature: Feature, word: str):
    """Inverse of :func:`_state_word`."""
    return WORD_TO_GRADE[word] if feature.graded else word == "sign"


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

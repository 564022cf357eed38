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
    ATTRITION_COMPARTMENTS,
    BONE_COMPARTMENTS,
    COMPARTMENT_NAMES,
    JOINT_COMPARTMENTS,
    GRADE_WORDS,
    OaScoreRecord,
    SeveritySignature,
    WORD_TO_GRADE,
    grade_word,
    severity_signature,
)

DEFAULT_MAX_LEN = 96

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class TemplateKind(str, Enum):
    ABNORMALITY = "abnormality"
    LOCATION = "location"
    OVERALL = "overall"


TEMPLATE_ORDER = (TemplateKind.ABNORMALITY, TemplateKind.LOCATION, TemplateKind.OVERALL)

# (record field, display name, compartment keys), in fixed narration order.
GRADED_FEATURES = (
    ("osteophytes", "Osteophytes", BONE_COMPARTMENTS),
    ("sclerosis", "Sclerosis", BONE_COMPARTMENTS),
    ("jsn", "Joint Space Narrowing", JOINT_COMPARTMENTS),
    ("attrition", "Attrition", ATTRITION_COMPARTMENTS),
)
BOOLEAN_FEATURES = (
    ("chondrocalcinosis", "Chondrocalcinosis", JOINT_COMPARTMENTS),
    ("cysts", "Cysts", BONE_COMPARTMENTS),
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


@dataclass
class Caption:
    text: str
    kind: TemplateKind
    signature: SeveritySignature


@dataclass
class CaptionBag:
    """All template renderings of one record, in fixed kind order."""

    captions: List[Caption]

    @property
    def signature(self) -> SeveritySignature:
        return self.captions[0].signature


def _abnormality_sentences(record: OaScoreRecord, include_zero: bool) -> List[str]:
    sentences = []
    for name, display, comps in GRADED_FEATURES:
        values = getattr(record, name)
        entries = [
            f"{grade_word(values[c])} in {COMPARTMENT_NAMES[c]}"
            for c in comps
            if include_zero or values[c] > 0
        ]
        if entries:
            sentences.append(f"{display}: " + ", ".join(entries) + ".")
    for name, display, comps in BOOLEAN_FEATURES:
        values = getattr(record, name)
        entries = []
        for c in comps:
            if values[c]:
                entries.append(f"sign in {COMPARTMENT_NAMES[c]}")
            elif include_zero:
                entries.append(f"no sign in {COMPARTMENT_NAMES[c]}")
        if entries:
            sentences.append(f"{display}: " + ", ".join(entries) + ".")
    return sentences


def _location_phrases(record: OaScoreRecord, comp: str, include_zero: bool) -> List[str]:
    phrases = []
    for name, _display, comps in GRADED_FEATURES:
        if comp in comps:
            g = getattr(record, name)[comp]
            if include_zero or g > 0:
                feature_text = "joint space narrowing" if name == "jsn" else name
                phrases.append(f"{grade_word(g)} {feature_text}")
    for name, _display, comps in BOOLEAN_FEATURES:
        if comp in comps:
            present = getattr(record, name)[comp]
            if present:
                phrases.append(f"sign of {name}")
            elif include_zero:
                phrases.append(f"no sign of {name}")
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
    max_sclerosis = max(record.sclerosis.values())
    if max_sclerosis > 0:
        clauses.append(f"sign of {grade_word(max_sclerosis)} sclerosis")
    elif include_zero:
        clauses.append("no sign of sclerosis")
    if any(record.cysts.values()):
        clauses.append("sign of cysts")
    elif include_zero:
        clauses.append("no sign of cysts")
    if any(record.chondrocalcinosis.values()):
        clauses.append("sign of chondrocalcinosis")
    elif include_zero:
        clauses.append("no sign of chondrocalcinosis")
    max_osteophytes = max(record.osteophytes.values())
    if max_osteophytes > 0:
        clauses.append(f"sign of {grade_word(max_osteophytes)} osteophytes")
    elif include_zero:
        clauses.append("no sign of osteophytes")
    if clauses:
        sentences.append("It shows " + _join_clauses(clauses) + ".")
    return sentences


def render_caption(
    record: OaScoreRecord,
    kind: TemplateKind,
    include_zero_grades: bool = True,
    include_demographics: bool = False,
) -> Caption:
    """Render one template style for a record.

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
    return Caption(
        text=" ".join(sentences), kind=kind, signature=severity_signature(record)
    )


def build_caption_bag(
    record: OaScoreRecord,
    include_zero_grades: bool = True,
    include_demographics: bool = False,
) -> CaptionBag:
    """One caption per template kind, all sharing the record's signature."""
    return CaptionBag(
        captions=[
            render_caption(record, kind, include_zero_grades, include_demographics)
            for kind in TEMPLATE_ORDER
        ]
    )


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


def shuffle_sentences(caption: Caption, rng: np.random.Generator) -> Caption:
    """Permute a caption's sentences with the given generator.

    The sentence multiset, kind, and signature are unchanged.
    """
    parts = [s for s, _ in _split_into_sentences(caption.text)]
    order = rng.permutation(len(parts))
    shuffled = [parts[i] for i in order]
    return Caption(
        text=". ".join(shuffled) + ".", kind=caption.kind, signature=caption.signature
    )


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


_WORD = r"(no|early|mild|moderate|severe)"
_BONE = r"(femur medial|femur lateral|tibia medial|tibia lateral)"
_JOINT = r"(joint medial|joint lateral)"
_ANY_LOC = r"(femur medial|femur lateral|tibia medial|tibia lateral|joint medial|joint lateral)"

_RE_KL = re.compile(rf"^{_WORD} osteoarthritis$")
_RE_OVERALL_KL = re.compile(rf"^image shows {_WORD} osteoarthritis in the (left|right) knee$")
_RE_IT_SHOWS = re.compile(r"^it shows (.+)$")
_RE_FEATURE = re.compile(
    r"^(osteophytes|sclerosis|joint space narrowing|attrition|chondrocalcinosis|cysts): (.+)$"
)
_RE_GRADED_ENTRY = re.compile(rf"^{_WORD} in {_ANY_LOC}$")
_RE_FLAG_ENTRY = re.compile(rf"^(sign|no sign) in {_ANY_LOC}$")
_RE_LOCATION = re.compile(rf"^in {_ANY_LOC} compartment: (.+)$")
_RE_LOC_GRADED = re.compile(rf"^{_WORD} (osteophytes|sclerosis|joint space narrowing|attrition)$")
_RE_LOC_FLAG = re.compile(r"^(sign|no sign) of (chondrocalcinosis|cysts)$")
_RE_AGG_GRADED = re.compile(rf"^sign of {_WORD} (sclerosis|osteophytes)$")
_RE_AGG_NONE = re.compile(r"^no sign of (sclerosis|osteophytes)$")
_RE_AGG_FLAG = re.compile(r"^(sign|no sign) of (cysts|chondrocalcinosis)$")
_RE_ALIGNMENT = re.compile(r"^knee is (varus|valgus|neutral)$")
_RE_DEMOGRAPHICS = re.compile(r"^the patient is a (\d+) year old (male|female)$")

_FEATURE_LABELS = {
    "osteophytes": ("osteophytes", BONE_COMPARTMENTS, "graded"),
    "sclerosis": ("sclerosis", BONE_COMPARTMENTS, "graded"),
    "joint space narrowing": ("jsn", JOINT_COMPARTMENTS, "graded"),
    "attrition": ("attrition", ATTRITION_COMPARTMENTS, "graded"),
    "chondrocalcinosis": ("chondrocalcinosis", JOINT_COMPARTMENTS, "flag"),
    "cysts": ("cysts", BONE_COMPARTMENTS, "flag"),
}


def _parse_feature_sentence(label: str, body: str, parsed: ParsedScores, pos: int) -> None:
    name, comps, mode = _FEATURE_LABELS[label]
    target = getattr(parsed, name)
    for entry in body.split(", "):
        if mode == "graded":
            m = _RE_GRADED_ENTRY.match(entry)
            if not m:
                raise CaptionParseError(pos, f"bad entry {entry!r} for {label}")
            comp = _NAME_TO_COMPARTMENT[m.group(2)]
            if comp not in comps:
                raise CaptionParseError(pos, f"{m.group(2)} is not a {label} compartment")
            target[comp] = WORD_TO_GRADE[m.group(1)]
        else:
            m = _RE_FLAG_ENTRY.match(entry)
            if not m:
                raise CaptionParseError(pos, f"bad entry {entry!r} for {label}")
            comp = _NAME_TO_COMPARTMENT[m.group(2)]
            if comp not in comps:
                raise CaptionParseError(pos, f"{m.group(2)} is not a {label} compartment")
            target[comp] = m.group(1) == "sign"


def _parse_location_sentence(loc_name: str, body: str, parsed: ParsedScores, pos: int) -> None:
    comp = _NAME_TO_COMPARTMENT[loc_name]
    for phrase in body.split(", "):
        m = _RE_LOC_GRADED.match(phrase)
        if m:
            name, comps, _mode = _FEATURE_LABELS[m.group(2)]
            if comp not in comps:
                raise CaptionParseError(pos, f"{m.group(2)} cannot occur in {loc_name}")
            getattr(parsed, name)[comp] = WORD_TO_GRADE[m.group(1)]
            continue
        m = _RE_LOC_FLAG.match(phrase)
        if m:
            name, comps, _mode = _FEATURE_LABELS[m.group(2)]
            if comp not in comps:
                raise CaptionParseError(pos, f"{m.group(2)} cannot occur in {loc_name}")
            getattr(parsed, name)[comp] = m.group(1) == "sign"
            continue
        raise CaptionParseError(pos, f"bad phrase {phrase!r} in {loc_name}")


def _parse_aggregate_clauses(body: str, parsed: ParsedScores, pos: int) -> None:
    clauses: List[str] = []
    for chunk in body.split(", "):
        if chunk.startswith("and "):
            chunk = chunk[len("and ") :]
        clauses.extend(chunk.split(" and "))
    for clause in clauses:
        if not clause:
            raise CaptionParseError(pos, "empty clause")
        m = _RE_AGG_GRADED.match(clause)
        if m:
            value = WORD_TO_GRADE[m.group(1)]
            if m.group(2) == "sclerosis":
                parsed.max_sclerosis = value
            else:
                parsed.max_osteophytes = value
            continue
        m = _RE_AGG_NONE.match(clause)
        if m:
            if m.group(1) == "sclerosis":
                parsed.max_sclerosis = 0
            else:
                parsed.max_osteophytes = 0
            continue
        m = _RE_AGG_FLAG.match(clause)
        if m:
            value = m.group(1) == "sign"
            if m.group(2) == "cysts":
                parsed.any_cysts = value
            else:
                parsed.any_chondrocalcinosis = value
            continue
        raise CaptionParseError(pos, f"bad clause {clause!r}")


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


@dataclass(frozen=True)
class Vocabulary:
    """Closed token inventory of the caption grammar plus <pad>/<unk>."""

    tokens: Tuple[str, ...]

    @property
    def pad_index(self) -> int:
        return 0

    @property
    def unk_index(self) -> int:
        return 1

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        return self._lookup().get(token, self.unk_index)

    def _lookup(self) -> Dict[str, int]:
        cached = getattr(self, "_lookup_cache", None)
        if cached is None:
            cached = {token: i for i, token in enumerate(self.tokens)}
            object.__setattr__(self, "_lookup_cache", cached)
        return cached


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

"""Structured knee osteoarthritis scores.

An :class:`OaScoreRecord` holds one knee's demographics plus ordinal 0..4
severity grades per feature and compartment, and boolean presence flags.
Records are the single source of truth downstream: captions render from
them and synthetic images encode them pixel by pixel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Dict, NamedTuple, Tuple

import numpy as np

from .configs import check_json_keys, is_json_type

GRADE_MIN = 0
GRADE_MAX = 4

# Ordinal severity 0..4 mapped to descriptive words.
GRADE_WORDS = ("no", "early", "mild", "moderate", "severe")

SIDES = ("left", "right")
SEXES = ("male", "female")
ALIGNMENTS = ("varus", "valgus", "neutral")

# Compartment keys: femur/tibia x medial/lateral for bone features,
# joint medial/lateral for joint-space features.
BONE_COMPARTMENTS = ("fm", "fl", "tm", "tl")
JOINT_COMPARTMENTS = ("jm", "jl")
ATTRITION_COMPARTMENTS = ("tm", "tl")

COMPARTMENT_NAMES = {
    "fm": "femur medial",
    "fl": "femur lateral",
    "tm": "tibia medial",
    "tl": "tibia lateral",
    "jm": "joint medial",
    "jl": "joint lateral",
}


class Feature(NamedTuple):
    """One per-compartment map field of :class:`OaScoreRecord`."""

    name: str
    compartments: Tuple[str, ...]
    graded: bool  # a 0..4 grade per compartment; otherwise a presence flag
    words: str  # caption wording; ``words.title()`` is the display name


# The score schema, one row per map field in record field order. Validation,
# sampling, negatives, signatures, captions and ground-truth regions all
# read it; the order is also the sampling RNG draw order.
FEATURES = (
    Feature("osteophytes", BONE_COMPARTMENTS, True, "osteophytes"),
    Feature("sclerosis", BONE_COMPARTMENTS, True, "sclerosis"),
    Feature("jsn", JOINT_COMPARTMENTS, True, "joint space narrowing"),
    Feature("attrition", ATTRITION_COMPARTMENTS, True, "attrition"),
    Feature("cysts", BONE_COMPARTMENTS, False, "cysts"),
    Feature("chondrocalcinosis", JOINT_COMPARTMENTS, False, "chondrocalcinosis"),
)
FEATURE_BY_NAME = {feature.name: feature for feature in FEATURES}

AGE_MIN = 0
AGE_MAX = 120
SAMPLE_AGE_MIN = 45
SAMPLE_AGE_MAX = 79

SeveritySignature = Tuple[int, ...]


class ScoreValidationError(ValueError):
    """A record field violates the schema; ``field`` names the first offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass
class OaScoreRecord:
    """One knee's scored exam: demographics, KL grade, and per-compartment features."""

    id: str
    side: str
    age: int
    sex: str
    alignment: str
    kl: int
    osteophytes: Dict[str, int]
    sclerosis: Dict[str, int]
    jsn: Dict[str, int]
    attrition: Dict[str, int]
    cysts: Dict[str, bool]
    chondrocalcinosis: Dict[str, bool]

    def copy(self) -> "OaScoreRecord":
        """A record whose six maps are fresh dicts; their values are immutable."""
        return type(self)(**self.to_json_dict())

    def to_json_dict(self) -> dict:
        # not dataclasses.asdict: it gives the same dict but deep-copies every
        # scalar, which is far slower on the manifest-writing path
        out = {name: getattr(self, name) for name in _RECORD_FIELDS}
        for name in _MAP_FIELDS:
            out[name] = dict(out[name])
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "OaScoreRecord":
        if not isinstance(obj, dict):
            raise ScoreValidationError("record", "expected a JSON object")
        check_json_keys(cls, obj, lambda key, problem: ScoreValidationError(key, f"{problem} key"))
        record = validate_record(cls(**obj))
        # the maps are known to be dicts only now; copy them so the record
        # does not alias the caller's JSON
        for name in _MAP_FIELDS:
            setattr(record, name, dict(getattr(record, name)))
        return record


_RECORD_FIELDS = tuple(f.name for f in fields(OaScoreRecord))
_MAP_FIELDS = tuple(feature.name for feature in FEATURES)


def _check_grade(field_name: str, value) -> None:
    if not is_json_type(value, int):
        raise ScoreValidationError(field_name, "grade must be an integer")
    if not GRADE_MIN <= value <= GRADE_MAX:
        raise ScoreValidationError(field_name, "grade out of range")


def _check_map(feature: Feature, value) -> None:
    if not isinstance(value, dict):
        raise ScoreValidationError(feature.name, "expected a compartment map")
    for key in feature.compartments:
        field_name = f"{feature.name}[{key}]"
        if key not in value:
            raise ScoreValidationError(field_name, "missing key")
        if feature.graded:
            _check_grade(field_name, value[key])
        elif not is_json_type(value[key], bool):
            raise ScoreValidationError(field_name, "flag must be a boolean")
    for key in value:
        if key not in feature.compartments:
            raise ScoreValidationError(f"{feature.name}[{key}]", "unknown compartment")


# Unicode category Cc. Ids key the random streams, and derive_seed does not
# length-prefix strings, so "a" and "a\x00" would share every stream.
_CONTROL_CHAR = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def validate_record(record: OaScoreRecord) -> OaScoreRecord:
    """Check every schema invariant; return the record unchanged if all hold.

    Raises :class:`ScoreValidationError` naming the first violated field.
    """
    if not isinstance(record.id, str) or not record.id:
        raise ScoreValidationError("id", "must be a non-empty string")
    if _CONTROL_CHAR.search(record.id):
        raise ScoreValidationError("id", f"must not contain a control character, got {record.id!r}")
    if "/" in record.id or "\\" in record.id:
        raise ScoreValidationError("id", f"must not contain a path separator, got {record.id!r}")
    if record.side not in SIDES:
        raise ScoreValidationError("side", f"must be one of {SIDES}")
    if not is_json_type(record.age, int):
        raise ScoreValidationError("age", "must be an integer")
    if not AGE_MIN <= record.age <= AGE_MAX:
        raise ScoreValidationError("age", "out of range")
    if record.sex not in SEXES:
        raise ScoreValidationError("sex", f"must be one of {SEXES}")
    if record.alignment not in ALIGNMENTS:
        raise ScoreValidationError("alignment", f"must be one of {ALIGNMENTS}")
    _check_grade("kl", record.kl)
    for feature in FEATURES:
        _check_map(feature, getattr(record, feature.name))
    return record


def grade_word(g: int) -> str:
    """Map an ordinal grade to its descriptive word (0 -> "no", ..., 4 -> "severe")."""
    _check_grade("grade", g)
    return GRADE_WORDS[g]


def severity_signature(record: OaScoreRecord) -> SeveritySignature:
    """Tuple of every grade and flag of a record, in fixed field order.

    Excludes id, age, sex, side, and alignment: two records agree on the
    signature iff they agree on every grade and flag. Stable across runs.
    """
    parts = [record.kl]
    for feature in FEATURES:
        values = getattr(record, feature.name)
        parts.extend(int(values[c]) for c in feature.compartments)
    return tuple(parts)


def sample_record(rng: np.random.Generator, record_id: str = "sample") -> OaScoreRecord:
    """Draw one synthetic record.

    KL is uniform on 0..4; every graded feature is clamp(kl + delta, 0, 4)
    with delta uniform in {-1, 0, +1} per feature, so feature grades (and
    the rendered image) carry the KL signal. Flags are true with
    probability 0.1 + 0.1 * kl. Demographics are uniform; age 45..79.
    """
    kl = int(rng.integers(GRADE_MIN, GRADE_MAX + 1))

    def coupled_grade() -> int:
        delta = int(rng.integers(-1, 2))
        return min(max(kl + delta, GRADE_MIN), GRADE_MAX)

    def coupled_flag() -> bool:
        return bool(rng.random() < 0.1 + 0.1 * kl)

    maps = {
        feature.name: {
            c: coupled_grade() if feature.graded else coupled_flag()
            for c in feature.compartments
        }
        for feature in FEATURES
    }
    # demographics are drawn below, after the grades and flags
    record = OaScoreRecord(id=record_id, side="", age=0, sex="", alignment="", kl=kl, **maps)
    record.side = SIDES[int(rng.integers(0, len(SIDES)))]
    record.sex = SEXES[int(rng.integers(0, len(SEXES)))]
    record.alignment = ALIGNMENTS[int(rng.integers(0, len(ALIGNMENTS)))]
    record.age = int(rng.integers(SAMPLE_AGE_MIN, SAMPLE_AGE_MAX + 1))
    return validate_record(record)


# per grade, the grades at least 2 levels away from it
_FAR_GRADES = tuple(
    tuple(v for v in range(GRADE_MIN, GRADE_MAX + 1) if abs(v - g) >= 2)
    for g in range(GRADE_MIN, GRADE_MAX + 1)
)


def _perturbed_grade(g: int, rng: np.random.Generator) -> int:
    allowed = _FAR_GRADES[g - GRADE_MIN]
    return allowed[int(rng.integers(0, len(allowed)))]


def perturb_negative(record: OaScoreRecord, rng: np.random.Generator) -> OaScoreRecord:
    """Build the contrasting negative of a record.

    KL and every graded feature are redrawn uniformly from the grades at
    least 2 levels away; each flag flips with probability 0.5. Demographics
    stay unchanged and the id gets a "-neg" suffix.
    """
    neg = record.copy()
    neg.id = record.id + "-neg"
    neg.kl = _perturbed_grade(record.kl, rng)
    for feature in FEATURES:
        values = getattr(neg, feature.name)
        for c in feature.compartments:
            if feature.graded:
                values[c] = _perturbed_grade(values[c], rng)
            elif rng.random() < 0.5:
                values[c] = not values[c]
    return neg

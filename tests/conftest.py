import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import strategies as st

from oavl.scores import FEATURES, OaScoreRecord, validate_record
from oavl.training import CHECKPOINT_MAGIC


def make_record(
    record_id="r0",
    side="left",
    age=60,
    sex="male",
    alignment="neutral",
    kl=0,
    fill=0,
    **overrides,
):
    """A valid record with every grade set to ``fill`` and every flag false;
    overrides are dicts like osteophytes={"fm": 2}."""
    record = OaScoreRecord(
        id=record_id,
        side=side,
        age=age,
        sex=sex,
        alignment=alignment,
        kl=kl,
        **{
            f.name: {c: fill if f.graded else False for c in f.compartments}
            for f in FEATURES
        },
    )
    for name, values in overrides.items():
        getattr(record, name).update(values)
    return validate_record(record)


@pytest.fixture
def record_factory():
    return make_record


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# --- malformed-input strategies, shared by the reader and CLI fuzz tests ------

# one value of each JSON type; a field's replacement is drawn from the others
_JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(2**70), 2**70),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "str": st.text(max_size=6),
    "list": st.lists(st.integers(0, 9), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
}


def _json_kind(value) -> str:
    if value is None:
        return "null"
    for kind, cls in (("bool", bool), ("int", int), ("float", float), ("str", str), ("list", list)):
        if isinstance(value, cls):
            return kind
    return "object"


def _json_paths(obj, prefix=()):
    """Key paths to every value of nested JSON objects, parents before children."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _json_paths(value, prefix + (key,))


@st.composite
def broken_json_objects(draw, obj: dict):
    """``obj`` (left unchanged) with one field deleted or given a value of another JSON type."""
    obj = json.loads(json.dumps(obj))
    path = draw(st.sampled_from(list(_json_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        kind = _json_kind(parent[path[-1]])
        parent[path[-1]] = draw(st.one_of(*(s for k, s in _JSON_KINDS.items() if k != kind)))
    return obj


# bytes that can never occur in UTF-8 text: a stray continuation byte, a lead
# byte without its continuation, and the two bytes UTF-8 never uses
NOT_UTF8 = st.sampled_from([b"\x80", b"\xc3(", b"\xe2\x82", b"\xfe", b"\xff"])


@st.composite
def spliced(draw, blob: bytes, insert):
    """``blob`` with a drawn byte string inserted at a drawn offset."""
    at = draw(st.integers(0, len(blob)))
    return blob[:at] + draw(insert) + blob[at:]


@st.composite
def truncated(draw, blob: bytes):
    """A strict prefix of ``blob``."""
    return blob[: draw(st.integers(0, len(blob) - 1))]


@st.composite
def malformed_manifests(draw, blob: bytes):
    """A manifest written by write_manifest, made invalid: one line's entry has
    a field deleted or of the wrong JSON type, or non-UTF-8 bytes are spliced in."""
    if draw(st.booleans()):
        return draw(spliced(blob, NOT_UTF8))
    lines = blob.decode("utf-8").splitlines(keepends=True)
    row = draw(st.integers(0, len(lines) - 1))
    obj = draw(broken_json_objects(json.loads(lines[row])))
    lines[row] = json.dumps(obj) + "\n"
    return "".join(lines).encode("utf-8")


def checkpoint_parts(blob: bytes):
    """A checkpoint's parsed JSON header and its payload bytes."""
    (size,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12 : 12 + size]), blob[12 + size : -4]


def checkpoint_file(header, payload: bytes, header_len=None, magic=CHECKPOINT_MAGIC) -> bytes:
    """Checkpoint bytes holding ``header`` (a dict, or raw bytes) and ``payload``,
    with the CRC recomputed so that an edit reaches the parser instead of
    failing the checksum. ``header_len`` overrides the stored header length."""
    if isinstance(header, dict):
        header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    length = len(header) if header_len is None else header_len
    body = struct.pack("<I", length) + header + payload
    return magic + body + struct.pack("<I", zlib.crc32(body))

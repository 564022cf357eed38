import numpy as np
import pytest

from oavl.scores import FEATURES, OaScoreRecord, validate_record


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

import copy
import pickle

import pytest

from loewylab.block import BlockContext
from loewylab.lattice import Weight
from loewylab.record import Record

# (class, fields by name, other fields, repr of the first)
RECORDS = [
    (Weight, {"coords": (1, 2)}, {"coords": (1, 3)}, "Weight(coords=(1, 2))"),
    (
        BlockContext, {"n": 1, "p": 5, "lambdas": (Weight((0,)), Weight((3,)))},
        {"n": 1, "p": 7, "lambdas": (Weight((0,)), Weight((5,)))},
        "BlockContext(n=1, p=5, lambdas=(Weight(coords=(0,)), Weight(coords=(3,))))",
    ),
]


class Stranger(Record):
    """A one-field record of another class, whose field tuple can equal a Weight's."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        object.__setattr__(self, "coords", coords)


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, other, text):
    a, same, b = cls(*fields.values()), cls(**fields), cls(**other)
    names, fields, other = tuple(fields), tuple(fields.values()), tuple(other.values())
    assert tuple(getattr(a, name) for name in names) == fields
    # Equality and hashing: the field tuple, within the class only.  The
    # stranger of a Weight has the same field tuple, and so the same hash.
    stranger = Stranger((1, 2)) if cls is Weight else Weight((1, 2))
    assert a == same and not a != same and a != b
    assert hash(a) == hash(same) == hash(fields)
    assert a != fields and a != fields[0] and a != stranger
    assert len({a: 0, fields: 1, fields[0]: 2, stranger: 3}) == 4
    assert repr(a) == text
    # Immutability: no field can be assigned, deleted or added.
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 0
    assert a == same and tuple(getattr(a, name) for name in names) == fields
    # Copies and pickles rebuild an equal record.
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is cls and clone == a and hash(clone) == hash(a)
    # Records do not order, within their class or against anything else.
    for foreign in (b, same, fields, stranger):
        with pytest.raises(TypeError):
            a < foreign  # noqa: B015
        with pytest.raises(TypeError):
            a >= foreign  # noqa: B015


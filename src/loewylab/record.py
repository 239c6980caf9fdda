"""Frozen value records: the base of the library's small value classes.

A record names its fields in `__slots__`, in order, and sets them in its
`__init__` through `object.__setattr__`.  Two records are equal only when
they are of the same class and their field tuples are equal, and a record
hashes as its field tuple, so `hash(Weight(c)) == hash((c,))` and a weight
never equals its coordinate tuple.  An `OrderedRecord` also orders by its
field tuple, within its own class.  Assigning or deleting a field raises
AttributeError.
"""

from __future__ import annotations

from operator import attrgetter, eq, ge, gt, le, lt

__all__ = ["Record", "OrderedRecord"]


def _compare(op):
    """A comparison of records of one class by their field tuples."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._key, other._key)
        return NotImplemented

    return compare


class Record:
    """Equality, hashing, repr and immutability from the fields in `__slots__`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__slots__
        if fields:  # OrderedRecord adds methods, not fields.
            get = attrgetter(*fields)
            # attrgetter returns a lone field bare; the key is always a tuple.
            cls._key = property(get if len(fields) > 1 else lambda self: (get(self),))

    __eq__ = _compare(eq)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._key


class OrderedRecord(Record):
    """A record that also orders by its field tuple, within its own class."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_compare, (lt, le, gt, ge))

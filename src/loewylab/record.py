"""Frozen value records: the base of the library's small value classes.

A record names its fields in `__slots__`, in order, and sets them in its
`__init__` through `object.__setattr__`.  Two records are equal only when
they are of the same class and their field tuples are equal, and a record
hashes as its field tuple, so `hash(Weight(c)) == hash((c,))` and a weight
never equals its coordinate tuple.  Records do not order.  Assigning or
deleting a field raises AttributeError.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    """Equality, hashing, repr and immutability from the fields in `__slots__`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__slots__
        get = attrgetter(*fields)
        # attrgetter returns a lone field bare; the key is always a tuple.
        cls._key = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

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

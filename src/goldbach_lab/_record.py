"""The immutable record base of the package's public value types.

A record lists its two or more fields in ``__slots__`` and in its explicit
``__init__`` signature, in the same order.  ``__init__`` checks its arguments,
if it checks any, then hands them all to ``_store``, which writes them in field
order through each slot's descriptor: the base's ``__setattr__`` refuses every
write, and the descriptor's ``__set__`` is the slot's own store beneath it.
The base gives every record ``==`` and ``hash`` by value (equal only within
one exact class), a ``repr`` naming each field, ``AttributeError`` on
assignment and deletion, and ``__reduce__``, without which a slotted class
that refuses ``__setattr__`` cannot be copied or pickled.

That is what ``@dataclass(frozen=True)`` gave these classes.  Importing
``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
decorated class ``exec``s its generated methods: together about half of the
package's start-up, which every CLI command and every forked worker pays.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()  # the fields, in order

    def __init_subclass__(cls) -> None:
        fields = tuple(f for c in reversed(cls.__mro__) for f in c.__dict__.get("__slots__", ()))
        cls.__match_args__ = fields
        cls._values = property(attrgetter(*fields))  # the tuple of field values
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)

    def _store(self, *values: object) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values

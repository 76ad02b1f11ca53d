"""Base classes of the package's records.

A record is a plain class with ``__slots__`` and a hand-written
``__init__`` that checks and normalises its arguments.  ``Record`` gives
the field-by-field repr, and ``_fill``, which sets the slots in order
for the wider records.  ``Value`` is for the records that are compared
or hashed (cache keys, factors checked for equality): it is immutable,
equal to a record of the same class with the same constructor arguments
``_args()``, hashed by them, and pickled by them, since the raising
``__setattr__`` rules out the default unpickling of slot classes.
``Value.__init__`` methods set their fields through ``_set`` or ``_fill``.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set the slots, in order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Value(Record):
    __slots__ = ()

    def _args(self) -> tuple:
        """The constructor arguments, spelt out by each subclass (a generic
        loop over the slots costs six times as much, and equality and
        hashing run in inner loops)."""
        raise NotImplementedError

    def __eq__(self, other):
        if type(other) is type(self):
            return self is other or self._args() == other._args()
        return NotImplemented

    def __hash__(self):
        return hash(self._args())

    def __reduce__(self):
        return type(self), self._args()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}' of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}' of {type(self).__name__}")

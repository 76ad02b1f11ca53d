"""Base classes of the package's records.

A record is a plain class whose ``__slots__`` is its one field list: its
``__init__`` checks and normalises the arguments and sets the slots, in
order, through ``Record._fill``, and ``Record`` gives the repr.  ``Value``
is for the records that are compared or hashed: it is immutable, and its
equality, hash and pickling read ``_args()``, the slots in order, which are
the constructor arguments (the raising ``__setattr__`` rules out the default
unpickling of slot classes).  Two exceptions: ``CurveData`` spells out its
``_args`` without its derived slot, and ``LocalFactor``, built most often,
sets its slots through ``_set``.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set the slots, in order, to ``values``, one for each."""
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Value(Record):
    __slots__ = ()

    def _args(self) -> tuple:
        """The slots, in order: the constructor arguments."""
        return tuple(getattr(self, name) for name in self.__slots__)

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

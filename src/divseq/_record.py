"""Immutable records without the dataclasses module, whose import pulls in
inspect, ast, dis and tokenize."""

from __future__ import annotations


class Record:
    """A record whose fields are its class's __match_args__, slots set
    once by __init__ (in that order) and never again; a class may add
    private slots after them, and read a field from one of those through
    a property, which its own __init__ then sets. == holds between records
    of the same class with equal fields, hash is the hash of the field
    tuple and repr names the fields, as for a frozen dataclass."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

"""Immutable value records, the base of the package's data and report classes.

A record class names its fields, in order, in ``__match_args__`` and sets
them in its own ``__init__`` with ``object.__setattr__``.  On CPython 3.11
and later that keeps the fields in the instance's inline values; reading
``__dict__`` would build a dict and slow every later attribute read.
``cached_property`` still stores in the instance ``__dict__``.  Unlike
``dataclasses``, nothing is generated when a class is defined, so importing
the package builds no code at run time.
"""

from operator import attrgetter


class Record:
    """Equality and hash over the field tuple, equal only within one class;
    ``Name(field=value, ...)`` as repr; no assignment or deletion."""

    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        # one attrgetter per class reads the field tuple, in C: the sort and
        # the lookups of fibrations compare and hash DiagramTypes per op
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__
        if len(fields) > 1:
            get = attrgetter(*fields)
            cls._values = lambda self: get(self)
        elif fields:
            get = attrgetter(fields[0])
            cls._values = lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OrderedRecord(Record):
    """A record that orders as its field tuple; comparing with another
    class raises ``TypeError``."""

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() < other._values()
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._values() <= other._values()
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() > other._values()
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._values() >= other._values()
        return NotImplemented

"""Immutable value records, the base of the package's data and report classes.

A record class names its fields, in order, in ``__match_args__``, and only
there.  ``Record.__init__`` takes them by position or by keyword and sets
them in that order with ``object.__setattr__``; a class that checks its
arguments does so in its own ``__init__`` and then calls
``super().__init__``.  On CPython 3.11 and later setting the fields through
``object.__setattr__`` keeps them in the instance's inline values; reading
``__dict__`` would build a dict and slow every later attribute read.
``cached_property`` still stores in the instance ``__dict__``.  Unlike
``dataclasses``, nothing is generated when a class is defined, so importing
the package builds no code at run time.
"""

from functools import total_ordering
from operator import attrgetter


class Record:
    """Fields set once from ``__match_args__``; equality and hash over the
    field tuple, equal only within one class; ``Name(field=value, ...)`` as
    repr; no assignment or deletion."""

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

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):
            args = _bind(self.__class__.__name__, fields, args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

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


def _bind(name, fields, args, kwargs):
    """The values of ``fields`` in order, from positional ``args`` and then
    ``kwargs``; ``TypeError`` naming the class for too many positional
    values, or for a field that is unknown, given twice or missing."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
    values = dict(zip(fields, args))
    for field, value in kwargs.items():
        if field not in fields:
            raise TypeError(f"{name}() got an unknown field {field!r}")
        if field in values:
            raise TypeError(f"{name}() got multiple values for field {field!r}")
        values[field] = value
    missing = [f for f in fields if f not in values]
    if missing:
        raise TypeError(f"{name}() missing field{'s' * (len(missing) > 1)} {', '.join(map(repr, missing))}")
    return [values[f] for f in fields]


@total_ordering
class OrderedRecord(Record):
    """A record that orders as its field tuple; comparing with another
    class raises ``TypeError``."""

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() < other._values()
        return NotImplemented

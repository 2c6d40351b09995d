"""Immutable records: the point sets, orders, cones and certificates."""

from collections import namedtuple


def _eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def record(name, fields, defaults=()):
    """A namedtuple class `name` of `fields` (a space-separated string), the
    last of them defaulting to `defaults`. Unlike a plain namedtuple, a
    record equals only a record of its own class with equal fields, so
    fieldless records of two classes differ and no record equals a bare
    tuple. It hashes as the tuple of its fields."""
    cls = namedtuple(name, fields, defaults=defaults)
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, tuple.__hash__
    return cls

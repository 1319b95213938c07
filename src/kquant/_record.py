"""Value behaviour shared by the engine's record classes.

A record class names its fields, in order, in `_fields` and writes its
own __init__.  Two records are equal when they are of the same class and
their fields are equal in order, and the repr names the class and each
field.  A Record is mutable and unhashable; a FrozenRecord refuses
attribute assignment, so its __init__ writes through __dict__, and
hashes the tuple of its fields, so it is hashable exactly when every
field is: FixedPointDatum and ClosedComponent, which hold WeightPolynomials
(__eq__ without __hash__), raise TypeError on hash().  These are plain
classes rather than dataclasses: the dataclasses module imports inspect
and builds each class's methods with exec, which every CLI launch would
pay for.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A mutable record: equality and repr over `_fields`, no hash."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls._values = staticmethod(attrgetter(*cls._fields))  # fields as one tuple

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable record: hashable exactly when its fields are; assignment raises AttributeError."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {self.__class__.__name__}")

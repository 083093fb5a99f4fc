"""The base class for records and value types, in place of ``dataclasses``,
whose import (through ``inspect``) costs more than a short command's own
work: equality, a hash and a ``Name(field=value, ...)`` repr over
``_fields``, and no assignment after ``__init__``.
"""

from __future__ import annotations

from operator import attrgetter

# Assignment past a Frozen class's __setattr__, for its __init__.
setfield = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # The field values as a tuple: attrgetter's, at C speed, from two fields.
        names = cls._fields
        if len(names) > 1:
            cls._values = staticmethod(attrgetter(*names))
        else:
            cls._values = staticmethod(lambda obj: tuple(getattr(obj, n) for n in names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in values)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            setfield(self, name, value)

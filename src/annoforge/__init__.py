"""Schema induction and synthetic annotation via guided language-model prompting."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A usage or configuration error: the CLI exits 2 on it.

    Defined here, not in ``config``, so the analysis commands can raise it
    without loading the run configuration's modules."""


class Value:
    """Base of the records the analysis commands read: what ``@dataclass``
    gives them, without loading ``dataclasses`` (and with it ``inspect``) at
    start-up. Equality compares ``_fields`` in order and holds only between
    objects of one class, ``repr`` shows ``_fields``, and instances are
    mutable and, since the class defines ``__eq__`` alone, unhashable. Each
    subclass sets ``__slots__`` and ``_fields`` and assigns every slot in its
    ``__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, name) for name in self._fields]
                == [getattr(other, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

"""Schema induction and synthetic annotation via guided language-model prompting."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A usage or configuration error: the CLI exits 2 on it.

    Defined here, not in ``config``, so the analysis commands can raise it
    without loading the run configuration's modules."""


class Value:
    """Base of the records the analysis commands read: what ``@dataclass``
    gives them, without loading ``dataclasses`` (and with it ``inspect``) at
    start-up. A subclass states its fields once, in ``__slots__``, and gets
    an ``__init__`` that takes them in that order, positionally or by keyword,
    and assigns each. ``_defaults`` maps a slot to its default: a constant,
    or ``dict`` or ``list``, which makes the default ``None`` and gives each
    instance that gets it a new empty one. A subclass that adds no slot keeps
    its parent's ``__init__``, and one that writes an ``__init__`` keeps its
    own. Equality compares ``_fields`` in order and holds only between
    objects of one class, ``repr`` shows ``_fields``, and instances are
    mutable and, since the class defines ``__eq__`` alone, unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        if not slots or "__init__" in cls.__dict__:
            return
        # compiled once per class, as ``dataclasses`` does, so each call runs
        # the same bytecode as a hand-written ``__init__``
        params, body, scope = [], [], {}
        for name in slots:
            value = name
            if name not in cls._defaults:
                params.append(name)
            elif cls._defaults[name] in (dict, list):
                params.append(f"{name}=None")
                empty = "{}" if cls._defaults[name] is dict else "[]"
                value = f"{empty} if {name} is None else {name}"
            else:
                scope[f"_default_{name}"] = cls._defaults[name]
                params.append(f"{name}=_default_{name}")
            body.append(f"\n    self.{name} = {value}")
        exec(f"def __init__(self, {', '.join(params)}):{''.join(body)}", scope)
        init = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, name) for name in self._fields]
                == [getattr(other, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

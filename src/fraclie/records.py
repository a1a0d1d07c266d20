"""Plain records, built without code generation.

`record` turns a class with annotated fields into a record, as
`dataclasses.dataclass` does for the subset fraclie uses: `__init__` takes
the fields positionally or by keyword, in declaration order, with class
attribute defaults, then calls `__post_init__` when the class has one;
`__eq__` compares the field values of two instances of one class;
`__repr__` shows them.  A frozen record also hashes by its field values
and refuses assignment; an unfrozen one is unhashable.  Methods the class
defines itself are kept.

The methods are closures over the field names, so declaring a record costs
no `exec` and importing this module pulls in nothing beyond the builtins.
"""
from __future__ import annotations

_MISSING = object()


class FrozenRecordError(AttributeError):
    """Assignment to a field of a frozen record."""


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator: `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults: dict[str, object] = {}
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if value is not _MISSING:
            defaults[name] = value
        elif defaults:
            raise TypeError(f"{cls.__name__}: field {name!r} without a default "
                            "follows a field with one")
    nfields = len(names)
    post_init = cls.__dict__.get("__post_init__")
    qualname = cls.__qualname__

    def bind(args, kwargs) -> list:
        if len(args) > nfields:
            raise TypeError(f"{qualname}() takes {nfields} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing required argument: {name!r}")
        for name in kwargs:
            how = "got multiple values for" if name in names else "got an unexpected keyword"
            raise TypeError(f"{qualname}() {how} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != nfields:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def values(self) -> tuple:
        d = self.__dict__
        return tuple([d[n] for n in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __repr__(self) -> str:
        d = self.__dict__
        inner = ", ".join(f"{n}={d[n]!r}" for n in names)
        return f"{self.__class__.__qualname__}({inner})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__}
    if frozen:
        def __hash__(self) -> int:
            return hash(values(self))

        def __setattr__(self, name, value):
            raise FrozenRecordError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise FrozenRecordError(f"cannot delete field {name!r}")

        methods.update(__hash__=__hash__, __setattr__=__setattr__,
                       __delattr__=__delattr__)
    else:
        methods["__hash__"] = None
    for name, fn in methods.items():
        if name not in cls.__dict__:
            if fn is not None:
                fn.__qualname__ = f"{qualname}.{name}"
            setattr(cls, name, fn)
    return cls

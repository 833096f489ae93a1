"""Frozen value records, without the standard library's record generator.

A certificate runs one profile per process, so import time is paid on
every run.  The standard generator imports ``inspect`` (and through it
``ast``, ``dis`` and ``tokenize``) and compiles each class's methods
with ``exec``; ``frozen`` builds the few methods this package's value
classes use as closures over the field names instead.
"""

from __future__ import annotations


def _values(record, names) -> tuple:
    return tuple(map(record.__dict__.__getitem__, names))


def frozen(cls):
    """Make ``cls`` a frozen record of the fields its body annotates.

    ``__init__`` takes the fields in order, positionally or by keyword; a
    field assigned a value in the class body defaults to it (such fields
    come last).  ``__post_init__``, if the class has one, runs after the
    fields are set.  Setting or deleting an attribute raises
    ``AttributeError``; ``__eq__`` compares the exact class and every
    field; ``__hash__`` hashes the tuple of the fields; ``__repr__`` reads
    ``Name(field=value, ...)``.  Instances keep a ``__dict__``, so
    ``functools.cached_property`` works.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    if any(n not in defaults for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default "
                        "follows one with a default")
    post_init = getattr(cls, "__post_init__", None)
    title = cls.__name__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} arguments but "
                            f"{len(args)} were given")
        values = {**defaults, **dict(zip(names, args))}
        for key in kwargs:
            if key not in names or names.index(key) < len(args):
                raise TypeError(f"{title}() got an unexpected or repeated "
                                f"argument {key!r}")
        values.update(kwargs)
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{title}() missing arguments: {missing}")
        self.__dict__.update((n, values[n]) for n in names)
        if post_init is not None:
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of frozen {title}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of frozen {title}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self, names) == _values(other, names)

    def __hash__(self):
        return hash(_values(self, names))

    def __repr__(self):
        fields = ", ".join(f"{n}={self.__dict__[n]!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__,
                   __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls

"""Immutable value records: the part of `dataclasses` that growthlab uses,
without the cost of importing it and generating methods on every start-up."""


class Record:
    """Fields are the annotated names, base class first; a class attribute
    of the same name is the field's default.  Arguments bind by position or
    keyword, then `__post_init__` runs.  Instances cannot be changed, equal
    only instances of their own class with equal fields, hash as the tuple
    of their fields, and print as a dataclass does."""

    def __init_subclass__(cls):
        names = {}
        for klass in reversed(cls.__mro__):
            names.update(dict.fromkeys(vars(klass).get("__annotations__", ())))
        cls._fields = tuple(names)

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields or key in values:
                raise TypeError(f"{type(self).__qualname__}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        missing = [key for key in self._fields if key not in values and not hasattr(type(self), key)]
        if len(args) > len(self._fields) or missing:
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(self._fields)}")
        for key, value in values.items():
            object.__setattr__(self, key, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _asdict(self) -> dict:
        return {key: getattr(self, key) for key in self._fields}

    def __setattr__(self, key, value=None):
        raise AttributeError(f"cannot assign to or delete field {key!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._asdict() == other._asdict() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

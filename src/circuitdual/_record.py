"""Immutable value records, in place of frozen dataclasses, whose import
loads ``inspect`` and whose decorator compiles code in every ``cdl`` process.
Fields are the class's own annotations, in order; a class attribute of the
same name is its default.  ``__post_init__`` may use ``object.__setattr__``."""


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        for field, value in zip(cls._fields, args):
            object.__setattr__(self, field, value)
        for field in cls._fields[len(args):]:
            if field not in kwargs and field not in vars(cls):
                raise TypeError(f"{cls.__name__} is missing the field {field!r}")
            object.__setattr__(self, field, kwargs.pop(field, vars(cls).get(field)))
        if kwargs or len(args) > len(cls._fields):  # unknown, repeated or too many
            raise TypeError(f"{cls.__name__} takes each field of {cls._fields} once")
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

"""Record: the base of the package's immutable data classes.

A record's fields are the names in its class's __slots__, in order.  It is
built from them by position or by keyword, and then checked by
__post_init__, which a record with invariants overrides.  It equals only a
record of the same class with equal fields, hashes, prints, copies and
pickles by its fields, and refuses assignment and deletion with
AttributeError.

The methods are plain and shared, so defining a record class generates no
code and imports nothing: every command starts without the cost of the
standard library's frozen data classes.
"""


class Record:
    """An immutable record whose fields are its class's __slots__."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, names[len(args):]))
            except KeyError as missing:
                raise TypeError(f"{type(self).__name__} is missing field {missing}") from None
            if kwargs:
                raise TypeError(
                    f"{type(self).__name__} got unexpected or repeated fields {sorted(kwargs)}"
                )
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        set_field = object.__setattr__
        for name, value in zip(names, args):
            set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields once they are set; the base record has no invariant."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # rebuild through __init__: copy and pickle cannot set read-only slots
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

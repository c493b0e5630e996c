"""Bit-packed truth tables of up to 24 inputs, and ``Record``, the frozen base
class of every dwtl value type: no subcommand loads ``inspect``, ``ast`` or
``dis``, and only a cost report loads ``fractions``.
"""

from __future__ import annotations

from operator import attrgetter

# every input ceiling lives here, so the CLI states them without loading a solver
MAX_INPUTS = 24  # exhaustive tables and sweeps
SOLVE_MAX_INPUTS = 10
ENUMERATE_MAX_INPUTS = 5

# past MAX_INPUTS, verification samples seeded random vectors instead; each
# input draws one bit per vector, at most as many as the widest table's rows
DEFAULT_SEED = 0xD0DA11
DEFAULT_SAMPLE_VECTORS = 100_000
MAX_SAMPLE_VECTORS = 1 << MAX_INPUTS


class TooManyInputsError(ValueError):
    """Raised when a table or sweep would exceed the 24-input ceiling."""


def assignment_of(index: int, num_inputs: int) -> tuple[int, ...]:
    """Decode a row index into the input assignment it encodes.

    Input j takes value ``(index >> j) & 1``; input 0 is least significant.
    """
    return tuple((index >> j) & 1 for j in range(num_inputs))


def input_pattern(j: int, num_inputs: int) -> int:
    """Value of input j < num_inputs across all 2^n rows, as a 2^n-bit integer.

    Bit i of the result is bit j of the row index i: 2^j zeros then 2^j ones,
    repeated by doubling until the pattern spans 2^n rows.
    """
    rows = 1 << num_inputs
    block = 1 << j
    pattern = ((1 << block) - 1) << block
    period = 2 * block
    while period < rows:
        pattern |= pattern << period
        period *= 2
    return pattern


def input_patterns(num_inputs: int) -> list[int]:
    """``input_pattern(j, n)`` for every input j; above 24 inputs, an error."""
    if num_inputs > MAX_INPUTS:
        raise TooManyInputsError(
            f"{num_inputs} inputs exceed the {MAX_INPUTS}-input exhaustive ceiling"
        )
    return [input_pattern(j, num_inputs) for j in range(num_inputs)]


class Record:
    """Frozen value type: fields are its class annotations, in order, a class
    attribute gives a default, and ``__init__`` is built by one ``exec`` (as in
    ``collections.namedtuple``); it calls ``__post_init__`` if the class has one."""

    def __init_subclass__(cls) -> None:
        fields = tuple(vars(cls).get("__annotations__", ()))
        post = ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
        # object.__setattr__ keeps values inline; filling __dict__ slows each read
        lines = [f"_setattr(self, {f!r}, {f})" for f in fields] + post
        ns = {"_setattr": object.__setattr__}
        exec(f"def __init__(self, {', '.join(fields)}):\n    " + "\n    ".join(lines), ns)
        init = cls.__init__ = ns["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = tuple(vars(cls)[f] for f in fields if f in vars(cls)) or None
        cls._fields, cls._key = fields, attrgetter(*fields)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class TruthTable(Record):
    """Boolean function of ``num_inputs`` variables, rows packed into an int.

    Row i holds the value at the assignment decoded by ``assignment_of(i)``.
    """

    num_inputs: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.num_inputs <= MAX_INPUTS:
            raise TooManyInputsError(
                f"num_inputs must be in 1..{MAX_INPUTS}, got {self.num_inputs}"
            )
        if not 0 <= self.bits < (1 << self.num_rows):
            raise ValueError(
                f"table value 0x{self.bits:x} out of range for {self.num_inputs} inputs"
            )

    @property
    def num_rows(self) -> int:
        return 1 << self.num_inputs

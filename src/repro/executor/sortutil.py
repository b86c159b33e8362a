"""Sort-key utilities: NULL-aware, direction-aware row ordering.

SQL ordering semantics used throughout the executor:

* ascending:  NULLs first, then values ascending;
* descending: values descending, NULLs last.

(The two are exact reverses, which keeps merge logic simple.)
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence


class _KeyPart:
    """One sort-key component wrapped for comparison."""

    __slots__ = ("value", "ascending")

    def __init__(self, value: Any, ascending: bool):
        self.value = value
        self.ascending = ascending

    def compare(self, other: "_KeyPart") -> int:
        a, b = self.value, other.value
        if a is None and b is None:
            result = 0
        elif a is None:
            result = -1
        elif b is None:
            result = 1
        elif a < b:
            result = -1
        elif a > b:
            result = 1
        else:
            result = 0
        return result if self.ascending else -result


class SortKey:
    """A full multi-part sort key, totally ordered."""

    __slots__ = ("parts",)

    def __init__(self, parts: List[_KeyPart]):
        self.parts = parts

    def compare(self, other: "SortKey") -> int:
        for a, b in zip(self.parts, other.parts):
            c = a.compare(b)
            if c != 0:
                return c
        return 0

    def __lt__(self, other: "SortKey") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "SortKey") -> bool:
        return self.compare(other) <= 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SortKey) and self.compare(other) == 0

    def __hash__(self):  # pragma: no cover - not used as dict key
        return hash(tuple(p.value for p in self.parts))


def make_key_fn(
    evaluators: Sequence[Callable[[tuple], Any]],
    directions: Sequence[bool],
) -> Callable[[tuple], SortKey]:
    """Build a ``row -> SortKey`` function from compiled key expressions
    (the k-way merge of spilled runs compares by it; whole lists sort
    with ``sorted_rows``)."""

    def key(row: tuple) -> SortKey:
        return SortKey(
            [_KeyPart(ev(row), asc) for ev, asc in zip(evaluators, directions)]
        )

    return key


def sorted_rows(
    rows: List[tuple],
    evaluators: Sequence[Callable[[tuple], Any]],
    directions: Sequence[bool],
) -> List[tuple]:
    """*rows* in ``make_key_fn`` order, sorted on native values: one
    stable pass per key, last key first, so no key object is built and
    every comparison is a C one.  A pass keys on the value itself, or on
    ``(v is not None, v)`` when a NULL is among them; ``reverse`` keeps
    ties in input order, so NULLs come first ascending and last
    descending, as ``SortKey`` orders them."""
    out = list(rows)
    for ev, asc in reversed(list(zip(evaluators, directions))):
        values = list(map(ev, out))
        if None in values:
            values = [(v is not None, v) for v in values]
        order = sorted(range(len(out)), key=values.__getitem__, reverse=not asc)
        out = list(map(out.__getitem__, order))
    return out


def cmp_values(a: Any, b: Any) -> int:
    """NULLs-first three-way comparison on scalars."""
    part_a = _KeyPart(a, True)
    part_b = _KeyPart(b, True)
    return part_a.compare(part_b)

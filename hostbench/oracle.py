"""Expected answers computed without the engine.

The oracle evaluates the benchmark's microbenchmark queries over plain
Python lists of the seeded generator rows.  It shares no planner, operator,
expression or storage code with the engine: a query is described to it by
the benchmark's own template tuples, not by a ``LogicalQuery``.  Updates are
applied to the lists in the order the benchmark sends them.

Aggregates follow SQL: ``avg``/``sum``/``min``/``max`` over no rows is
``None`` and ``count(*)`` counts rows.  Integer sums are exact, so the
engine's ``avg`` (a float sum over integer values divided by the count)
must equal the oracle's bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Column positions of R and S rows (``a1``, ``a2``, ``a3``).
COLUMNS = {"a1": 0, "a2": 1, "a3": 2}


def aggregate(function: str, values: List[int]):
    if function == "count":
        return len(values)
    if not values:
        return None
    if function == "avg":
        return sum(values) / len(values)
    if function == "sum":
        return float(sum(values))
    if function == "min":
        return min(values)
    if function == "max":
        return max(values)
    raise ValueError(f"unknown aggregate {function!r}")


class MicroOracle:
    """R and S as lists of ``[a1, a2, a3]`` rows, plus a2 -> rows of R."""

    def __init__(self, r_rows: Iterable[Sequence[int]],
                 s_rows: Iterable[Sequence[int]]) -> None:
        self.r: List[List[int]] = [list(row) for row in r_rows]
        self.s: List[List[int]] = [list(row) for row in s_rows]
        self._r_by_a2: Dict[int, List[List[int]]] = {}
        for row in self.r:
            self._r_by_a2.setdefault(row[1], []).append(row)

    def range_aggregate(self, low: int, high: int,
                        function: str) -> Dict[str, object]:
        """``select function(a3) from R where a2 > low and a2 < high``."""
        values = [row[2] for row in self.r if low < row[1] < high]
        label = "count(*)" if function == "count" else f"{function}(a3)"
        return {label: aggregate(function, values)}

    def skewed_avg(self, wide_bound: int, coin: int,
                   narrow_bound: int) -> Dict[str, object]:
        """``... where a1 <= wide and a3 >= coin and a2 < narrow``."""
        values = [row[2] for row in self.r
                  if row[0] <= wide_bound and row[2] >= coin
                  and row[1] < narrow_bound]
        return {"avg(a3)": aggregate("avg", values)}

    def join_aggregate(self, function: str,
                       column: Optional[str]) -> Dict[str, object]:
        """``select f(col) from R, S where R.a2 = S.a1``; ``col`` is
        ``"R.aN"``/``"S.aN"`` (or ``None`` for ``count(*)``)."""
        s_by_key: Dict[int, List[List[int]]] = {}
        for row in self.s:
            s_by_key.setdefault(row[0], []).append(row)
        values: List[int] = []
        side, position = None, None
        if column is not None:
            side, name = column.split(".")
            position = COLUMNS[name]
        for r_row in self.r:
            for s_row in s_by_key.get(r_row[1], ()):
                if side == "R":
                    values.append(r_row[position])
                elif side == "S":
                    values.append(s_row[position])
                else:
                    values.append(0)
        label = f"{function}({column or '*'})"
        return {label: aggregate(function, values)}

    def update_a3(self, a2: int, value: int) -> int:
        """``update R set a3 = value where a2 = a2``; returns rows changed."""
        rows = self._r_by_a2.get(a2, [])
        for row in rows:
            row[2] = value
        return len(rows)


class AccountOracle:
    """TPC-C key -> value dicts, decoded from freshly built tables."""

    def __init__(self, tables: Dict[str, Tuple[str, str, Dict[int, int]]]) -> None:
        #: table -> (key column, value column, {key: value})
        self.tables = {name: (key, value, dict(data))
                       for name, (key, value, data) in tables.items()}

    def value(self, table: str, key: int) -> Optional[int]:
        """The checked column of ``key``'s record (``None`` if it has none)."""
        return self.tables[table][2].get(key)

    def update(self, table: str, set_column: str, key: int, value: int) -> int:
        _, value_column, data = self.tables[table]
        if key not in data:
            return 0
        if set_column == value_column:
            data[key] = value
        return 1

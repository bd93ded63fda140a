"""Microbenchmark query templates shared by the ``dss`` and ``serve`` workloads.

A template is a plain tuple the benchmark draws from its seed:

* ``("range", low, high, indexed, function)`` -- ``select function(a3)
  from R where a2 > low and a2 < high`` (``count(*)`` for ``"count"``),
  through the ``a2`` index when ``indexed``;
* ``("skewed", wide, coin, narrow)`` -- ``select avg(a3) from R where
  a1 <= wide and a3 >= coin and a2 < narrow``, conjuncts in that order;
* ``("join", function, column)`` -- ``select function(column) from R, S
  where R.a2 = S.a1``;
* ``("update", a2, value)`` -- ``update R set a3 = value where a2 = a2``
  (point update through the ``a2`` index).

:func:`to_query` turns a template into the engine's logical query and
:func:`expected` asks the oracle for its answer, so both sides start from
the same constants and share nothing else.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.query.expressions import (Aggregate, AggregateFunction, ColumnRef,
                                     Comparison, ComparisonOp, Const, avg,
                                     conjunction, range_predicate)
from repro.query.plans import JoinQuery, SelectionQuery, UpdateQuery

from .oracle import MicroOracle

Template = Tuple

#: Aggregates of the SJ template pools (``select f(col) from R, S ...``).
JOIN_AGGREGATES = {
    "SJR": (("avg", "R.a3"), ("sum", "R.a3"), ("avg", "R.a1"), ("max", "R.a1"),
            ("count", None), ("min", "R.a3"), ("sum", "R.a1"), ("max", "R.a3"),
            ("min", "R.a1")),
    # Not S.a2: it shares its name with R's join column, and join output
    # rows are merged by unqualified column name with R winning, so the
    # engine answers an aggregate of S.a2 with R.a2 (a known defect, kept
    # as a strict xfail in tests/test_hostbench.py).
    "SJS": (("avg", "S.a3"), ("sum", "S.a3")),
}


def exclusive_low_defects(database) -> FrozenSet[int]:
    """The ``a2`` values R's ``a2`` index answers wrongly as an exclusive
    low bound.

    A known defect: ``BTreeIndex.range_search`` with ``include_low=False``
    returns the entries equal to the bound when the bound's first entry
    starts a leaf (3 to 7 of the 200 values in the seeds tried).  Every
    benchmark operation must succeed, so a timed IRS window that would
    start at one of these values starts at the next value clear of them
    (:func:`clear_of`); ``tests/test_hostbench.py`` keeps the defect as a
    strict xfail.  Once the index is fixed this set is empty.
    """
    index = database.catalog.table("R").index_on("a2")
    defects = set()
    for low in set(index.keys_in_order()):
        first = next(index.range_search(low, None, include_low=False), None)
        if first is not None and first.key == low:
            defects.add(low)
    return frozenset(defects)


def to_query(template: Template, label: str):
    """The engine's logical query for ``template``."""
    kind = template[0]
    if kind == "range":
        _, low, high, indexed, function = template
        column = None if function == "count" else "a3"
        return SelectionQuery(table="R",
                              aggregates=(Aggregate(AggregateFunction(function),
                                                    column),),
                              predicate=range_predicate("a2", low, high),
                              prefer_index_on="a2" if indexed else None,
                              label=label)
    if kind == "skewed":
        _, wide, coin, narrow = template
        predicate = conjunction(
            Comparison(ComparisonOp.LE, ColumnRef("a1"), Const(wide)),
            Comparison(ComparisonOp.GE, ColumnRef("a3"), Const(coin)),
            Comparison(ComparisonOp.LT, ColumnRef("a2"), Const(narrow)))
        return SelectionQuery(table="R", aggregates=(avg("a3"),),
                              predicate=predicate, prefer_index_on=None,
                              label=label)
    if kind == "join":
        _, function, column = template
        return JoinQuery(left_table="R", right_table="S", left_column="a2",
                         right_column="a1",
                         aggregates=(Aggregate(AggregateFunction(function), column),),
                         label=label)
    if kind == "update":
        _, a2, value = template
        return UpdateQuery(table="R", key_column="a2", key_value=a2,
                           set_column="a3", set_value=value, label=label)
    raise ValueError(f"unknown template {template!r}")


def expected(oracle: MicroOracle, template: Template) -> List[Dict[str, object]]:
    """The rows the engine must return for ``template``.

    For an update this also applies it to the oracle's rows.
    """
    kind = template[0]
    if kind == "range":
        return [oracle.range_aggregate(*template[1:3], template[4])]
    if kind == "skewed":
        return [oracle.skewed_avg(*template[1:])]
    if kind == "join":
        return [oracle.join_aggregate(template[1], template[2])]
    if kind == "update":
        return [{"updated": oracle.update_a3(template[1], template[2])}]
    raise ValueError(f"unknown template {template!r}")


def clear_of(start: int, defects: FrozenSet[int]) -> int:
    """The first value from ``start`` up that is not in ``defects``."""
    while start in defects:
        start += 1
    return start

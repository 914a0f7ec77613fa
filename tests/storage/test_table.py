"""Tests for the relational table substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import KeyNotFoundError, SchemaError
from repro.storage import Predicate, Table, eq, ge, gt, le, lt


@pytest.fixture
def bursts():
    """A small burst table shaped like the one in section 6.2."""
    table = Table("bursts", ["sequence_id", "start", "end", "avg"])
    rows = [
        (0, 10, 20, 1.5),
        (0, 40, 45, 2.0),
        (1, 15, 25, 3.0),
        (2, 100, 130, 0.8),
        (3, 18, 19, 5.0),
    ]
    for row in rows:
        table.insert(*row)
    return table


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", ["a", "a"])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [])

    def test_unknown_column_in_predicate(self, bursts):
        with pytest.raises(SchemaError):
            bursts.select([eq("bogus", 1)])

    def test_index_on_unknown_column(self, bursts):
        with pytest.raises(SchemaError):
            bursts.create_index("bogus")


class TestInsert:
    def test_positional_and_named_equivalent(self):
        table = Table("t", ["a", "b"])
        r1 = table.insert(1, 2)
        r2 = table.insert(b=4, a=3)
        assert table.row(r1).data == {"a": 1, "b": 2}
        assert table.row(r2).data == {"a": 3, "b": 4}

    def test_mixed_styles_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(SchemaError):
            table.insert(1, b=2)

    def test_wrong_arity_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(SchemaError):
            table.insert(1)

    def test_missing_named_column_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(SchemaError):
            table.insert(a=1)
        with pytest.raises(SchemaError):
            table.insert(a=1, b=2, c=3)

    def test_row_ids_are_dense(self, bursts):
        assert [r.row_id for r in bursts.all_rows()] == [0, 1, 2, 3, 4]


class TestDelete:
    def test_delete_removes_row(self, bursts):
        bursts.delete(2)
        assert len(bursts) == 4
        with pytest.raises(KeyNotFoundError):
            bursts.row(2)

    def test_delete_missing_raises(self, bursts):
        with pytest.raises(KeyNotFoundError):
            bursts.delete(99)

    def test_delete_maintains_index(self, bursts):
        bursts.create_index("start")
        bursts.delete(0)
        hits = bursts.select([eq("start", 10)])
        assert hits == []


class TestUpdate:
    def test_update_changes_cells(self, bursts):
        bursts.update(0, avg=9.9)
        assert bursts.row(0)["avg"] == 9.9
        assert bursts.row(0)["start"] == 10  # untouched columns survive

    def test_update_maintains_indexes(self, bursts):
        bursts.create_index("start")
        bursts.update(0, start=77)
        assert [r.row_id for r in bursts.select([eq("start", 77)])] == [0]
        assert bursts.select([eq("start", 10)]) == []

    def test_update_unchanged_indexed_value_is_safe(self, bursts):
        bursts.create_index("start")
        bursts.update(0, start=10, avg=2.5)  # same start
        assert [r.row_id for r in bursts.select([eq("start", 10)])] == [0]

    def test_update_missing_row(self, bursts):
        with pytest.raises(KeyNotFoundError):
            bursts.update(99, avg=1.0)

    def test_update_unknown_column(self, bursts):
        with pytest.raises(SchemaError):
            bursts.update(0, bogus=1.0)


class TestSelect:
    def test_no_predicates_returns_all(self, bursts):
        assert len(bursts.select()) == 5

    def test_conjunction(self, bursts):
        # Fig. 18: bursts overlapping the query burst [start=17, end=22].
        hits = bursts.select([lt("start", 22), gt("end", 17)])
        assert sorted(r["sequence_id"] for r in hits) == [0, 1, 3]

    def test_each_operator(self, bursts):
        assert len(bursts.select([eq("sequence_id", 0)])) == 2
        assert len(bursts.select([le("start", 15)])) == 2
        assert len(bursts.select([ge("end", 45)])) == 2
        assert len(bursts.select([gt("avg", 2.0)])) == 2
        assert len(bursts.select([lt("avg", 1.0)])) == 1

    def test_index_and_scan_agree(self, bursts):
        predicates = [lt("start", 50), gt("end", 18)]
        scanned = {r.row_id for r in bursts.select(predicates)}
        bursts.create_index("start")
        bursts.create_index("end")
        probed = {r.row_id for r in bursts.select(predicates)}
        assert scanned == probed
        assert bursts.index_probe_count >= 1

    def test_index_backfill_covers_prior_rows(self, bursts):
        bursts.create_index("end")
        hits = bursts.select([ge("end", 100)])
        assert [r["sequence_id"] for r in hits] == [2]

    def test_planner_counts(self, bursts):
        bursts.select([eq("avg", 1.5)])
        assert bursts.scan_count == 1
        bursts.create_index("avg")
        bursts.select([eq("avg", 1.5)])
        assert bursts.index_probe_count == 1

    def test_duplicate_index_keys(self):
        table = Table("t", ["k", "v"])
        table.create_index("k")
        for i in range(10):
            table.insert(k=7, v=i)
        hits = table.select([eq("k", 7)])
        assert sorted(r["v"] for r in hits) == list(range(10))

    def test_create_index_twice_is_noop(self, bursts):
        bursts.create_index("start")
        bursts.create_index("start")
        assert bursts.indexed_columns == ("start",)


class TestRow:
    def test_getitem(self, bursts):
        row = bursts.row(0)
        assert row["start"] == 10
        with pytest.raises(SchemaError):
            row["nope"]


# ----------------------------------------------------------------------
# The planner as a property: select == a brute-force filter, in index order
# ----------------------------------------------------------------------
COLUMNS = ("k", "v", "w")
cells = st.integers(min_value=0, max_value=8)  # narrow: duplicate keys
# "k" is drawn twice as often, so two or three predicates on one column,
# an == beside a range and contradictory bounds all come up routinely.
predicate_lists = st.lists(
    st.builds(
        Predicate,
        st.sampled_from(("k",) + COLUMNS),
        st.sampled_from(("==", "<", "<=", ">", ">=")),
        st.integers(min_value=-1, max_value=9),
    ),
    max_size=4,
)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("delete"), st.integers(min_value=0)),
        st.tuples(
            st.just("update"),
            st.integers(min_value=0),
            st.sampled_from(COLUMNS),
            cells,
        ),
        st.tuples(st.just("insert"), st.tuples(cells, cells, cells)),
    ),
    max_size=12,
)


def brute_force(table, predicates, entered):
    """What ``select`` must return, from ``all_rows`` alone.

    Returns ``(rows, examined)``.  Index order is ascending key, ties in
    the order the rows entered that key's bucket (``entered`` ticks);
    without an indexed predicate it is heap order.  The planner may
    examine exactly the rows its access column's predicates admit.
    """
    column = next(
        (p.column for p in predicates if p.column in table.indexed_columns),
        None,
    )
    rows = list(table.all_rows())
    if column is not None:
        rows = [
            row
            for row in rows
            if all(p.matches(row[column]) for p in predicates if p.column == column)
        ]
        rows.sort(key=lambda row: (row[column], entered[column, row.row_id]))
    examined = len(rows)
    return (
        [
            row
            for row in rows
            if all(p.matches(row[p.column]) for p in predicates)
        ],
        examined,
    )


class TestPlannerProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(cells, cells, cells), max_size=200),
        st.sets(st.sampled_from(COLUMNS)),
        st.booleans(),
        mutations,
        st.lists(predicate_lists, min_size=1, max_size=4),
    )
    def test_select_equals_brute_force(
        self, rows, indexed, index_late, changes, queries
    ):
        table = Table("t", COLUMNS)
        entered = {}  # (column, row id) -> when the row entered its bucket
        clock = iter(range(10**6))

        def stamp(row_id, columns=COLUMNS):
            for column in columns:
                entered[column, row_id] = next(clock)

        if not index_late:
            for column in sorted(indexed):
                table.create_index(column)
        for row in rows:
            stamp(table.insert(*row))
        if index_late:  # backfill walks the heap: the same order
            for column in sorted(indexed):
                table.create_index(column)

        def check():
            for predicates in queries:
                before = table.rows_examined
                want, examined = brute_force(table, predicates, entered)
                assert table.select(predicates) == want
                assert table.rows_examined - before == examined

        check()
        for change in changes:
            live = [row.row_id for row in table.all_rows()]
            if change[0] == "insert":
                stamp(table.insert(*change[1]))
            elif not live:
                continue
            elif change[0] == "delete":
                table.delete(live[change[1] % len(live)])
            else:
                _, pick, column, value = change
                row_id = live[pick % len(live)]
                if table.row(row_id)[column] != value:
                    stamp(row_id, [column])
                table.update(row_id, **{column: value})
        check()
        assert table.scan_count + table.index_probe_count == 2 * len(queries)

    def test_bounds_on_one_column_merge_into_one_probe(self, bursts):
        bursts.create_index("start")
        hits = bursts.select([ge("start", 15), le("start", 40), gt("start", 15)])
        assert [r["start"] for r in hits] == [18, 40]
        assert bursts.index_probe_count == 1
        assert bursts.rows_examined == 2  # not the 4 rows with start >= 15

    def test_equality_beside_a_range(self, bursts):
        bursts.create_index("start")
        hits = bursts.select([lt("start", 99), eq("start", 15)])
        assert [r.row_id for r in hits] == [2]
        assert bursts.rows_examined == 1
        assert bursts.select([eq("start", 15), gt("start", 15)]) == []

    def test_contradictory_bounds_touch_no_leaf(self, bursts):
        bursts.create_index("start")
        with obs.observed() as registry:
            assert bursts.select([gt("start", 40), lt("start", 18)]) == []
            assert bursts.select([ge("start", 18), lt("start", 18)]) == []
            assert registry.counter("btree.node_visits").value == 0
            assert registry.counter("storage.table.rows_examined").value == 0
            bursts.select([ge("start", 18), le("start", 18)])
            assert registry.counter("btree.node_visits").value > 0
            assert registry.counter("storage.table.rows_examined").value == 1
        assert bursts.rows_examined == 1

    def test_rows_examined_counts_scans_too(self, bursts):
        bursts.select([eq("avg", 1.5)])
        assert bursts.rows_examined == len(bursts)

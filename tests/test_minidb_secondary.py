"""Tests for non-unique secondary indexes."""

from __future__ import annotations

import pytest

from repro.block import MemoryBlockDevice
from repro.common.errors import ConfigurationError, StorageError
from repro.minidb import Column, ColumnType, Database, Schema
from repro.minidb.secondary import SecondaryIndex, attach_secondary_index


def people_table():
    db = Database(MemoryBlockDevice(1024, 1024), pool_capacity=32)
    table = db.create_table(
        "people",
        Schema([
            Column("id", ColumnType.INT),
            Column("last", ColumnType.CHAR, 16),
            Column("balance", ColumnType.FLOAT),
        ]),
        key="id",
    )
    return table, db


class TestSecondaryIndex:
    def test_duplicate_values_all_returned(self):
        table, _ = people_table()
        attach_secondary_index(table, "last")
        table.insert((1, "smith", 0.0))
        table.insert((2, "jones", 0.0))
        table.insert((3, "smith", 0.0))
        rows = table.find_by("last", "smith")
        assert sorted(row[0] for row in rows) == [1, 3]
        assert [row[0] for row in table.find_by("last", "jones")] == [2]

    def test_no_matches(self):
        table, _ = people_table()
        attach_secondary_index(table, "last")
        table.insert((1, "smith", 0.0))
        assert table.find_by("last", "nobody") == []

    def test_find_without_index_raises(self):
        table, _ = people_table()
        with pytest.raises(StorageError, match="no secondary index"):
            table.find_by("last", "smith")

    def test_backfill_of_existing_rows(self):
        table, _ = people_table()
        table.insert((1, "lee", 0.0))
        table.insert((2, "lee", 0.0))
        attach_secondary_index(table, "last")
        assert sorted(r[0] for r in table.find_by("last", "lee")) == [1, 2]

    def test_update_moves_index_entry(self):
        table, _ = people_table()
        attach_secondary_index(table, "last")
        table.insert((1, "old", 0.0))
        table.update_fields(1, last="new")
        assert table.find_by("last", "old") == []
        assert [r[0] for r in table.find_by("last", "new")] == [1]

    def test_update_of_other_column_keeps_entry(self):
        table, _ = people_table()
        attach_secondary_index(table, "last")
        table.insert((1, "same", 0.0))
        table.update_fields(1, balance=99.0)
        assert [r[0] for r in table.find_by("last", "same")] == [1]

    def test_delete_removes_entry(self):
        table, _ = people_table()
        attach_secondary_index(table, "last")
        table.insert((1, "gone", 0.0))
        table.insert((2, "gone", 0.0))
        table.delete(1)
        assert [r[0] for r in table.find_by("last", "gone")] == [2]

    def test_double_attach_rejected(self):
        table, _ = people_table()
        attach_secondary_index(table, "last")
        with pytest.raises(ConfigurationError):
            attach_secondary_index(table, "last")

    def test_many_duplicates_and_commits(self):
        table, db = people_table()
        attach_secondary_index(table, "last")
        for i in range(300):
            table.insert((i, f"name{i % 7}", float(i)))
            if i % 50 == 0:
                db.commit()
        db.commit()
        for bucket in range(7):
            matches = table.find_by("last", f"name{bucket}")
            assert len(matches) == len([i for i in range(300) if i % 7 == bucket])

    def test_int_secondary_values(self):
        db = Database(MemoryBlockDevice(1024, 512), pool_capacity=16)
        table = db.create_table(
            "orders",
            Schema([
                Column("o_id", ColumnType.INT),
                Column("c_id", ColumnType.INT),
            ]),
            key="o_id",
        )
        attach_secondary_index(table, "c_id")
        for o in range(40):
            table.insert((o, o % 5))
        assert len(table.find_by("c_id", 3)) == 8

    def test_raw_index_remove_missing(self):
        db = Database(MemoryBlockDevice(1024, 256), pool_capacity=8)
        index = SecondaryIndex(db.pool, db.allocate_page)
        index.insert("x", 100)
        assert not index.remove("x", 999)
        assert index.remove("x", 100)
        assert index.lookup("x") == []


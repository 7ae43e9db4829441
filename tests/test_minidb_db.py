"""Tests for the Database/Table facade."""

from __future__ import annotations

import pytest

from repro.block import MemoryBlockDevice
from repro.common.errors import ConfigurationError, StorageError
from repro.minidb import Column, ColumnType, Database, Schema
from tests.test_engine_hotpath import CountingDevice


def make_db(blocks=512, counting=False):
    device = (CountingDevice if counting else MemoryBlockDevice)(1024, blocks)
    return Database(device, pool_capacity=16), device


def people_schema():
    return Schema([
        Column("id", ColumnType.INT),
        Column("name", ColumnType.CHAR, 20),
        Column("balance", ColumnType.FLOAT),
    ])


class TestDatabase:
    def test_create_and_lookup_table(self):
        db, _ = make_db()
        table = db.create_table("people", people_schema(), key="id")
        assert db.table("people") is table
        assert "people" in db.tables

    def test_duplicate_table_rejected(self):
        db, _ = make_db()
        db.create_table("t", people_schema(), key="id")
        with pytest.raises(ConfigurationError):
            db.create_table("t", people_schema(), key="id")

    def test_unknown_table(self):
        db, _ = make_db()
        with pytest.raises(ConfigurationError):
            db.table("missing")

    def test_page_allocator_monotonic(self):
        db, _ = make_db()
        first = db.allocate_page()
        second = db.allocate_page()
        assert second == first + 1

    def test_device_exhaustion(self):
        db, _ = make_db(blocks=4)
        for _ in range(4):
            db.allocate_page()
        with pytest.raises(StorageError):
            db.allocate_page()

    def test_commit_flushes_to_device(self):
        db, device = make_db(counting=True)
        table = db.create_table("people", people_schema(), key="id")
        table.insert((1, "ada", 10.0))
        before = device.writes
        assert db.commit() > 0
        assert device.writes > before

    def test_non_int_key_rejected(self):
        db, _ = make_db()
        with pytest.raises(ConfigurationError):
            db.create_table("bad", people_schema(), key="name")


class TestTableCrud:
    def _table(self):
        db, _ = make_db()
        return db.create_table("people", people_schema(), key="id"), db

    def test_insert_get(self):
        table, _ = self._table()
        table.insert((7, "grace", 1.5))
        assert table.get(7) == (7, "grace", 1.5)
        assert table.get(8) is None

    def test_duplicate_key_rejected_and_rolled_back(self):
        table, _ = self._table()
        table.insert((7, "grace", 1.5))
        with pytest.raises(StorageError):
            table.insert((7, "imposter", 0.0))
        assert table.get(7) == (7, "grace", 1.5)
        assert len(table) == 1  # heap insert was rolled back

    def test_update(self):
        table, _ = self._table()
        table.insert((1, "x", 0.0))
        table.update(1, (1, "x", 99.0))
        assert table.get(1)[2] == 99.0

    def test_update_cannot_change_key(self):
        table, _ = self._table()
        table.insert((1, "x", 0.0))
        with pytest.raises(StorageError):
            table.update(1, (2, "x", 0.0))

    def test_update_missing_key(self):
        table, _ = self._table()
        with pytest.raises(StorageError):
            table.update(404, (404, "x", 0.0))

    def test_update_fields(self):
        table, _ = self._table()
        table.insert((1, "ada", 1.0))
        new_row = table.update_fields(1, balance=2.5)
        assert new_row == (1, "ada", 2.5)
        assert table.get(1) == (1, "ada", 2.5)

    def test_delete(self):
        table, _ = self._table()
        table.insert((1, "a", 0.0))
        assert table.delete(1)
        assert table.get(1) is None
        assert not table.delete(1)

    def test_scan_and_range(self):
        table, _ = self._table()
        for i in range(20):
            table.insert((i, f"p{i}", float(i)))
        assert len(list(table.scan())) == 20
        assert [row[0] for row in table.range(5, 9)] == [5, 6, 7, 8, 9]

    def test_large_volume_with_commits(self):
        table, db = self._table()
        for i in range(2000):
            table.insert((i, f"p{i}", float(i)))
            if i % 100 == 0:
                db.commit()
        db.commit()
        for i in (0, 999, 1999):
            assert table.get(i) == (i, f"p{i}", float(i))

    def test_varchar_growth_moves_record_index_follows(self):
        db, _ = make_db()
        schema = Schema([
            Column("id", ColumnType.INT),
            Column("data", ColumnType.VARCHAR, 400),
        ])
        table = db.create_table("grow", schema, key="id")
        # fill one page with small rows
        for i in range(10):
            table.insert((i, "s"))
        table.update_fields(3, data="L" * 400)  # forces relocation
        assert table.get(3) == (3, "L" * 400)
        for i in range(10):
            if i != 3:
                assert table.get(i) == (i, "s")

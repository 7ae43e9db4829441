"""Tests for the mini filesystem and the tar archiver."""

from __future__ import annotations

import io
import tarfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import MemoryBlockDevice
from repro.common.errors import StorageError
from repro.fs import FileSystem, tar_paths

BS = 1024


def make_fs(blocks=1024, inodes=128):
    device = MemoryBlockDevice(BS, blocks)
    return FileSystem.format(device, inode_count=inodes), device


class TestFormatMount:
    def test_format_then_mount(self):
        fs, device = make_fs()
        remounted = FileSystem(device)
        assert remounted.listdir("/") == []

    def test_mount_garbage_rejected(self):
        with pytest.raises(StorageError):
            FileSystem(MemoryBlockDevice(BS, 64))

    def test_too_small_device(self):
        with pytest.raises(StorageError):
            FileSystem.format(MemoryBlockDevice(BS, 2), inode_count=1024)


class TestFiles:
    def test_write_read(self):
        fs, _ = make_fs()
        fs.write_file("a.txt", b"hello")
        assert fs.read_file("a.txt") == b"hello"

    def test_overwrite_shrink_and_grow(self):
        fs, _ = make_fs()
        fs.write_file("f", b"x" * 5000)
        fs.write_file("f", b"y" * 10)
        assert fs.read_file("f") == b"y" * 10
        fs.write_file("f", b"z" * 9000)
        assert fs.read_file("f") == b"z" * 9000

    def test_empty_file(self):
        fs, _ = make_fs()
        fs.write_file("empty", b"")
        assert fs.read_file("empty") == b""
        assert fs.stat("empty").size == 0

    def test_file_spanning_indirect_blocks(self):
        fs, _ = make_fs(blocks=512)
        big = bytes(range(256)) * 80  # 20 KiB > 12 direct KiB blocks
        fs.write_file("big", big)
        assert fs.read_file("big") == big

    def test_missing_file(self):
        fs, _ = make_fs()
        with pytest.raises(StorageError):
            fs.read_file("nope")

    def test_unlink_frees_space(self):
        fs, _ = make_fs(blocks=64)
        fs.write_file("a", b"q" * 20000)
        fs.unlink("a")
        assert not fs.exists("a")
        fs.write_file("b", b"r" * 20000)  # would fail if blocks leaked
        assert fs.read_file("b") == b"r" * 20000

    def test_unlink_directory_rejected(self):
        fs, _ = make_fs()
        fs.mkdir("d")
        with pytest.raises(StorageError):
            fs.unlink("d")

    def test_out_of_inodes(self):
        fs, _ = make_fs(inodes=3)  # root + 2
        fs.write_file("a", b"1")
        fs.write_file("b", b"2")
        with pytest.raises(StorageError):
            fs.write_file("c", b"3")


class TestDirectories:
    def test_mkdir_listdir(self):
        fs, _ = make_fs()
        fs.mkdir("docs")
        fs.write_file("docs/one", b"1")
        assert fs.listdir("docs") == ["one"]
        assert fs.listdir("/") == ["docs"]

    def test_makedirs(self):
        fs, _ = make_fs()
        fs.makedirs("a/b/c")
        assert fs.stat("a/b/c").is_dir
        fs.makedirs("a/b/c")  # idempotent

    def test_mkdir_existing_rejected(self):
        fs, _ = make_fs()
        fs.mkdir("d")
        with pytest.raises(StorageError):
            fs.mkdir("d")

    def test_mkdir_missing_parent(self):
        fs, _ = make_fs()
        with pytest.raises(StorageError):
            fs.mkdir("no/such/parent")

    def test_walk(self):
        fs, _ = make_fs()
        fs.makedirs("x/y")
        fs.write_file("x/a", b"")
        fs.write_file("x/y/b", b"")
        fs.write_file("top", b"")
        assert fs.walk("/") == ["top", "x/a", "x/y/b"]
        assert fs.walk("x") == ["x/a", "x/y/b"]

    def test_stat(self):
        fs, _ = make_fs()
        fs.write_file("f", b"12345")
        stat = fs.stat("f")
        assert stat.is_file and not stat.is_dir
        assert stat.size == 5

    def test_many_entries_in_directory(self):
        fs, _ = make_fs(inodes=300)
        fs.mkdir("d")
        for i in range(200):
            fs.write_file(f"d/file{i:03d}", bytes([i % 250]))
        assert len(fs.listdir("d")) == 200
        assert fs.read_file("d/file123") == bytes([123])


class TestMetadataWriteLocality:
    def test_partial_rewrite_touches_fewer_blocks(self):
        """Rewriting a file with identical content produces identical
        blocks — the property that makes PRINS shine on re-tars."""
        fs, device = make_fs()
        payload = b"stable content " * 500
        fs.write_file("f", payload)
        image_before = device.snapshot()
        fs.write_file("f", payload)  # identical rewrite
        assert device.snapshot() == image_before


class TestTar:
    def _populated(self):
        fs, _ = make_fs()
        fs.makedirs("d1")
        fs.makedirs("d2")
        fs.write_file("d1/a.txt", b"alpha " * 100)
        fs.write_file("d1/b.txt", b"beta " * 321)
        fs.write_file("d2/c.bin", bytes(range(256)) * 5)
        return fs

    def test_archive_readable_by_stdlib(self):
        fs = self._populated()
        tar_paths(fs, ["d1", "d2"], "out.tar")
        archive = tarfile.open(fileobj=io.BytesIO(fs.read_file("out.tar")))
        assert set(archive.getnames()) == {
            "d1", "d2", "d1/a.txt", "d1/b.txt", "d2/c.bin",
        }
        assert archive.extractfile("d1/b.txt").read() == b"beta " * 321

    def test_single_file_archive(self):
        fs = self._populated()
        tar_paths(fs, ["d1/a.txt"], "one.tar")
        archive = tarfile.open(fileobj=io.BytesIO(fs.read_file("one.tar")))
        assert archive.getnames() == ["d1/a.txt"]

    def test_deterministic(self):
        fs = self._populated()
        size1 = tar_paths(fs, ["d1"], "t1.tar")
        size2 = tar_paths(fs, ["d1"], "t2.tar")
        assert size1 == size2
        assert fs.read_file("t1.tar") == fs.read_file("t2.tar")

    def test_size_is_512_aligned(self):
        fs = self._populated()
        size = tar_paths(fs, ["d1"], "t.tar")
        assert size % 512 == 0


class TestFsProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        files=st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6),
            st.binary(max_size=3000),
            max_size=8,
        )
    )
    def test_write_read_many(self, files):
        fs, _ = make_fs()
        for name, data in files.items():
            fs.write_file(name, data)
        for name, data in files.items():
            assert fs.read_file(name) == data
        assert sorted(fs.listdir("/")) == sorted(files)

"""Unit tests for deterministic fault injection."""

import os

import pytest

from repro.errors import InjectedCrashError, StorageError
from repro.storage import FaultInjector, FaultyPageFile, ObjectStoreSM
from repro.storage.disk import PageFile
from repro.storage.faultinject import TORN_WRITE_BYTES
from repro.storage.page import PAGE_SIZE, PAGE_TRAILER_BYTES


def _image(fill: bytes) -> bytes:
    body = fill * ((PAGE_SIZE - PAGE_TRAILER_BYTES) // len(fill))
    return body + b"\0" * (PAGE_SIZE - len(body))


def test_counting_mode_never_crashes():
    injector = FaultInjector()  # crash_after_writes=None
    disk = FaultyPageFile(None, injector)
    for page_id in range(5):
        disk.write_page(page_id, _image(b"a"))
    disk.write_meta({"ok": True})
    assert injector.writes_seen == 6  # page and meta writes both count
    assert not injector.dead


def test_crash_at_write_point_zero_loses_the_write():
    injector = FaultInjector(crash_after_writes=0)
    disk = FaultyPageFile(None, injector)
    with pytest.raises(InjectedCrashError):
        disk.write_page(0, _image(b"a"))
    assert injector.dead


def test_crash_after_n_writes_is_deterministic():
    injector = FaultInjector(crash_after_writes=3)
    disk = FaultyPageFile(None, injector)
    for page_id in range(3):
        disk.write_page(page_id, _image(b"a"))
    with pytest.raises(InjectedCrashError):
        disk.write_page(3, _image(b"b"))
    # page 3 never landed
    assert disk.page_count == 3


def test_dead_store_refuses_all_io():
    injector = FaultInjector(crash_after_writes=1)
    disk = FaultyPageFile(None, injector)
    disk.write_page(0, _image(b"a"))
    with pytest.raises(InjectedCrashError):
        disk.write_page(1, _image(b"b"))
    with pytest.raises(InjectedCrashError):
        disk.read_page(0)
    with pytest.raises(InjectedCrashError):
        disk.read_meta()
    with pytest.raises(InjectedCrashError):
        disk.write_meta({})


def test_torn_write_leaves_detectable_half_image(tmp_path):
    path = os.path.join(tmp_path, "torn.db")
    injector = FaultInjector(crash_after_writes=1, torn_write=True)
    disk = FaultyPageFile(path, injector)
    disk.write_page(0, _image(b"a"))
    with pytest.raises(InjectedCrashError):
        disk.write_page(0, _image(b"b"))  # overwrite tears
    disk.close()
    # the reopened plain store must refuse the torn page, loudly
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="torn|trailer"):
        reopened.read_page(0)
    # and the front half really is the new image, the back half the old
    with open(path, "rb") as handle:
        raw = handle.read(PAGE_SIZE)
    assert raw[:TORN_WRITE_BYTES].startswith(b"b")
    assert raw[TORN_WRITE_BYTES:TORN_WRITE_BYTES + 1] == b"a"
    reopened.close()


def test_torn_write_on_fresh_page_has_no_trailer(tmp_path):
    path = os.path.join(tmp_path, "fresh.db")
    injector = FaultInjector(crash_after_writes=0, torn_write=True)
    disk = FaultyPageFile(path, injector)
    with pytest.raises(InjectedCrashError):
        disk.write_page(0, _image(b"a"))
    disk.close()
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="trailer"):
        reopened.read_page(0)
    reopened.close()


def test_meta_crash_keeps_old_blob(tmp_path):
    path = os.path.join(tmp_path, "meta.db")
    injector = FaultInjector(crash_after_writes=1)
    disk = FaultyPageFile(path, injector)
    disk.write_meta({"v": 1})
    with pytest.raises(InjectedCrashError):
        disk.write_meta({"v": 2})
    disk.close()
    reopened = PageFile(path)
    assert reopened.read_meta() == {"v": 1}
    reopened.close()


@pytest.mark.parametrize("torn", [False, True], ids=["lost", "torn"])
def test_meta_append_crash_keeps_earlier_frames(tmp_path, torn):
    """A metadata append is a write point that can be lost or torn
    mid-frame; either way the frames before it are what reopens."""
    path = os.path.join(tmp_path, "meta.db")
    injector = FaultInjector(crash_after_writes=2, torn_write=torn)
    disk = FaultyPageFile(path, injector)
    disk.write_meta({"v": 1})
    disk.write_meta({"epoch": 2}, append=True)
    valid = disk.meta_size_bytes
    with pytest.raises(InjectedCrashError):
        disk.write_meta({"epoch": 3, "pad": "x" * 100}, append=True)
    disk.close()
    size = os.path.getsize(path + ".meta")
    assert (size > valid) if torn else (size == valid)  # half a frame landed
    reopened = PageFile(path)
    assert reopened.read_meta() == {"v": 1}
    assert reopened.read_meta_frames() == [{"epoch": 2}]
    assert reopened.meta_size_bytes == valid
    reopened.close()


@pytest.mark.parametrize("torn", [False, True], ids=["lost", "torn"])
def test_meta_compaction_crash_publishes_nothing(tmp_path, torn):
    path = os.path.join(tmp_path, "meta.db")
    injector = FaultInjector(crash_after_writes=2, torn_write=torn)
    disk = FaultyPageFile(path, injector)
    disk.write_meta({"v": 1})
    disk.write_meta({"epoch": 2}, append=True)
    before = open(path + ".meta", "rb").read()
    with pytest.raises(InjectedCrashError):
        disk.write_meta({"v": 2, "pad": "x" * 100})  # the new base
    disk.close()
    assert open(path + ".meta", "rb").read() == before
    assert os.path.exists(path + ".meta.tmp") == torn  # half a temp file
    reopened = PageFile(path)
    assert not os.path.exists(path + ".meta.tmp")
    assert reopened.read_meta() == {"v": 1}
    assert reopened.read_meta_frames() == [{"epoch": 2}]
    reopened.close()


def test_manager_accepts_injector(tmp_path):
    path = os.path.join(tmp_path, "sm.db")
    injector = FaultInjector()
    sm = ObjectStoreSM(path=path, checkpoint_every=1, fault_injector=injector)
    oid = sm.allocate_write({"x": 1})
    sm.commit()
    assert injector.writes_seen > 0
    sm.close()
    reopened = ObjectStoreSM(path=path)
    assert reopened.read(oid) == {"x": 1}
    reopened.verify().raise_if_bad()
    reopened.close()


def test_manager_crash_mid_commit_is_loud(tmp_path):
    path = os.path.join(tmp_path, "crash.db")
    injector = FaultInjector(crash_after_writes=0)
    sm = ObjectStoreSM(path=path, checkpoint_every=1, fault_injector=injector)
    sm.allocate_write({"x": 1})
    with pytest.raises(InjectedCrashError):
        sm.commit()

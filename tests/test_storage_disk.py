"""Unit tests for the page file and metadata side file."""

import os

import pytest

from repro.errors import StorageError
from repro.storage.disk import PageFile
from repro.storage.page import PAGE_SIZE, PAGE_TRAILER_BYTES


def _image(fill: bytes) -> bytes:
    """A page image with the trailer reserve left zero, like real pages."""
    body = fill * ((PAGE_SIZE - PAGE_TRAILER_BYTES) // len(fill))
    return body + b"\0" * (PAGE_SIZE - len(body))


def test_memory_mode_round_trip():
    disk = PageFile(None)
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    assert disk.read_page(0) == _image(b"a")
    assert disk.page_count == 2
    assert disk.size_bytes == 2 * PAGE_SIZE


def test_file_mode_round_trip(tmp_path):
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_page(0, _image(b"x"))
    disk.write_page(3, _image(b"y"))  # sparse write extends the file
    disk.sync()
    assert disk.read_page(3) == _image(b"y")
    assert disk.page_count == 4
    disk.close()
    assert os.path.getsize(path) == 4 * PAGE_SIZE

    reopened = PageFile(path)
    assert reopened.page_count == 4
    assert reopened.read_page(0) == _image(b"x")
    reopened.close()


def test_wrong_size_image_rejected():
    disk = PageFile(None)
    with pytest.raises(StorageError, match="exactly"):
        disk.write_page(0, b"short")


def test_read_beyond_end_rejected():
    disk = PageFile(None)
    with pytest.raises(StorageError, match="beyond"):
        disk.read_page(0)


def test_read_unwritten_hole_rejected_in_memory_mode():
    disk = PageFile(None)
    disk.write_page(2, _image(b"z"))
    with pytest.raises(StorageError, match="never written"):
        disk.read_page(0)


def test_read_unwritten_hole_rejected_in_file_mode(tmp_path):
    """Regression: a past-the-end write used to leave hole pages that
    failed with a 'short read' (or decoded as garbage) instead of the
    memory backend's 'never written'.  Both backends must now raise the
    same StorageError, and the gap must be explicitly zero-filled."""
    path = os.path.join(tmp_path, "holes.db")
    disk = PageFile(path)
    disk.write_page(3, _image(b"z"))
    disk.sync()
    assert os.path.getsize(path) == 4 * PAGE_SIZE
    for hole in (0, 1, 2):
        with pytest.raises(StorageError, match="never written"):
            disk.read_page(hole)
    assert disk.read_page(3) == _image(b"z")
    disk.close()
    # holes survive reopen with the same behaviour
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="never written"):
        reopened.read_page(1)
    reopened.close()


def test_hole_page_can_be_filled_later(tmp_path):
    path = os.path.join(tmp_path, "holes.db")
    disk = PageFile(path)
    disk.write_page(2, _image(b"c"))
    disk.write_page(0, _image(b"a"))  # backfill a hole
    assert disk.read_page(0) == _image(b"a")
    with pytest.raises(StorageError, match="never written"):
        disk.read_page(1)
    disk.close()


def test_corrupt_file_size_rejected(tmp_path):
    path = os.path.join(tmp_path, "bad.db")
    with open(path, "wb") as handle:
        handle.write(b"x" * (PAGE_SIZE + 1))
    with pytest.raises(StorageError, match="multiple"):
        PageFile(path)


def test_meta_round_trip_memory():
    disk = PageFile(None)
    assert disk.read_meta() is None
    size = disk.write_meta({"roots": {"a": 1}})
    assert size > 0
    assert disk.read_meta() == {"roots": {"a": 1}}
    assert disk.meta_size_bytes == size


def test_meta_round_trip_file(tmp_path):
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"k": [1, 2, 3]})
    disk.close()
    reopened = PageFile(path)
    assert reopened.read_meta() == {"k": [1, 2, 3]}
    reopened.close()
    assert os.path.exists(path + ".meta")


def test_meta_write_is_atomic(tmp_path):
    """A rewrite never leaves a temp file behind, and the blob on disk is
    always complete (written via tmp + fsync + rename)."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"v": 1})
    disk.write_meta({"v": 2, "pad": "x" * 10_000})
    disk.close()
    assert not os.path.exists(path + ".meta.tmp")
    reopened = PageFile(path)
    assert reopened.read_meta() == {"v": 2, "pad": "x" * 10_000}
    reopened.close()


def test_truncated_meta_fails_loudly_not_as_fresh_store(tmp_path):
    """Regression: a crash mid-meta-write used to leave a truncated blob
    whose unpickling error escaped as a raw pickle exception.  A damaged
    blob must raise StorageError (and never read as 'no metadata')."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"roots": {"a": 1}})
    disk.close()
    with open(path + ".meta", "r+b") as handle:  # tear the blob in half
        blob = handle.read()
        handle.truncate(len(blob) // 2)
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="corrupt metadata"):
        reopened.read_meta()
    reopened.close()


def test_interrupted_meta_rewrite_keeps_old_blob(tmp_path):
    """A stale .meta.tmp (crash before rename) must not shadow or damage
    the committed blob."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"committed": True})
    with open(path + ".meta.tmp", "wb") as handle:
        handle.write(b"\x80\x04partial")  # torn half-written temp file
    assert disk.read_meta() == {"committed": True}
    disk.close()


# -- the commit-epoch trailer ------------------------------------------------


def test_nonzero_trailer_reserve_rejected():
    disk = PageFile(None)
    with pytest.raises(StorageError, match="reserved"):
        disk.write_page(0, b"a" * PAGE_SIZE)


def test_pages_are_stamped_with_the_current_epoch():
    disk = PageFile(None)
    disk.write_page(0, _image(b"a"))
    disk.epoch = 7
    disk.write_page(3, _image(b"b"))
    assert disk.read_page_epoch(0) == 1
    assert disk.read_page_epoch(3) == 7
    assert disk.read_page_epoch(1) is None  # hole


def test_torn_page_detected_by_checksum(tmp_path):
    """Flipping bytes in a stored page (half a write landing) must raise
    on read and show up in the epoch scan — never decode as data."""
    path = os.path.join(tmp_path, "torn.db")
    disk = PageFile(path)
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    disk.close()
    with open(path, "r+b") as handle:
        handle.seek(100)
        handle.write(b"CORRUPT")
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="torn"):
        reopened.read_page(0)
    assert reopened.read_page(1) == _image(b"b")  # neighbour unharmed
    issues = reopened.epoch_issues(max_epoch=10)
    assert len(issues) == 1 and "torn" in issues[0]
    reopened.close()


def test_epoch_issues_flags_future_pages():
    disk = PageFile(None)
    disk.write_page(0, _image(b"a"))
    disk.epoch = 5
    disk.write_page(1, _image(b"b"))
    assert disk.epoch_issues(5) == []
    issues = disk.epoch_issues(4)
    assert len(issues) == 1 and "epoch 5" in issues[0]


def test_clear_page_makes_a_hole(tmp_path):
    path = os.path.join(tmp_path, "clear.db")
    disk = PageFile(path)
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    disk.clear_page(0)
    with pytest.raises(StorageError, match="never written"):
        disk.read_page(0)
    assert disk.read_page_epoch(0) is None
    assert disk.read_page(1) == _image(b"b")
    assert disk.page_count == 2  # clearing never shrinks the file
    disk.close()


# -- vectored page I/O --------------------------------------------------------


@pytest.mark.parametrize("path_of", [lambda tmp: None,
                                     lambda tmp: os.path.join(tmp, "v.db")],
                         ids=["memory", "file"])
def test_read_pages_round_trip(tmp_path, path_of):
    disk = PageFile(path_of(tmp_path))
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    disk.write_page(2, _image(b"c"))
    assert disk.read_pages(0, 3) == [_image(b"a"), _image(b"b"), _image(b"c")]
    assert disk.read_pages(1, 1) == [_image(b"b")]
    assert disk.read_pages(2, 0) == []
    disk.close()


@pytest.mark.parametrize("path_of", [lambda tmp: None,
                                     lambda tmp: os.path.join(tmp, "v.db")],
                         ids=["memory", "file"])
def test_read_pages_returns_none_for_holes(tmp_path, path_of):
    """Unlike read_page, a hole inside a speculative batch is data the
    caller skips, not an error."""
    disk = PageFile(path_of(tmp_path))
    disk.write_page(0, _image(b"a"))
    disk.write_page(2, _image(b"c"))  # leaves page 1 a hole
    assert disk.read_pages(0, 3) == [_image(b"a"), None, _image(b"c")]
    disk.close()


def test_read_pages_beyond_end_rejected():
    disk = PageFile(None)
    disk.write_page(0, _image(b"a"))
    with pytest.raises(StorageError, match="beyond"):
        disk.read_pages(0, 2)
    with pytest.raises(StorageError, match="negative"):
        disk.read_pages(0, -1)


def test_read_pages_torn_page_still_raises(tmp_path):
    path = os.path.join(tmp_path, "torn.db")
    disk = PageFile(path)
    disk.write_page(0, _image(b"a"))
    disk.write_page(1, _image(b"b"))
    disk.close()
    with open(path, "r+b") as handle:
        handle.seek(PAGE_SIZE + 100)
        handle.write(b"CORRUPT")
    reopened = PageFile(path)
    with pytest.raises(StorageError, match="torn"):
        reopened.read_pages(0, 2)
    reopened.close()


def test_write_pages_matches_per_page_writes(tmp_path):
    """The vectored write must leave bit-identical files to per-page
    writes — same stamps, same zero-filled gaps, same page count."""
    batched_path = os.path.join(tmp_path, "batched.db")
    single_path = os.path.join(tmp_path, "single.db")
    images = [_image(b"a"), _image(b"b"), _image(b"c")]

    batched = PageFile(batched_path)
    batched.epoch = 3
    batched.write_pages(2, images)  # past-the-end start: zero-fills 0..1
    assert batched.page_count == 5
    batched.close()

    single = PageFile(single_path)
    single.epoch = 3
    for offset, image in enumerate(images):
        single.write_page(2 + offset, image)
    single.close()

    with open(batched_path, "rb") as a, open(single_path, "rb") as b:
        assert a.read() == b.read()


def test_write_pages_empty_is_a_noop():
    disk = PageFile(None)
    disk.write_pages(0, [])
    assert disk.page_count == 0


def test_write_pages_validates_every_image():
    disk = PageFile(None)
    with pytest.raises(StorageError, match="exactly"):
        disk.write_pages(0, [_image(b"a"), b"short"])
    # validation happens before any write lands
    assert disk.page_count == 0


# -- metadata delta frames ------------------------------------------------------


@pytest.mark.parametrize("in_memory", [False, True], ids=["file", "memory"])
def test_meta_frames_round_trip(tmp_path, in_memory):
    """``base ‖ frame*``: read_meta yields the base, read_meta_frames the
    appended deltas in order, and meta_size_bytes is every byte of both."""
    path = None if in_memory else os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    base = disk.write_meta({"v": 1})
    first = disk.write_meta({"epoch": 2, "d": {7: (0, 1)}}, append=True)
    second = disk.write_meta({"epoch": 3}, append=True)
    assert disk.meta_size_bytes == base + first + second
    assert disk.meta_frame_bytes == first + second
    if not in_memory:
        assert os.path.getsize(path + ".meta") == disk.meta_size_bytes
        disk.close()
        disk = PageFile(path)
        assert disk.meta_size_bytes == 0  # nothing read or written yet
    assert disk.read_meta() == {"v": 1}
    assert disk.meta_size_bytes == base + first + second
    assert disk.read_meta_frames() == [{"epoch": 2, "d": {7: (0, 1)}}, {"epoch": 3}]
    assert disk.read_meta_frames() == []  # handed over once
    # a new base folds the frames away
    assert disk.write_meta({"v": 2}) == disk.meta_size_bytes
    assert disk.meta_frame_bytes == 0
    assert disk.read_meta() == {"v": 2} and disk.read_meta_frames() == []
    disk.close()


def test_meta_append_needs_a_base(tmp_path):
    disk = PageFile(os.path.join(tmp_path, "pages.db"))
    assert disk.meta_wants_base
    with pytest.raises(StorageError, match="before any base"):
        disk.write_meta({"epoch": 1}, append=True)
    disk.close()


def test_meta_wants_base_once_frames_outgrow_a_quarter():
    disk = PageFile(None)
    base = disk.write_meta({"pad": "x" * 400})
    assert not disk.meta_wants_base
    while disk.meta_frame_bytes * 4 <= base:
        assert not disk.meta_wants_base
        disk.write_meta({"epoch": 1, "pad": "y" * 20}, append=True)
    assert disk.meta_wants_base
    disk.write_meta({"pad": "x" * 400})
    assert not disk.meta_wants_base


@pytest.mark.parametrize("cut", ["header", "payload", "crc"])
def test_torn_meta_tail_is_ignored_then_cut_off(tmp_path, cut):
    """A short or CRC-bad last frame means the checkpoint before it
    survived; the next append lands over the torn bytes, not after."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"v": 1})
    disk.write_meta({"epoch": 2}, append=True)
    good = disk.meta_size_bytes
    disk.write_meta({"epoch": 3, "pad": "z" * 64}, append=True)
    whole = disk.meta_size_bytes
    disk.close()
    with open(path + ".meta", "r+b") as handle:
        if cut == "header":
            handle.truncate(good + 5)
        elif cut == "payload":
            handle.truncate(whole - 10)
        else:
            handle.seek(whole - 1)
            handle.write(b"\xff")
    reopened = PageFile(path)
    assert reopened.read_meta() == {"v": 1}
    assert reopened.read_meta_frames() == [{"epoch": 2}]
    assert reopened.meta_size_bytes == good
    reopened.write_meta({"epoch": 3, "again": True}, append=True)
    assert os.path.getsize(path + ".meta") == reopened.meta_size_bytes
    reopened.close()
    final = PageFile(path)
    assert final.read_meta() == {"v": 1}
    assert final.read_meta_frames() == [{"epoch": 2}, {"epoch": 3, "again": True}]
    final.close()


def test_append_after_a_base_rewrite_lands_in_the_new_file(tmp_path):
    """The rename that publishes a new base swaps the inode under the
    name: the next frame must follow the new base, not trail the
    unlinked file an earlier append went to."""
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"v": 1})
    disk.write_meta({"epoch": 2}, append=True)
    disk.write_meta({"v": 2, "pad": "x" * 500})  # compaction: a new file
    disk.write_meta({"epoch": 4}, append=True)
    disk.write_meta({"epoch": 5}, append=True)
    assert os.path.getsize(path + ".meta") == disk.meta_size_bytes
    # abandoned, not closed: whoever finds the files replays the frames
    reopened = PageFile(path)
    assert reopened.read_meta() == {"v": 2, "pad": "x" * 500}
    assert reopened.read_meta_frames() == [{"epoch": 4}, {"epoch": 5}]
    reopened.close()
    disk.close()


def test_stale_meta_tmp_is_removed_at_open(tmp_path):
    path = os.path.join(tmp_path, "pages.db")
    disk = PageFile(path)
    disk.write_meta({"committed": True})
    disk.close()
    with open(path + ".meta.tmp", "wb") as handle:
        handle.write(b"\x80\x04partial")  # compaction died before rename
    reopened = PageFile(path)
    assert not os.path.exists(path + ".meta.tmp")
    assert reopened.read_meta() == {"committed": True}
    reopened.close()

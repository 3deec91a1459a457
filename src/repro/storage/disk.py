"""The simulated disk: a page file plus a metadata side file.

``PageFile`` stores fixed-size pages at ``page_id * PAGE_SIZE`` offsets in
a single file, exactly like the 1996 stores' database files, so the
paper's ``size (bytes)`` column is simply the file's allocated length.
When constructed without a path it keeps pages in a dict — used by tests
and by benchmark configurations that only care about fault counts, not
real I/O latency.

Metadata (object directory, segment table, roots, allocator high-water
mark) is persisted at each checkpoint in a ``.meta`` side file laid out
as ``base pickle ‖ delta frame*``: a checkpoint normally appends one
small frame holding what changed, and the whole state is re-pickled as a
fresh base only when the frames outgrow a quarter of it (and at clean
close, so a closed file is the bare pickle).  Real persistent stores
keep this mapping in swizzled virtual addresses (Texas) or internal
B-trees (ObjectStore); modelling it as a side file keeps both simulated
managers identical in this respect while still counting the bytes
toward database size.

Crash consistency
-----------------

Two mechanisms make a crash detectable instead of silently corrupting:

* A metadata base is written atomically (temp file + fsync + rename),
  so a crash mid-write leaves either the old file or the new one; a
  delta frame is length-prefixed and CRC-32-checked, so a crash
  mid-append leaves a tail that reopen recognises and ignores — the
  previous checkpoint survives either way.
* Every page image carries a 16-byte trailer in its zero-padding:
  a magic marker, the **commit epoch** current when the page was
  written, and a CRC-32 of the page body.  The storage manager stamps
  the same epoch into the metadata at each checkpoint, so on
  reopen a page "from the future" (flushed by a commit the checkpoint
  never heard of) or a torn page (checksum mismatch, e.g. half a write)
  is detected — see ``repro.storage.integrity``.

The trailer is disk-level bookkeeping: callers write images whose last
``PAGE_TRAILER_BYTES`` are zero (``Page.to_bytes`` guarantees this) and
read back exactly what they wrote, trailer bytes zeroed again.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib

from repro.errors import StorageError
from repro.storage.page import PAGE_SIZE, PAGE_TRAILER_BYTES

#: A hole page: the image a never-written page reads back as in file mode.
_ZERO_PAGE = b"\0" * PAGE_SIZE

#: Trailer layout: 4-byte magic, then packed (epoch: u64, crc32: u32).
PAGE_TRAILER_MAGIC = b"LBF1"
_EPOCH_CRC = struct.Struct("<QI")

_BODY_BYTES = PAGE_SIZE - PAGE_TRAILER_BYTES

#: Delta-frame header in the ``.meta`` file: payload length, then the
#: CRC-32 of the payload (a pickled dict).
_META_FRAME = struct.Struct("<II")

#: Frames may grow to this fraction (1/N) of the base before the next
#: checkpoint rewrites the base.  A constant, not a knob: it caps the
#: side file at 1.25x its compacted size, and the base bytes compaction
#: rewrites at N per byte of frame, whatever the database size.
META_COMPACT_DIVISOR = 4


class PageFile:
    """Page-granular storage backed by a real file or by memory."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._mem: dict[int, bytes] = {}
        self._page_count = 0
        self._file = None
        #: Commit epoch stamped into the trailer of every page written.
        #: The storage manager advances it at each metadata checkpoint.
        self.epoch = 1
        #: Memory-mode twin of the ``.meta`` file (None: never written).
        self._mem_meta: bytearray | None = None
        #: Bytes of the metadata base and of the valid frames after it, as
        #: last read or written by this handle; anything in the file
        #: beyond their sum is a torn tail.
        self._meta_base = 0
        self._meta_frames = 0
        self._frames_read: list[dict] = []
        #: File mode: the handle frames are appended through, opened by
        #: the first append after a base is read or written and kept —
        #: a checkpoint then costs a write and an fsync, not an open.
        self._meta_file: io.BufferedRandom | None = None
        #: The file may hold bytes past the last valid frame (:meth:`read_meta`
        #: found some, or an append did not finish): the next append cuts
        #: them off before it lands.
        self._meta_torn = False
        if path is not None:
            # A compaction that died before its rename publishes nothing.
            if os.path.exists(path + ".meta.tmp"):
                os.remove(path + ".meta.tmp")
            # "x+b" would refuse reopening; support both create and reopen.
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._file = open(path, mode)
            size = os.path.getsize(path)
            if size % PAGE_SIZE:
                raise StorageError(
                    f"{path}: size {size} is not a multiple of the page size"
                )
            self._page_count = size // PAGE_SIZE

    @property
    def page_count(self) -> int:
        return self._page_count

    @property
    def size_bytes(self) -> int:
        return self._page_count * PAGE_SIZE

    # -- trailer plumbing -----------------------------------------------------

    def _stamp(self, image: bytes) -> bytes:
        """Install the commit-epoch trailer in the image's reserve bytes."""
        body = image[:_BODY_BYTES]
        return body + PAGE_TRAILER_MAGIC + _EPOCH_CRC.pack(
            self.epoch, zlib.crc32(body)
        )

    @staticmethod
    def _check_image(page_id: int, raw: bytes) -> tuple[bytes, int]:
        """Validate a stamped image; returns (caller image, epoch).

        Raises :class:`StorageError` for a missing trailer or a checksum
        mismatch — the signatures of a torn or interrupted write.
        """
        body, trailer = raw[:_BODY_BYTES], raw[_BODY_BYTES:]
        if trailer[:4] != PAGE_TRAILER_MAGIC:
            raise StorageError(
                f"page {page_id} has no valid trailer (torn or corrupt write)"
            )
        epoch, crc = _EPOCH_CRC.unpack(trailer[4:])
        if zlib.crc32(body) != crc:
            raise StorageError(f"page {page_id} is torn (checksum mismatch)")
        return body + b"\0" * PAGE_TRAILER_BYTES, epoch

    def _raw_image(self, page_id: int) -> bytes | None:
        """The stamped on-disk image, or None for a never-written hole."""
        if page_id >= self._page_count:
            raise StorageError(f"page {page_id} beyond end of store")
        if self._file is None:
            return self._mem.get(page_id)
        self._file.seek(page_id * PAGE_SIZE)
        raw = self._file.read(PAGE_SIZE)
        if len(raw) != PAGE_SIZE:
            raise StorageError(f"short read on page {page_id}")
        if raw == _ZERO_PAGE:
            return None
        return raw

    def _put_image(self, page_id: int, stamped: bytes) -> None:
        """Backend write of a full stamped image (no validation)."""
        if self._file is None:
            self._mem[page_id] = stamped
        else:
            if page_id > self._page_count:
                # Writing past the end: zero-fill the gap explicitly so
                # hole pages are well-defined on every filesystem.
                self._file.seek(self._page_count * PAGE_SIZE)
                self._file.write(
                    b"\0" * ((page_id - self._page_count) * PAGE_SIZE)
                )
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(stamped)
        if page_id >= self._page_count:
            self._page_count = page_id + 1

    # -- page I/O -------------------------------------------------------------

    def read_page(self, page_id: int) -> bytes:
        """Read one page image; raises if the page was never written.

        Both backends raise the same ``StorageError`` for a hole page:
        in file mode a never-written page in the zero-filled gap left by
        a past-the-end write reads back as all zeroes, which no stamped
        page image can be.  A page that fails trailer validation (torn
        write) also raises rather than returning garbage.
        """
        raw = self._raw_image(page_id)
        if raw is None:
            raise StorageError(f"page {page_id} was never written")
        image, _epoch = self._check_image(page_id, raw)
        return image

    def read_page_epoch(self, page_id: int) -> int | None:
        """The commit epoch a page was written at, or None for a hole.

        Raises :class:`StorageError` when the page is torn.
        """
        raw = self._raw_image(page_id)
        if raw is None:
            return None
        _image, epoch = self._check_image(page_id, raw)
        return epoch

    def read_pages(self, start_page_id: int, count: int) -> list[bytes | None]:
        """Vectored read: ``count`` contiguous pages in one backend transfer.

        Unlike :meth:`read_page`, hole (never-written) pages come back as
        ``None`` rather than raising — a speculative read-ahead batch may
        legitimately cross a hole, and the caller skips it.  A torn page
        (trailer or checksum failure) still raises, and so does a range
        reaching beyond the end of the store; read-ahead callers clamp
        the range and treat the error as "abandon the batch".
        """
        if count < 0:
            raise StorageError(f"negative page count {count}")
        if start_page_id < 0 or start_page_id + count > self._page_count:
            raise StorageError(
                f"pages [{start_page_id}, {start_page_id + count}) reach "
                "beyond end of store"
            )
        if self._file is None:
            raws = [
                self._mem.get(page_id)
                for page_id in range(start_page_id, start_page_id + count)
            ]
        else:
            self._file.seek(start_page_id * PAGE_SIZE)
            blob = self._file.read(count * PAGE_SIZE)
            if len(blob) != count * PAGE_SIZE:
                raise StorageError(
                    f"short read on pages [{start_page_id}, "
                    f"{start_page_id + count})"
                )
            raws = [
                None if raw == _ZERO_PAGE else raw
                for raw in (
                    blob[i * PAGE_SIZE:(i + 1) * PAGE_SIZE] for i in range(count)
                )
            ]
        images: list[bytes | None] = []
        for offset, raw in enumerate(raws):
            if raw is None:
                images.append(None)
            else:
                image, _epoch = self._check_image(start_page_id + offset, raw)
                images.append(image)
        return images

    def _require_writable_image(self, page_id: int, image: bytes) -> None:
        if len(image) != PAGE_SIZE:
            raise StorageError(
                f"page image must be exactly {PAGE_SIZE} bytes, got {len(image)}"
            )
        if image[_BODY_BYTES:] != b"\0" * PAGE_TRAILER_BYTES:
            raise StorageError(
                f"page {page_id}: the last {PAGE_TRAILER_BYTES} bytes are "
                "reserved for the commit-epoch trailer and must be zero"
            )

    def write_page(self, page_id: int, image: bytes) -> None:
        self._require_writable_image(page_id, image)
        self._put_image(page_id, self._stamp(image))

    def write_pages(self, start_page_id: int, images: list[bytes]) -> None:
        """Vectored write: contiguous page images in one backend transfer.

        Byte-for-byte equivalent to calling :meth:`write_page` once per
        image in ascending page-id order — same stamps, same trailer,
        same resulting file — so commit batching cannot change what ends
        up on disk, only how many transfers carry it there.
        """
        if not images:
            return
        for offset, image in enumerate(images):
            self._require_writable_image(start_page_id + offset, image)
        stamped = [self._stamp(image) for image in images]
        if self._file is None:
            for offset, item in enumerate(stamped):
                self._mem[start_page_id + offset] = item
        else:
            if start_page_id > self._page_count:
                # Zero-fill the gap explicitly, exactly like write_page,
                # so hole pages stay well-defined on every filesystem.
                self._file.seek(self._page_count * PAGE_SIZE)
                self._file.write(
                    b"\0" * ((start_page_id - self._page_count) * PAGE_SIZE)
                )
            self._file.seek(start_page_id * PAGE_SIZE)
            self._file.write(b"".join(stamped))
        if start_page_id + len(images) > self._page_count:
            self._page_count = start_page_id + len(images)

    def clear_page(self, page_id: int) -> None:
        """Reset a page to never-written (recovery discards torn pages)."""
        if page_id >= self._page_count:
            return
        if self._file is None:
            self._mem.pop(page_id, None)
        else:
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(_ZERO_PAGE)

    def epoch_issues(self, max_epoch: int) -> list[str]:
        """Scan every page for torn images and epochs beyond ``max_epoch``.

        Used on reopen (against the checkpoint's epoch) to detect
        commits the metadata never heard of, and by ``verify`` (against
        the current epoch) to detect torn pages.
        """
        issues: list[str] = []
        for page_id in range(self._page_count):
            try:
                epoch = self.read_page_epoch(page_id)
            except StorageError as exc:
                issues.append(str(exc))
                continue
            if epoch is not None and epoch > max_epoch:
                issues.append(
                    f"page {page_id} stamped commit epoch {epoch} > "
                    f"checkpoint epoch {max_epoch} (commits after the last "
                    "checkpoint, or a stale metadata blob)"
                )
        return issues

    def sync(self) -> None:
        """Flush file buffers (no-op in memory mode)."""
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._close_meta_file()

    # -- metadata side file ---------------------------------------------------

    def _meta_path(self) -> str | None:
        return None if self.path is None else self.path + ".meta"

    @staticmethod
    def _meta_bytes(meta: dict, append: bool) -> bytes:
        """Encode a base (bare pickle) or a delta frame (header + pickle)."""
        blob = pickle.dumps(meta, protocol=4)
        if append:
            return _META_FRAME.pack(len(blob), zlib.crc32(blob)) + blob
        return blob

    def write_meta(self, meta: dict, append: bool = False) -> int:
        """Persist metadata durably; returns bytes written.

        By default ``meta`` is the whole state and becomes the new base:
        written to a ``.meta.tmp`` side file, fsync'd, then renamed over
        the ``.meta`` file, so a crash at any point leaves either the old
        ``base ‖ frames`` or the new bare base — never a truncated blob
        that would make the store look freshly created (or fail to
        unpickle) on reopen.

        With ``append`` it is a delta against the state already in the
        file and lands as one frame after the last valid one, fsync'd in
        place.  A crash mid-append leaves a short or CRC-bad tail, which
        :meth:`read_meta` stops at and the next append cuts off.
        """
        data = self._meta_bytes(meta, append)
        if append:
            if not self._meta_base:
                raise StorageError("metadata frame appended before any base")
            self._append_meta(data)
            self._meta_frames += len(data)
            return len(data)
        meta_path = self._meta_path()
        if meta_path is None:
            self._mem_meta = bytearray(data)
        else:
            tmp_path = meta_path + ".tmp"
            with open(tmp_path, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, meta_path)
            # The rename swapped the inode: a kept handle would append
            # to the unlinked file.  The next append opens the new one.
            self._close_meta_file()
        self._meta_base, self._meta_frames = len(data), 0
        self._meta_torn = False
        return len(data)

    def _append_meta(self, data: bytes) -> None:
        """Land ``data`` right after the last valid frame and fsync it."""
        valid = self._meta_base + self._meta_frames
        meta_path = self._meta_path()
        if meta_path is None:
            assert self._mem_meta is not None
            del self._mem_meta[valid:]
            self._mem_meta += data
            return
        handle = self._meta_file
        if handle is None:
            handle = self._meta_file = open(meta_path, "r+b")
        if self._meta_torn:
            handle.truncate(valid)
        # An append that dies partway leaves a tail of its own.
        self._meta_torn = True
        handle.seek(valid)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
        self._meta_torn = False

    def _close_meta_file(self) -> None:
        if self._meta_file is not None:
            self._meta_file.close()
            self._meta_file = None

    def read_meta(self) -> dict | None:
        """Load the metadata base, or None if none was ever written.

        Frames after the base are validated in order up to the first
        short or CRC-bad one — a torn tail means the checkpoint before it
        is the last that survived — and handed over, decoded, by
        :meth:`read_meta_frames`.  A base (or a CRC-valid frame) that
        does not unpickle raises :class:`StorageError` — a damaged store
        must fail loudly rather than masquerade as a fresh one.
        """
        meta_path = self._meta_path()
        if meta_path is None:
            if self._mem_meta is None:
                return None
            blob = bytes(self._mem_meta)
        else:
            if not os.path.exists(meta_path):
                return None
            with open(meta_path, "rb") as handle:
                blob = handle.read()
        stream = io.BytesIO(blob)
        frames: list[dict] = []
        try:
            base = pickle.load(stream)
            offset = base_bytes = stream.tell()
            view = memoryview(blob)
            while len(blob) - offset >= _META_FRAME.size:
                length, crc = _META_FRAME.unpack_from(blob, offset)
                payload = view[offset + _META_FRAME.size:][:length]
                if not length or len(payload) < length or zlib.crc32(payload) != crc:
                    break
                frames.append(pickle.loads(payload))
                offset += _META_FRAME.size + length
        # A half-written or bit-flipped blob raises arbitrary unpickling
        # errors; all of them mean the same thing — corrupt metadata.
        except Exception as exc:
            raise StorageError(
                f"{meta_path or '<memory>'}: corrupt metadata blob: {exc}"
            ) from exc
        self._meta_base, self._meta_frames = base_bytes, offset - base_bytes
        self._meta_torn = len(blob) > offset
        self._frames_read = frames
        return base

    def read_meta_frames(self) -> list[dict]:
        """The delta frames the last :meth:`read_meta` found, oldest
        first; handed over once (the caller replays them onto the base)."""
        frames, self._frames_read = self._frames_read, []
        return frames

    @property
    def meta_size_bytes(self) -> int:
        """Bytes of the ``.meta`` file that count: base plus valid frames."""
        return self._meta_base + self._meta_frames

    @property
    def meta_frame_bytes(self) -> int:
        """Bytes of valid delta frames after the base (0: a bare base)."""
        return self._meta_frames

    @property
    def meta_wants_base(self) -> bool:
        """No base yet, or the frames have outgrown their share of it:
        the next metadata write should be a base, not an append."""
        return (
            not self._meta_base
            or self._meta_frames * META_COMPACT_DIVISOR > self._meta_base
        )

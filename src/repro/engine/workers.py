"""Multiprocess codec workers fed through shared-memory SPSC rings.

The GIL caps ``workers="threads"`` at overlapping link *I/O*: the
XOR/codec CPU that PRINS deliberately spends on the primary (cheap local
cycles traded for wire bytes, PAPER.md §4) still serializes on one core.
:class:`CodecWorkerPool` breaks that ceiling without giving up the
zero-copy discipline of PR 4:

* each worker process owns a **pair of fixed-slot SPSC rings** backed by
  :class:`multiprocessing.shared_memory.SharedMemory` — a submit ring
  (primary → worker) and a result ring (worker → primary).  A slot is a
  32-byte descriptor ``(seq, lba, length, codec_id, op, flags)`` followed
  by the payload bytes in place.  Payloads cross the process boundary by
  memcpy into the ring and a ``memoryview`` slice on the far side —
  **nothing is pickled**;
* each ring carries a blocking **items/space semaphore pair**, so both
  sides sleep instead of spinning: the producer blocks only when every
  slot is in flight (bounded, like the scheduler's credit window) and the
  worker blocks only when idle;
* because exactly one process produces and one consumes per ring, head
  and tail indices live as plain locals on their owning side — the shared
  segment holds only descriptors and payload bytes;
* results carry the submission's ``seq`` ticket, so the pool reassembles
  the output list in submission order no matter how workers interleave —
  the same dense-ticket trick the fan-out scheduler's cumulative-ack
  compaction uses.  Frame bytes are produced by the *same*
  :func:`repro.parity.frame.encode_frame` the inline path calls, so the
  wire image is byte-identical to ``workers="inline"``.

Workers resolve codecs from the one-byte registry id
(:func:`repro.parity.codecs.get_codec`), which is why the config layer
insists on registry-backed codecs for ``workers="process"``: a codec
*instance* never crosses the process boundary.

Failure containment: a worker that raises while encoding reports an
error flag and the pool re-runs that payload inline in the parent so the
real exception surfaces with its natural traceback; an output too large
for its slot degrades the same way (flagged overflow, inline retry).  A
worker that dies mid-batch turns into a :class:`ReplicationError` at the
next blocking wait rather than a hang.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import threading
import time
from multiprocessing import shared_memory

from repro.common.errors import (
    CodecError,
    ConfigurationError,
    ReplicationError,
)
from repro.obs.telemetry import NULL_TELEMETRY
from repro.parity.codecs import Codec, get_codec
from repro.parity.frame import decode_frame, encode_frame

__all__ = [
    "CodecWorkerPool",
    "available_cores",
    "default_worker_count",
    "slot_bytes_for",
]

#: slot descriptor: seq ticket, aux (lba on submit / encode-ns on result),
#: payload length, codec id, op, flags — packed little-endian, 32 bytes
_DESC = struct.Struct("<QQIIII")
DESCRIPTOR_BYTES = _DESC.size

_OP_ENCODE = 0
_OP_DECODE = 1
_OP_STOP = 2

_FLAG_OVERFLOW = 1
_FLAG_ERROR = 2

#: how long a blocking ring wait may sit before the pool declares a stall
_STALL_TIMEOUT_S = 30.0


def available_cores() -> int:
    """CPU cores usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_worker_count() -> int:
    """The auto worker count: one per usable core, capped at 8."""
    return max(1, min(8, available_cores()))


def slot_bytes_for(block_size: int) -> int:
    """Ring slot size that fits any codec's output for ``block_size`` blocks.

    Every registered codec is a compressor whose worst case is bounded
    by a small expansion over the input (zlib's deflate bound, zero-RLE
    literal runs); doubling plus a fixed margin covers them all with the
    32-byte descriptor in front.  Oversized *results* still degrade
    safely via the overflow flag.
    """
    return DESCRIPTOR_BYTES + 2 * max(1, block_size) + 1024


class _Ring:
    """One direction of a worker channel: fixed slots over one shm segment.

    Single-producer / single-consumer: each side keeps its own monotonic
    slot index locally and the ``items``/``space`` semaphores carry the
    occupancy, so no index ever needs to live in shared memory.
    """

    def __init__(self, ctx, slots: int, slot_bytes: int) -> None:
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.shm = shared_memory.SharedMemory(
            create=True, size=slots * slot_bytes
        )
        self.items = ctx.Semaphore(0)
        self.space = ctx.Semaphore(slots)

    @property
    def capacity(self) -> int:
        """Payload bytes one slot can carry."""
        return self.slot_bytes - DESCRIPTOR_BYTES

    def close(self) -> None:
        """Detach and unlink the shared segment (teardown-race tolerant)."""
        try:
            self.shm.close()
            self.shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - teardown race
            pass

    # pickling support (spawn start method): ship the segment by name and
    # re-attach on the far side; semaphores pickle natively for Process args
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["shm"] = None
        state["_shm_name"] = self.shm.name
        return state

    def __setstate__(self, state: dict) -> None:
        name = state.pop("_shm_name")
        self.__dict__.update(state)
        self.shm = shared_memory.SharedMemory(name=name)


class _WorkerChannel:
    """Parent-side handle for one worker: submit ring, result ring, process."""

    def __init__(self, ctx, slots: int, slot_bytes: int) -> None:
        self.submit = _Ring(ctx, slots, slot_bytes)
        self.result = _Ring(ctx, slots, slot_bytes)
        self.outstanding = 0
        self._submit_idx = 0
        self._result_idx = 0
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.submit, self.result),
            daemon=True,
            name="prins-codec-worker",
        )
        self.process.start()

    # -- producer side (parent) ---------------------------------------------

    def push(
        self, seq: int, lba: int, codec_id: int, op: int, payload
    ) -> None:
        """Copy one payload into the next submit slot.

        The pool caps ``outstanding`` at the ring depth before calling,
        so the space acquire below can never block; it is taken anyway to
        keep the semaphore pair exact (and to fail loudly if the
        accounting ever drifts).
        """
        ring = self.submit
        if not ring.space.acquire(block=False):  # pragma: no cover - invariant
            raise ReplicationError(
                "submit ring overflow: outstanding accounting drifted"
            )
        off = (self._submit_idx % ring.slots) * ring.slot_bytes
        self._submit_idx += 1
        view = memoryview(payload)
        if view.format != "B":
            view = view.cast("B")
        _DESC.pack_into(
            ring.shm.buf, off, seq, lba, view.nbytes, codec_id, op, 0
        )
        start = off + DESCRIPTOR_BYTES
        ring.shm.buf[start : start + view.nbytes] = view
        ring.items.release()
        self.outstanding += 1

    def try_pop(self) -> tuple[int, int, int, bytes | None] | None:
        """Non-blocking result fetch: ``(seq, aux_ns, flags, data)`` or None."""
        ring = self.result
        if not ring.items.acquire(block=False):
            return None
        return self._pop_locked()

    def pop_wait(self, timeout: float) -> tuple[int, int, int, bytes | None]:
        """Blocking result fetch; raises on worker death or stall.

        Waits in short slices so a dead worker is reported at once; a
        live one still gets the full ``timeout``.
        """
        ring = self.result
        deadline = time.monotonic() + timeout
        while not ring.items.acquire(timeout=0.1):
            if not self.process.is_alive():
                raise ReplicationError(
                    "codec worker died mid-batch "
                    f"(exitcode={self.process.exitcode})"
                )
            if time.monotonic() >= deadline:
                raise ReplicationError(
                    f"codec worker stalled for {timeout:.0f}s "
                    f"({self.outstanding} descriptors outstanding)"
                )
        return self._pop_locked()

    def _pop_locked(self) -> tuple[int, int, int, bytes | None]:
        ring = self.result
        off = (self._result_idx % ring.slots) * ring.slot_bytes
        self._result_idx += 1
        seq, aux, length, _codec_id, _op, flags = _DESC.unpack_from(
            ring.shm.buf, off
        )
        data: bytes | None = None
        if not flags:
            start = off + DESCRIPTOR_BYTES
            data = bytes(ring.shm.buf[start : start + length])
        ring.space.release()
        self.outstanding -= 1
        return seq, aux, flags, data

    # -- lifecycle -----------------------------------------------------------

    def stop(self, timeout: float) -> None:
        """Send the poison descriptor, join the worker, free the rings."""
        if self.process.is_alive():
            if self.submit.space.acquire(timeout=timeout):
                off = (
                    self._submit_idx % self.submit.slots
                ) * self.submit.slot_bytes
                self._submit_idx += 1
                _DESC.pack_into(
                    self.submit.shm.buf, off, 0, 0, 0, 0, _OP_STOP, 0
                )
                self.submit.items.release()
            self.process.join(timeout=timeout)
            if self.process.is_alive():  # pragma: no cover - hung worker
                self.process.terminate()
                self.process.join(timeout=timeout)
        self.submit.close()
        self.result.close()


def _worker_main(submit: _Ring, result: _Ring) -> None:
    """Worker loop: drain submit descriptors, run the kernel, ship results.

    Runs in the child process.  Encode payloads are consumed through a
    ``memoryview`` slice of the submit ring (no intermediate copy); the
    submit slot is released only after the kernel finishes with the view.
    """
    # under spawn the registry starts empty in the child; importing the
    # parity package registers every built-in codec (fork inherits them)
    import repro.parity.pipeline  # noqa: F401  (registers RLE_ZLIB too)

    sbuf = submit.shm.buf
    rbuf = result.shm.buf
    read_idx = 0
    write_idx = 0
    while True:
        submit.items.acquire()
        off = (read_idx % submit.slots) * submit.slot_bytes
        read_idx += 1
        seq, lba, length, codec_id, op, _flags = _DESC.unpack_from(sbuf, off)
        if op == _OP_STOP:
            break
        start = off + DESCRIPTOR_BYTES
        view = sbuf[start : start + length]
        began = time.perf_counter_ns()
        flags = 0
        out = b""
        try:
            if op == _OP_ENCODE:
                out = encode_frame(get_codec(codec_id), view)
            else:
                out = decode_frame(bytes(view))
        except Exception:  # noqa: BLE001 — parent retries inline to surface it
            flags = _FLAG_ERROR
        elapsed = time.perf_counter_ns() - began
        del view
        submit.space.release()

        result.space.acquire()
        woff = (write_idx % result.slots) * result.slot_bytes
        write_idx += 1
        if not flags and len(out) > result.capacity:
            flags = _FLAG_OVERFLOW
        if flags:
            _DESC.pack_into(rbuf, woff, seq, elapsed, 0, codec_id, op, flags)
        else:
            _DESC.pack_into(
                rbuf, woff, seq, elapsed, len(out), codec_id, op, 0
            )
            wstart = woff + DESCRIPTOR_BYTES
            rbuf[wstart : wstart + len(out)] = out
        result.items.release()
    submit.shm.close()
    result.shm.close()


class CodecWorkerPool:
    """A fixed fleet of codec worker processes behind shared-memory rings.

    ``encode_frames(codec, payloads)`` is a drop-in for
    :func:`repro.parity.frame.encode_frames` — same inputs, byte-identical
    output list — that scatters payloads round-robin across workers and
    gathers results back into submission order by ``seq`` ticket.
    ``decode_frames(frames)`` is the symmetric bulk-decode kernel (frames
    are self-describing, so no codec argument is needed).

    The pool is safe to share across engine threads (scatter/gather runs
    under one lock — callers serialize at the batch level, workers still
    run concurrently within a batch).  Oversized payloads and worker-side
    errors fall back to inline execution in the parent, keeping results
    exact at the cost of that item's speedup.
    """

    def __init__(
        self,
        worker_count: int = 0,
        ring_slots: int = 8,
        slot_bytes: int | None = None,
        block_size: int = 65536,
        start_method: str | None = None,
        telemetry=None,
    ) -> None:
        if worker_count < 0:
            raise ConfigurationError(
                f"worker_count must be >= 0 (0 = auto), got {worker_count}"
            )
        if ring_slots < 2:
            raise ConfigurationError(
                f"ring_slots must be >= 2, got {ring_slots}"
            )
        if slot_bytes is None:
            slot_bytes = slot_bytes_for(block_size)
        if slot_bytes <= DESCRIPTOR_BYTES:
            raise ConfigurationError(
                f"slot_bytes must exceed the {DESCRIPTOR_BYTES}-byte "
                f"descriptor, got {slot_bytes}"
            )
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.worker_count = worker_count or default_worker_count()
        self.ring_slots = ring_slots
        self.slot_bytes = slot_bytes
        self.start_method = start_method
        ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._closed = False
        self._channels = [
            _WorkerChannel(ctx, ring_slots, slot_bytes)
            for _ in range(self.worker_count)
        ]
        self.batches = 0
        self.items = 0
        self.inline_fallbacks = 0
        self.worker_ns = 0
        self._telemetry = NULL_TELEMETRY
        self._span = NULL_TELEMETRY.span
        self._items_counter = NULL_TELEMETRY.counter("worker.items")
        self._ns_counter = NULL_TELEMETRY.counter("worker.encode_ns")
        self._fallback_counter = NULL_TELEMETRY.counter(
            "worker.inline_fallbacks"
        )
        if telemetry is not None:
            self.bind_telemetry(telemetry)

    # -- observability -------------------------------------------------------

    def bind_telemetry(self, telemetry) -> None:
        """Route pool metering through ``telemetry`` (see obs.telemetry)."""
        self._telemetry = telemetry
        self._span = telemetry.span
        self._items_counter = telemetry.counter("worker.items")
        self._ns_counter = telemetry.counter("worker.encode_ns")
        self._fallback_counter = telemetry.counter("worker.inline_fallbacks")

    def snapshot(self) -> dict:
        """JSON-safe pool state for reports and the CLI."""
        return {
            "workers": self.worker_count,
            "ring_slots": self.ring_slots,
            "slot_bytes": self.slot_bytes,
            "start_method": self.start_method,
            "batches": self.batches,
            "items": self.items,
            "inline_fallbacks": self.inline_fallbacks,
            "worker_ns": self.worker_ns,
            "alive": sum(
                1 for ch in self._channels if ch.process.is_alive()
            ),
        }

    # -- kernels -------------------------------------------------------------

    def encode_frames(self, codec: Codec, payloads, lbas=None) -> list[bytes]:
        """Encode ``payloads`` into frames across the worker fleet, in order."""
        try:
            registered = get_codec(codec.codec_id)
        except CodecError as exc:
            raise ConfigurationError(
                f"codec {codec!r} is not registered under id "
                f"{codec.codec_id}; process workers resolve codecs by "
                "registry id"
            ) from exc
        if registered is not codec and type(registered) is not type(codec):
            raise ConfigurationError(
                f"codec {codec!r} is not the registered codec for id "
                f"{codec.codec_id}; process workers resolve codecs by "
                "registry id"
            )
        return self._run_batch(
            "worker.encode",
            _OP_ENCODE,
            codec.codec_id,
            list(payloads),
            lbas,
            lambda payload: encode_frame(codec, payload),
        )

    def decode_frames(self, frames, lbas=None) -> list[bytes]:
        """Decode self-describing ``frames`` back to blocks, in order."""
        return self._run_batch(
            "worker.decode",
            _OP_DECODE,
            0,
            list(frames),
            lbas,
            decode_frame,
        )

    def _run_batch(
        self, span_name, op, codec_id, payloads, lbas, inline
    ) -> list:
        if self._closed:
            raise ReplicationError("codec worker pool is closed")
        if not payloads:
            return []
        if lbas is None:
            lbas = (0,) * len(payloads)
        with self._lock, self._span(
            span_name, items=len(payloads), workers=self.worker_count
        ) as span:
            results = self._scatter_gather(op, codec_id, payloads, lbas, inline)
            span.set("inline_fallbacks", self.inline_fallbacks)
            return results

    def _scatter_gather(self, op, codec_id, payloads, lbas, inline) -> list:
        channels = self._channels
        capacity = channels[0].submit.capacity
        n = len(payloads)
        results: list = [None] * n
        retry: list[int] = []
        next_idx = 0
        done = 0
        batch_ns = 0
        while done < n:
            progressed = False
            # drain whatever results are ready before producing more
            for channel in channels:
                while channel.outstanding:
                    popped = channel.try_pop()
                    if popped is None:
                        break
                    seq, aux, flags, data = popped
                    batch_ns += aux
                    if flags:
                        retry.append(seq)
                    else:
                        results[seq] = data
                    done += 1
                    progressed = True
            # submit forward, least-loaded worker first, bounded by slots
            while next_idx < n:
                payload = payloads[next_idx]
                view = memoryview(payload)
                if view.nbytes > capacity:
                    retry.append(next_idx)
                    next_idx += 1
                    done += 1
                    progressed = True
                    continue
                channel = min(channels, key=lambda ch: ch.outstanding)
                if channel.outstanding >= self.ring_slots:
                    break
                channel.push(
                    next_idx, lbas[next_idx], codec_id, op, view
                )
                next_idx += 1
                progressed = True
            if progressed or done >= n:
                continue
            # every worker is saturated and nothing was ready: block on the
            # most-loaded channel until its next result lands
            channel = max(channels, key=lambda ch: ch.outstanding)
            seq, aux, flags, data = channel.pop_wait(_STALL_TIMEOUT_S)
            batch_ns += aux
            if flags:
                retry.append(seq)
            else:
                results[seq] = data
            done += 1
        # exact-result fallback for oversize/errored items, in parent
        for seq in retry:
            results[seq] = inline(payloads[seq])
            self.inline_fallbacks += 1
            self._fallback_counter.inc()
        self.batches += 1
        self.items += n
        self.worker_ns += batch_ns
        self._items_counter.inc(n)
        self._ns_counter.inc(batch_ns)
        return results

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker and release the shared-memory rings (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for channel in self._channels:
                channel.stop(timeout)
            self._channels = []

    def __enter__(self) -> "CodecWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(timeout=0.5)
        except Exception:  # noqa: BLE001 — never raise from a finalizer
            pass

"""Byte-buffer helpers: XOR, zero tests, and change-density measurement.

The whole point of PRINS is that ``P' = A_new XOR A_old`` is mostly zeros.
These helpers implement the XOR and the "how sparse is it" measurements used
throughout the parity codecs, the RAID small-write path, and the traffic
accounting.  They are numpy-backed so that 64 KB blocks cost microseconds,
with an ``int.from_bytes`` big-integer fallback for tiny buffers where numpy
dispatch overhead dominates.

Every helper accepts any C-contiguous buffer-protocol object (``bytes``,
``bytearray``, ``memoryview``, numpy arrays) so callers on the zero-copy hot
path can pass views without materializing intermediate ``bytes`` copies.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

import numpy as np

Buffer = Union[bytes, bytearray, memoryview]

#: Crossover between the big-integer XOR path and numpy, in bytes.
#:
#: Re-tuned from ``scripts/bench_hotpath.py`` measurements (2026-08, CPython
#: 3.12 / numpy 2.x): the ``int.from_bytes``-XOR path costs ~0.4 µs at 16 B
#: and ~0.6 µs at 128 B while numpy's dispatch floor is ~1.6 µs regardless of
#: size; numpy overtakes between 512 B and 4 KB (1.7 µs vs 2.1 µs at 4 KB,
#: then scales ~50x better).  512 is the last power of two where the integer
#: path still wins outright.  The previous value (128) predated the integer
#: fast path — it guarded a per-byte generator that was slower than numpy
#: everywhere above ~32 B.
_NUMPY_CUTOFF = 512

#: Largest per-block size for which :func:`xor_blocks_pairwise` stacks the
#: two input sequences into matrices.  Stacking pays two ``b"".join`` copies
#: of the whole window; above ~8 KB per block that copy cost exceeds the
#: dispatch savings and a per-pair :func:`xor_bytes` loop wins (measured:
#: 32x64 KB window is 332 µs per-pair vs 3.9 ms stacked on the reference
#: box; the crossover sits near 8 KB).
_PAIRWISE_STACK_MAX = 8192

#: Longest zero run a buffer can hold when none of its aligned 4-byte
#: words is zero: a run of 7 always covers one aligned word whole.
_DENSE_MAX_ZERO_RUN = 6


def _nbytes(buf: Buffer) -> int:
    """Length in bytes of any buffer-protocol object."""
    if isinstance(buf, (bytes, bytearray)):
        return len(buf)
    return memoryview(buf).nbytes


@lru_cache(maxsize=8)
def _zero_block(n: int) -> bytes:
    """A shared all-zero ``bytes`` of length ``n`` (few distinct sizes)."""
    return bytes(n)


def xor_bytes(a: Buffer, b: Buffer) -> bytes:
    """Return ``a XOR b``.

    Both buffers must be the same length.  This single function implements
    both the paper's forward parity computation (Eq. 1 fragment,
    ``P' = A_new XOR A_old``) and the backward computation (Eq. 2,
    ``A_new = P' XOR A_old``), because XOR is its own inverse.

    Accepts any buffer-protocol object; always returns ``bytes``.
    """
    # _nbytes inlined: this runs on every write
    n = len(a) if isinstance(a, (bytes, bytearray)) else memoryview(a).nbytes
    nb = len(b) if isinstance(b, (bytes, bytearray)) else memoryview(b).nbytes
    if n != nb:
        raise ValueError(f"xor_bytes: length mismatch ({n} != {nb})")
    if n < _NUMPY_CUTOFF:
        # One C-level big-integer XOR beats both a Python byte loop and
        # numpy's dispatch overhead for small buffers.
        return (
            int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
        ).to_bytes(n, "little")
    av = np.frombuffer(a, dtype=np.uint8)
    bv = np.frombuffer(b, dtype=np.uint8)
    return np.bitwise_xor(av, bv).tobytes()


def xor_into(target: Union[bytearray, memoryview], source: Buffer) -> None:
    """XOR ``source`` into ``target`` in place (``target ^= source``).

    Used by the RAID parity scrubber and the CDP recovery path, where a
    running XOR accumulator over many blocks avoids allocating one
    intermediate buffer per block.  ``target`` must be writable
    (``bytearray`` or a writable ``memoryview``).
    """
    n = _nbytes(target)
    ns = _nbytes(source)
    if n != ns:
        raise ValueError(f"xor_into: length mismatch ({n} != {ns})")
    if n == 0:
        return
    if n < _NUMPY_CUTOFF:
        target[:n] = (
            int.from_bytes(target, "little") ^ int.from_bytes(source, "little")
        ).to_bytes(n, "little")
        return
    tv = np.frombuffer(target, dtype=np.uint8)
    sv = np.frombuffer(source, dtype=np.uint8)
    np.bitwise_xor(tv, sv, out=tv)


def xor_reduce_blocks(blocks: "Sequence[Buffer]") -> bytes:
    """XOR-fold many equal-length buffers into one, in a single numpy kernel.

    This is the batch form of :func:`xor_bytes`: stacking the buffers into
    one ``(n, block_size)`` matrix and reducing along axis 0 replaces
    ``n - 1`` Python-level XOR calls with one vectorized pass.  It is the
    kernel behind same-LBA delta merging in
    :class:`repro.engine.batch.ShipBatcher` — XOR is associative, so the
    fold of parity deltas ``P'₁ ⊕ P'₂ ⊕ …`` is itself a valid parity delta
    against the replica's original block (paper Eqs. 1–2 compose).
    """
    if not blocks:
        raise ValueError("xor_reduce_blocks needs at least one buffer")
    size = _nbytes(blocks[0])
    for i, b in enumerate(blocks[1:], start=1):
        if _nbytes(b) != size:
            raise ValueError(
                f"xor_reduce_blocks: length mismatch at index {i} "
                f"({_nbytes(b)} != {size})"
            )
    if len(blocks) == 1:
        return bytes(blocks[0])
    if size == 0:
        return b""
    if size * len(blocks) < _NUMPY_CUTOFF:
        acc = int.from_bytes(blocks[0], "little")
        for b in blocks[1:]:
            acc ^= int.from_bytes(b, "little")
        return acc.to_bytes(size, "little")
    mat = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(
        len(blocks), size
    )
    return np.bitwise_xor.reduce(mat, axis=0).tobytes()


def xor_blocks_pairwise(
    lhs: "Sequence[Buffer]",
    rhs: "Sequence[Buffer]",
    skip_zero: bool = False,
) -> "list[bytes | None]":
    """XOR many equal-length pairs ``lhs[i] ^ rhs[i]`` in one 2-D numpy op.

    The vectorized form of mapping :func:`xor_bytes` over two equal-length
    sequences: both sides are stacked into ``(n, block_size)`` matrices and
    XORed in a single kernel, amortizing numpy dispatch over the whole
    batch (many small forward-parity computations per call instead of one).

    The result matrix is serialized **once** (one contiguous ``tobytes``)
    and sliced per row, instead of a per-row ``tobytes`` Python loop — the
    slices share the row boundaries so no per-row numpy call remains.

    With ``skip_zero=True``, all-zero results come back as ``None`` instead
    of a zero-filled buffer — the no-op test runs on the XOR result while
    it is still a hot numpy array, which is cheaper than a separate
    :func:`is_zero` rescan of the materialized bytes per pair.
    """
    if len(lhs) != len(rhs):
        raise ValueError(
            f"xor_blocks_pairwise: {len(lhs)} lhs buffers vs {len(rhs)} rhs"
        )
    if not lhs:
        return []
    size = _nbytes(lhs[0])
    for seq_name, seq in (("lhs", lhs), ("rhs", rhs)):
        for i, b in enumerate(seq):
            if _nbytes(b) != size:
                raise ValueError(
                    f"xor_blocks_pairwise: {seq_name}[{i}] is {_nbytes(b)} "
                    f"bytes, expected {size}"
                )
    if size == 0:
        return [b""] * len(lhs)
    if size > _PAIRWISE_STACK_MAX:
        # For large blocks the two b"".join copies needed to stack the
        # inputs dominate (~12x slower than per-pair XOR at 64 KB on the
        # reference box); per-pair numpy XOR is already bandwidth-bound.
        out: "list[bytes | None]" = []
        for a, b in zip(lhs, rhs):
            av = np.frombuffer(a, dtype=np.uint8)
            bv = np.frombuffer(b, dtype=np.uint8)
            d = np.bitwise_xor(av, bv)
            if skip_zero and not d.any():
                out.append(None)
            else:
                out.append(d.tobytes())
        return out
    if size * len(lhs) < _NUMPY_CUTOFF:
        results = [xor_bytes(a, b) for a, b in zip(lhs, rhs)]
        if skip_zero:
            return [None if is_zero(d) else d for d in results]
        return results
    a = np.frombuffer(b"".join(lhs), dtype=np.uint8).reshape(len(lhs), size)
    b = np.frombuffer(b"".join(rhs), dtype=np.uint8).reshape(len(rhs), size)
    # One contiguous serialization, then zero-copy-ish row slices (each
    # slice is a cheap bytes-of-bytes copy of exactly one row; the old code
    # paid a numpy attribute lookup + tobytes dispatch per row).
    mat = np.bitwise_xor(a, b)
    flat = mat.tobytes()
    if skip_zero:
        nonzero_rows = np.any(mat, axis=1)
        return [
            flat[i * size:(i + 1) * size] if nonzero_rows[i] else None
            for i in range(len(lhs))
        ]
    return [flat[i * size:(i + 1) * size] for i in range(len(lhs))]


def _zero_count(buf: Buffer) -> int:
    """Number of zero bytes in any buffer-protocol object."""
    n = _nbytes(buf)
    if n < _NUMPY_CUTOFF:
        if isinstance(buf, (bytes, bytearray)):
            return buf.count(0)
        return bytes(memoryview(buf).cast("B")).count(0)
    # numpy's SIMD nonzero count beats bytes.count(0)'s byte-at-a-time scan
    # by ~6x at 64 KB (4.8 µs vs 29 µs measured).
    arr = np.frombuffer(buf, dtype=np.uint8)
    return n - int(np.count_nonzero(arr))


def is_zero(buf: Buffer) -> bool:
    """Return True if every byte of ``buf`` is zero.

    An all-zero parity delta means the write did not actually change the
    block; the PRINS engine can then skip replication entirely.

    One ``memcmp`` against a cached zero block of the same length:
    ``bytes.startswith`` takes any buffer as a flat byte string, so views
    of other formats need no copy.  It stops at the first nonzero byte,
    and even a full compare beats numpy's ``any`` (all-zero 64 KiB:
    1.2 µs vs 6.3 µs; 8 KiB: 0.16 µs vs 3.6 µs, on a 2-core x86 host).
    """
    n = len(buf) if isinstance(buf, (bytes, bytearray)) else memoryview(buf).nbytes
    return _zero_block(n).startswith(buf)


def count_nonzero(buf: Buffer) -> int:
    """Return the number of nonzero bytes in ``buf``."""
    return _nbytes(buf) - _zero_count(buf)


def nonzero_fraction(buf: Buffer) -> float:
    """Return the fraction of bytes in ``buf`` that are nonzero.

    This is the paper's "5 % to 20 % of a data block actually changes"
    metric, measured on a parity delta.  Returns 0.0 for an empty buffer.
    """
    n = _nbytes(buf)
    if n == 0:
        return 0.0
    return count_nonzero(buf) / n


def span_pairs(buf: Buffer, merge_gap: int = 0) -> list[tuple[int, int]]:
    """Return nonzero spans as ``(start, end)`` pairs (end exclusive).

    Spans separated by at most ``merge_gap`` zero bytes are merged into
    one.  This is the scan behind every sparse codec encoder, and its
    Python cost grows with the number of spans, not the block size: one
    numpy compare builds a nonzero indicator (``b"\\x01"`` per changed
    byte), and the walk over it takes two C calls per span.
    ``find(1, pos)`` is a ``memchr`` to the next span start;
    ``find(bytes(merge_gap + 1), s)`` jumps to the first zero run too
    long to merge, which is where the span ends; the last span ends after
    the indicator's last 1.  The walk beats the fixed cost of a
    vectorized boundary scan up to a few dozen spans, and a changed page
    has a handful.

    Dense shortcut: when ``merge_gap >= 6``, the length is a multiple of 4,
    the first and last bytes are nonzero and no aligned 4-byte word is
    zero, no zero run is longer than 6 bytes, so every gap merges and the
    answer is the one span ``(0, n)``.  One word count replaces the
    indicator; the result is exactly the walk's.  The two byte probes
    come first so a sparse delta (zero edges, as a rule) pays ~0.2 µs for
    the check; a dense delta with a zero edge byte takes the walk.
    """
    if merge_gap < 0:
        raise ValueError(f"merge_gap must be non-negative, got {merge_gap}")
    arr = np.frombuffer(buf, dtype=np.uint8)
    n = arr.size
    if n == 0:
        return []
    if merge_gap >= _DENSE_MAX_ZERO_RUN and n % 4 == 0 and arr[0] and arr[-1]:
        words = arr.view(np.uint32)
        if np.count_nonzero(words) == words.size:
            return [(0, n)]
    ind = (arr != 0).tobytes()
    find = ind.find
    start = find(1)
    if start < 0:
        return []
    last = ind.rfind(1) + 1
    skip = merge_gap + 1
    sep = bytes(skip)
    pairs: list[tuple[int, int]] = []
    append = pairs.append
    while True:
        stop = find(sep, start, last)
        if stop < 0:
            append((start, last))
            return pairs
        append((start, stop))
        # The ``skip`` zeros at ``stop`` lie before ``last``, so another
        # span starts after them.
        start = find(1, stop + skip)


def nonzero_spans(
    buf: Buffer, merge_gap: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Return nonzero spans as numpy ``(starts, ends)`` ``intp`` arrays.

    The array form of :func:`span_pairs` (same scan, same merge rule),
    for callers that gather with the spans as fancy indices.
    """
    pairs = span_pairs(buf, merge_gap)
    if not pairs:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    starts, ends = np.array(pairs, dtype=np.intp).T.copy()
    return starts, ends


def nonzero_runs(buf: Buffer, merge_gap: int = 0) -> list[tuple[int, int]]:
    """Return runs of nonzero bytes as ``(offset, length)`` pairs.

    With ``merge_gap == 0`` the runs are maximal and never touch (a zero
    byte separates any two).  With ``merge_gap > 0``, runs separated by at
    most that many zero bytes are coalesced into one (the zeros become part
    of the run).  Codecs use a small merge gap because a changed span of
    high-entropy data contains chance zero bytes (1 in 256) that would
    otherwise fragment it into hundreds of tiny runs — coalescing costs a
    few literal zero bytes but saves a per-run header and a Python-level
    loop iteration each.

    Thin ``(offset, length)`` wrapper over :func:`span_pairs`.
    """
    return [(s, e - s) for s, e in span_pairs(buf, merge_gap)]

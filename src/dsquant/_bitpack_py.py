"""Row-batched bit-packing kernel in plain NumPy.

Row i of offsets becomes byte row i: b bits per offset, MSB-first, final
byte zero-padded, exactly a QDS record payload. Eight offsets fill b
bytes: one 64-bit lane for b <= 8, else two 4-offset lanes joined into a
128-bit big-endian word pair (after Lemire & Boytsov, "Decoding billions
of integers per second through vectorization", SPE 2015).
"""

import numpy as np

_BE64 = np.dtype(">u8")
# Shift of each offset within its lane: 8 offsets a lane for b <= 8, 4 above.
_LANE_SHIFTS = {b: np.arange(7 if b <= 8 else 3, -1, -1, dtype=np.uint64) * np.uint64(b)
                for b in range(1, 17)}


def payload_bytes(count, bit_width):
    """Bytes in one packed row of count offsets."""
    return (count * bit_width + 7) // 8


def pack_rows(offsets, bit_width):
    """Pack an (N, D) array of offsets into an (N, ceil(D*b/8)) uint8 array."""
    offsets = np.asarray(offsets)
    n, d = offsets.shape
    groups = -(-d // 8)
    padded = np.zeros((n, groups * 8), dtype=np.uint64)
    padded[:, :d] = offsets
    if bit_width <= 8:
        lanes = padded.reshape(n, groups, 8) << _LANE_SHIFTS[bit_width]
        words = np.bitwise_or.reduce(lanes, axis=2).astype(_BE64)[..., None]
        raw = words.view(np.uint8)[..., 8 - bit_width:]
    else:
        lanes = padded.reshape(n, groups, 2, 4) << _LANE_SHIFTS[bit_width]
        halves = np.bitwise_or.reduce(lanes, axis=3)
        hi, lo = halves[..., 0], halves[..., 1]
        words = np.empty((n, groups, 2), dtype=_BE64)  # hi then lo, left-aligned
        words[..., 0] = (hi << np.uint64(64 - 4 * bit_width)) | (lo >> np.uint64(8 * bit_width - 64))
        words[..., 1] = lo << np.uint64(128 - 8 * bit_width)
        raw = words.view(np.uint8)[..., :bit_width]
    return np.ascontiguousarray(
        raw.reshape(n, groups * bit_width)[:, :payload_bytes(d, bit_width)])


def unpack_rows(payload, count, bit_width):
    """Inverse of pack_rows; returns an (N, count) uint32 array."""
    payload = np.asarray(payload, dtype=np.uint8)
    n, nbytes = payload.shape
    if nbytes != payload_bytes(count, bit_width):
        raise ValueError(f"payload is {nbytes} bytes, expected {payload_bytes(count, bit_width)} "
                         f"for {count} codes at {bit_width} bits")
    groups = -(-count // 8)
    padded = np.zeros((n, groups * bit_width), dtype=np.uint8)
    padded[:, :nbytes] = payload
    raw = np.zeros((n, groups, 8 if bit_width <= 8 else 16), dtype=np.uint8)
    start = max(8 - bit_width, 0)
    raw[..., start:start + bit_width] = padded.reshape(n, groups, bit_width)
    words = raw.view(_BE64).astype(np.uint64)
    if bit_width > 8:  # split each 128-bit word pair back into its two lanes
        hi_bits = 64 - 4 * bit_width
        lo = (((words[..., 0] & np.uint64((1 << hi_bits) - 1)) << np.uint64(8 * bit_width - 64))
              | (words[..., 1] >> np.uint64(128 - 8 * bit_width)))
        words[..., 0] >>= np.uint64(hi_bits)
        words[..., 1] = lo
    offsets = (words[..., None] >> _LANE_SHIFTS[bit_width]) & np.uint64((1 << bit_width) - 1)
    return offsets.reshape(n, groups * 8)[:, :count].astype(np.uint32)


def pack_offsets(offsets, bit_width):
    """Pack one row of unsigned offsets into a bytes object."""
    return pack_rows(np.reshape(offsets, (1, -1)), bit_width)[0].tobytes()


def unpack_offsets(payload, count, bit_width):
    """Inverse of pack_offsets; returns a uint32 array of length count."""
    return unpack_rows(np.frombuffer(payload, dtype=np.uint8)[None], count, bit_width)[0]

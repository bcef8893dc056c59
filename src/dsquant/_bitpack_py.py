"""Row-batched bit-packing kernel in plain NumPy.

Row i of offsets becomes byte row i: b bits per offset, MSB-first, final
byte zero-padded, exactly a QDS record payload. Eight offsets fill b
bytes (after Lemire & Boytsov, SPE 2015), so every width packs a group
of eight at a time by one rule: offset j holds bits [j*b, (j+1)*b) of
its group, and byte k is the OR of the offsets that reach it, shifted.
"""

import numpy as np

# (k, j, s) for each byte k of a group and offset j that reaches it: bit i
# of the offset is bit i + s of the byte (s < 0 shifts right). 8 to 22 a width.
_TERMS = {b: [(k, j, 8 * (k + 1) - b * (j + 1)) for k in range(b) for j in range(8)
              if j * b < 8 * (k + 1) and (j + 1) * b > 8 * k] for b in range(1, 17)}


def _shifted(a, s):
    return a << s if s >= 0 else a >> -s


def payload_bytes(count, bit_width):
    """Bytes in one packed row of count offsets."""
    return (count * bit_width + 7) // 8


def pack_rows(offsets, bit_width):
    """Pack an (N, D) array of offsets into an (N, ceil(D*b/8)) uint8 array."""
    offsets = np.asarray(offsets)
    n, d = offsets.shape
    groups = -(-d // 8)
    padded = np.zeros((n, groups, 8), dtype=np.uint8 if bit_width <= 8 else np.uint16)
    padded.reshape(n, groups * 8)[:, :d] = offsets
    out = np.zeros((n, groups, bit_width), dtype=np.uint8)
    for k, j, s in _TERMS[bit_width]:
        out[..., k] |= _shifted(padded[..., j], s)  # uint16 terms are cut to 8 bits
    return np.ascontiguousarray(out.reshape(n, groups * bit_width)[:, :payload_bytes(d, bit_width)])


def unpack_rows(payload, count, bit_width):
    """Inverse of pack_rows; returns an (N, count) array of offsets, uint8
    for b <= 8 and uint16 above."""
    payload = np.asarray(payload, dtype=np.uint8)
    n, nbytes = payload.shape
    if nbytes != payload_bytes(count, bit_width):
        raise ValueError(f"payload is {nbytes} bytes, expected {payload_bytes(count, bit_width)} "
                         f"for {count} codes at {bit_width} bits")
    groups = -(-count // 8)
    padded = np.zeros((n, groups, bit_width), dtype=np.uint8 if bit_width <= 8 else np.uint16)
    padded.reshape(n, groups * bit_width)[:, :nbytes] = payload
    offsets = np.zeros((n, groups, 8), dtype=padded.dtype)
    for k, j, s in _TERMS[bit_width]:
        offsets[..., j] |= _shifted(padded[..., k], -s)
    offsets &= (1 << bit_width) - 1
    return offsets.reshape(n, groups * 8)[:, :count]


def pack_offsets(offsets, bit_width):
    """Pack one row of unsigned offsets into a bytes object."""
    return pack_rows(np.reshape(offsets, (1, -1)), bit_width)[0].tobytes()


def unpack_offsets(payload, count, bit_width):
    """Inverse of pack_offsets; returns an array of count offsets."""
    return unpack_rows(np.frombuffer(payload, dtype=np.uint8)[None], count, bit_width)[0]

"""Per-sample linear symmetric quantization and variable-width packing.

A sample is quantized with a single positive scale s derived from its
maximum absolute value m: s = (m + 1e-12) / Q, stepped down one float32
where rounding puts s * Q past float32 max. Codes are signed integers in
[-Q, Q] with Q = 2^(b-1) - 1; reconstruction is s * code. Rounding is
half-away-from-zero (one routine, _rounded, for the codes and for
score's probe). Bit-width 0 means the sample is dropped; bit-width 1 is
rejected (its code range would collapse to {0}).

Packed layout (normative for the QDS container): each code c is written
as the unsigned offset c + Q in exactly b bits, MSB-first within each
byte, zero-padded to a byte boundary. Offsets occupy [0, 2Q]; the value
2^b - 1 is a reserved sentinel never produced by the encoder.

Everything works on rows: an (N, D) array of samples at one bit-width
is quantized, packed, unpacked or dequantized as one array operation;
the per-sample functions are the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bitpack_py as _kernel

USING_NATIVE_KERNEL = False  # kept for tools that record the kernel used

EPSILON = 1e-12
F32_MAX = float(np.finfo(np.float32).max)
MIN_BIT_WIDTH = 2
MAX_BIT_WIDTH = 16

# Row-batched stages take this many elements' worth of rows per array
# operation, which bounds their temporaries whatever the row count.
CHUNK_ELEMENTS = 1 << 20


def row_chunks(n: int, dim: int) -> list:
    """Slices of CHUNK_ELEMENTS // dim rows (at least one) covering n rows."""
    step = max(1, CHUNK_ELEMENTS // dim)
    return [slice(start, start + step) for start in range(0, n, step)]


def is_valid_bit_width(b):
    """True for widths a sample may be stored at (0 = dropped); an array
    of widths gives a boolean array."""
    return (b == 0) | ((MIN_BIT_WIDTH <= b) & (b <= MAX_BIT_WIDTH))


def max_code(bit_width: int) -> int:
    """Q = 2^(b-1) - 1, the symmetric code range bound."""
    if not MIN_BIT_WIDTH <= bit_width <= MAX_BIT_WIDTH:
        raise ValueError(f"bit width must be in [{MIN_BIT_WIDTH}, {MAX_BIT_WIDTH}], got {bit_width}")
    return (1 << (bit_width - 1)) - 1


@dataclass(frozen=True)
class QuantizedSample:
    codes: np.ndarray  # int32, |code| <= Q
    scale: np.float32
    bit_width: int
    label: int


@dataclass(frozen=True)
class PackedCodes:
    payload: bytes
    count: int
    bit_width: int


def _scales(values: np.ndarray, q: int) -> np.ndarray:
    """Each row's float32 scale (m + EPSILON) / q, m its max |value|."""
    # the max of |values| before the float64 cast: the cast keeps order
    m = np.abs(values).max(axis=1, initial=0).astype(np.float64)
    if not np.isfinite(m).all():  # a NaN or inf anywhere in a row reaches its max
        raise ValueError("sample values must be finite")
    scales = ((m + EPSILON) / q).astype(np.float32)
    # rounding may lift scale * q past float32 max, so code q reads back as
    # inf; one step down leaves scale * q in [m - 2^-22 m, m], within scale / 2
    over = scales.astype(np.float64) * q > F32_MAX
    scales[over] = np.nextafter(scales[over], np.float32(0))
    return scales


def _rounded(scaled: np.ndarray, signs: np.ndarray, q: int) -> np.ndarray:
    """Round scaled half away from zero and clip it to [-q, q], in place.
    signs is any array with scaled's signs, such as the values before
    their (positive) scales divided them, so no sign mask is needed."""
    np.abs(scaled, out=scaled)
    scaled += 0.5
    np.floor(scaled, out=scaled)
    np.minimum(scaled, q, out=scaled)
    return np.copysign(scaled, signs, out=scaled)


def quantize_rows(values, bit_width: int):
    """Quantize each row of an (N, D) array; returns (int32 codes, float32 scales)."""
    q = max_code(bit_width)
    values = np.asarray(values)
    scales = _scales(values, q)
    scaled = values.astype(np.float64)
    scaled /= scales.astype(np.float64)[:, None]
    return _rounded(scaled, values, q).astype(np.int32), scales


def dequantize_rows(codes, scales) -> np.ndarray:
    """Reconstruct float32 rows as scale * code."""
    return (np.asarray(scales, dtype=np.float64)[:, None]
            * np.asarray(codes, dtype=np.float64)).astype(np.float32)


def round_trip_rows(values: np.ndarray, x: np.ndarray, bit_width: int) -> np.ndarray:
    """dequantize_rows(*quantize_rows(values, bit_width)) without the
    int32 codes, from x, values' float64 copy, which it only reads. The
    two agree bit for bit except that a zero may keep the sign of the
    value it came from (the int32 codes have no -0)."""
    q = max_code(bit_width)
    scales = _scales(values, q).astype(np.float64)[:, None]
    scaled = _rounded(x / scales, x, q)
    scaled *= scales
    return scaled.astype(np.float32)


def pack_code_rows(codes, bit_width: int) -> np.ndarray:
    """Pack an (N, D) array of signed codes; row i is sample i's payload."""
    bound, codes = max_code(bit_width), np.asarray(codes)
    if codes.size and (codes.min() < -bound or codes.max() > bound):
        raise ValueError(f"code outside [-{bound}, {bound}]")
    # |codes| <= bound < 2^15, so the int32 sum cannot overflow
    return _kernel.pack_rows(codes.astype(np.int32, copy=False) + bound, bit_width)


def unpack_code_rows(payload, count: int, bit_width: int) -> np.ndarray:
    """Inverse of pack_code_rows; rejects nonzero pad bits and the sentinel."""
    bound, payload = max_code(bit_width), np.asarray(payload, dtype=np.uint8)
    offsets = _kernel.unpack_rows(payload, count, bit_width)
    pad_bits = payload.shape[1] * 8 - count * bit_width
    if pad_bits and (payload[:, -1] & ((1 << pad_bits) - 1)).any():
        raise ValueError("nonzero trailing pad bits")
    sentinel = (1 << bit_width) - 1
    if offsets.size and int(offsets.max()) >= sentinel:
        raise ValueError(f"reserved offset {sentinel} in payload")
    return np.subtract(offsets, bound, dtype=np.int32)


def quantize_sample(values, bit_width: int, label: int = 0) -> QuantizedSample:
    """Quantize one flattened sample at the given bit-width."""
    codes, scales = quantize_rows(np.reshape(values, (1, -1)), bit_width)
    return QuantizedSample(codes[0], scales[0], bit_width, label)


def pack_codes(q: QuantizedSample) -> PackedCodes:
    """Pack signed codes into the offset-binary bit stream."""
    payload = pack_code_rows(np.reshape(q.codes, (1, -1)), q.bit_width)[0]
    return PackedCodes(payload.tobytes(), np.size(q.codes), q.bit_width)


def unpack_codes(p: PackedCodes) -> np.ndarray:
    """Inverse of pack_codes; exact for every valid code sequence."""
    payload = np.frombuffer(p.payload, dtype=np.uint8)[None]
    return unpack_code_rows(payload, p.count, p.bit_width)[0]

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_pack, reference_quantize_rows, reference_unpack, rows_with_ties

from dsquant import _bitpack_py
from dsquant.quantizer import (
    EPSILON,
    F32_MAX,
    PackedCodes,
    dequantize_rows,
    max_code,
    pack_code_rows,
    pack_codes,
    quantize_rows,
    quantize_sample,
    unpack_code_rows,
    unpack_codes,
)


def scale_of(values, bit_width):
    """The scale quantize_rows gives one sample."""
    return quantize_rows(np.asarray(values)[None], bit_width)[1][0]


class TestComputeScale:
    def test_zero_sample(self):
        s = scale_of(np.zeros(5), 8)
        assert s == np.float32(1e-12 / 127)
        assert s > 0

    def test_unit_max_8bit_against_exact_arithmetic(self):
        s = scale_of([1.0, -0.5], 8)
        exact = (Fraction(1) + Fraction(1e-12)) / 127
        assert s == np.float32(float(exact))
        assert abs(float(s) - float(exact)) / float(exact) < 1e-7
        assert f"{float(s):.6g}" == "0.00787402"

    def test_two_bit_range(self):
        assert max_code(2) == 1
        s = scale_of([1.0], 2)
        assert abs(float(s) - 1.0) < 1e-6

    def test_scale_always_positive(self):
        for b in (2, 8, 16):
            assert scale_of(np.zeros(3), b) > 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            scale_of([np.inf], 8)

    def test_rejects_bad_bit_width(self):
        for b in (0, 1, 17):
            with pytest.raises(ValueError):
                scale_of([1.0], b)


class TestQuantizeDequantize:
    def test_max_element_hits_max_code(self):
        # m/s = Q*m/(m+eps) sits within rounding distance of Q; float32
        # storage of the scale can push it a hair past Q, which is the
        # boundary case the clamp exists for
        for b in (2, 4, 8, 16):
            q = quantize_sample([1.0], b)
            ratio = Fraction(1) / Fraction(float(q.scale))
            assert abs(ratio - max_code(b)) < Fraction(1, 100)
            assert q.codes[0] == max_code(b)

    def test_symmetric_endpoints(self):
        q = quantize_sample([-1.0, 1.0], 8)
        np.testing.assert_array_equal(q.codes, [-127, 127])

    def test_zero_sample_all_zero_codes(self):
        q = quantize_sample(np.zeros(7), 4)
        assert not q.codes.any()

    def test_label_and_width_recorded(self):
        q = quantize_sample([0.25], 8, label=3)
        assert q.label == 3 and q.bit_width == 8

    def test_dequantize_zeros(self):
        assert not dequantize_rows(*quantize_rows(np.zeros((1, 4)), 8)).any()

    def test_dequantize_endpoints_multiply_back(self):
        restored = dequantize_rows(*quantize_rows([[-1.0, 1.0]], 8))
        np.testing.assert_allclose(restored, [[-1.0, 1.0]], rtol=1e-6)

    @pytest.mark.parametrize("bit_width", range(2, 17))
    def test_dequantize_is_the_float64_product_cast_to_float32(self, bit_width):
        # the rule as first written: scale * code in float64, then one cast
        q, rng = max_code(bit_width), np.random.default_rng(bit_width)
        # positive finite float32 scales of every exponent, subnormals too,
        # each with scale * q <= float32 max as the reader requires, and the
        # extremes: the smallest subnormal and normal, and the largest scales
        scales = rng.integers(1, 0x7F800000, 4000, dtype=np.uint32).view(np.float32)
        largest = np.float32(F32_MAX / q)
        while largest.astype(np.float64) * q > F32_MAX:
            largest = np.nextafter(largest, np.float32(0))
        below = [np.nextafter(largest, np.float32(0))]
        below.append(np.nextafter(below[0], np.float32(0)))
        extremes = [np.finfo(np.float32).smallest_subnormal,
                    np.finfo(np.float32).tiny, largest, *below]
        scales = np.concatenate([scales[scales.astype(np.float64) * q <= F32_MAX],
                                 np.array(extremes, np.float32)])
        ends = [-q, -q + 1, -1, 0, 1, q - 1, q]
        codes = rng.integers(-q, q + 1, (scales.size, 57), dtype=np.int32)
        codes = np.concatenate([codes, np.tile(np.array(ends, np.int32), (scales.size, 1))], 1)
        expected = (scales.astype(np.float64)[:, None] * codes.astype(np.float64)).astype(
            np.float32)
        ours = dequantize_rows(codes, scales)
        assert ours.dtype == np.float32 and ours.shape == codes.shape
        assert np.array_equal(ours.view(np.uint32), expected.view(np.uint32))
        # the int16 codes that quantize_rows and unpack_code_rows return
        ours = dequantize_rows(codes.astype(np.int16), scales)
        assert np.array_equal(ours.view(np.uint32), expected.view(np.uint32))

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_error_bound(self, seed, bit_width):
        rng = np.random.default_rng(seed)
        scale_exp = rng.uniform(-6, 6)
        values = (10.0 ** scale_exp) * rng.standard_normal(64)
        values = values.astype(np.float32)
        codes, scales = quantize_rows(values[None], bit_width)
        restored = dequantize_rows(codes, scales)[0].astype(np.float64)
        m = np.abs(values.astype(np.float64)).max()
        bound = float(scales[0]) / 2 + 4 * np.spacing(np.float32(m))
        assert np.abs(values.astype(np.float64) - restored).max() <= bound

    @given(st.lists(st.floats(-1e6, 1e6, width=32), min_size=1, max_size=32),
           st.sampled_from([2, 3, 8, 16]))
    @settings(max_examples=200, deadline=None)
    def test_sign_flip_symmetry(self, values, bit_width):
        values = np.asarray(values, dtype=np.float32)
        pos = quantize_sample(values, bit_width)
        neg = quantize_sample(-values, bit_width)
        np.testing.assert_array_equal(neg.codes, -pos.codes)

    def test_clamp_only_trims_boundary_by_one(self):
        rng = np.random.default_rng(0)
        for b in (2, 4, 8, 16):
            values = rng.standard_normal(512).astype(np.float32)
            q = quantize_sample(values, b)
            scaled = values.astype(np.float64) / float(q.scale)
            unclamped = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
            assert np.abs(unclamped - q.codes).max() <= 1

    def test_determinism(self):
        values = np.random.default_rng(5).standard_normal(128).astype(np.float32)
        a, b = quantize_sample(values, 6), quantize_sample(values, 6)
        np.testing.assert_array_equal(a.codes, b.codes)
        assert a.scale == b.scale


class TestRoundingRoutine:
    """quantize_rows rounds as the reference does, and score's probe is
    quantize_rows and dequantize_rows through their out= buffers."""

    @given(rows_with_ties())
    @settings(max_examples=200, deadline=None)
    def test_quantize_rows_equals_the_reference(self, case):
        values, bit_width, tie = case
        codes, scales = quantize_rows(values, bit_width)
        ref_codes, ref_scales = reference_quantize_rows(values, bit_width)
        assert np.array_equal(codes, ref_codes) and np.array_equal(scales, ref_scales)
        # the ties really are ties, and round away from zero
        assert scales[-1] == abs(tie[0]) / max_code(bit_width)
        halves = np.abs(tie[1:]) / scales[-1]
        assert np.array_equal(halves % 1, np.full(halves.size, 0.5))
        assert np.array_equal(codes[-1, 1:], np.sign(tie[1:]) * (halves + 0.5))

    @given(rows_with_ties())
    @settings(max_examples=200, deadline=None)
    def test_probe_through_out_is_the_round_trip_widened(self, case):
        values, bit_width, _ = case
        x_tilde = np.full(values.shape, np.nan)
        probed = dequantize_rows(*quantize_rows(values, bit_width, x_tilde), x_tilde)
        expected = dequantize_rows(*quantize_rows(values, bit_width))
        assert probed is x_tilde and expected.dtype == np.float32
        # bit for bit, so zero signs included
        assert probed.tobytes() == expected.astype(np.float64).tobytes()

    @given(rows_with_ties())
    @settings(max_examples=50, deadline=None)
    def test_quantize_rows_scales_into_the_given_buffer(self, case):
        values, bit_width, _ = case
        out = np.full(values.shape, np.nan)
        codes, scales = quantize_rows(values, bit_width, out)
        expected_codes, expected_scales = quantize_rows(values, bit_width)
        assert codes.dtype == expected_codes.dtype == np.int16
        assert scales.dtype == expected_scales.dtype == np.float32
        assert np.array_equal(codes, expected_codes) and np.array_equal(scales, expected_scales)
        assert np.array_equal(out, codes)  # rounded in out itself, not in a copy

    @pytest.mark.parametrize("bit_width", range(2, 17))
    def test_dequantize_into_float64_is_the_float32_product_widened(self, bit_width):
        q = max_code(bit_width)
        # the scales of rows whose max is float32 max, 1, 1e-30 and 0
        _, scales = quantize_rows(np.array([[F32_MAX], [1.0], [1e-30], [0.0]]), bit_width)
        codes = np.tile(np.array([-q, q, -q, 0, q], np.int16), (scales.size, 1))
        out = np.full(codes.shape, np.nan)
        assert dequantize_rows(codes, scales, out) is out
        expected = dequantize_rows(codes, scales)
        assert expected.dtype == np.float32 and np.isfinite(expected).all()
        assert out.tobytes() == expected.astype(np.float64).tobytes()
        product = scales.astype(np.float64)[:, None] * codes.astype(np.float64)
        assert expected.tobytes() == product.astype(np.float32).tobytes()


class TestPacking:
    def test_pack_minus_q_is_zero_byte(self):
        q = quantize_sample([-1.0], 8)
        assert q.codes[0] == -127
        assert pack_codes(q).payload == b"\x00"

    def test_pack_two_zero_codes_4bit(self):
        q = quantize_sample([0.0, 0.0], 4)
        assert pack_codes(q).payload == b"\x77"

    def test_pack_empty(self):
        q = quantize_sample(np.zeros(0), 8)
        packed = pack_codes(q)
        assert packed.payload == b"" and packed.count == 0

    def test_unpack_inverse_of_hand_example(self):
        codes = unpack_codes(PackedCodes(b"\x77", 2, 4))
        np.testing.assert_array_equal(codes, [0, 0])

    def test_unpack_empty(self):
        assert unpack_codes(PackedCodes(b"", 0, 8)).size == 0

    def test_out_of_range_code_rejected(self):
        from dsquant.quantizer import QuantizedSample
        bad = QuantizedSample(np.array([128], np.int32), np.float32(1), 8, 0)
        with pytest.raises(ValueError, match="code outside"):
            pack_codes(bad)

    def test_bad_payload_length_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            unpack_codes(PackedCodes(b"\x00\x00", 2, 4))

    def test_reserved_sentinel_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            unpack_codes(PackedCodes(b"\xff", 2, 4))

    def test_nonzero_pad_bits_rejected(self):
        with pytest.raises(ValueError, match="pad"):
            unpack_codes(PackedCodes(b"\x01", 1, 4))

    # one kernel; its id keeps this test's names stable
    @pytest.mark.parametrize("kernel", [_bitpack_py], ids=["_bitpack_py"])
    @pytest.mark.parametrize("bit_width", range(2, 17))
    def test_round_trip_random_codes(self, kernel, bit_width):
        rng = np.random.default_rng(bit_width)
        bound = (1 << (bit_width - 1)) - 1
        for n in (0, 1, 3, 7, 8, 9, 65, 69):
            offsets = rng.integers(0, 2 * bound + 1, (5, n)).astype(np.uint32)
            rows = kernel.pack_rows(offsets, bit_width)
            assert rows.shape == (5, (n * bit_width + 7) // 8)
            np.testing.assert_array_equal(
                kernel.unpack_rows(rows, n, bit_width), offsets)
            # any bytes, even pad bits and sentinels the reader rejects
            hostile = rng.integers(0, 256, rows.shape, dtype=np.uint8)
            unpacked = kernel.unpack_rows(hostile, n, bit_width)
            for payload, row, noise, got in zip(rows, offsets, hostile, unpacked):
                codes = row.astype(np.int64) - bound
                assert payload.tobytes() == reference_pack(codes, bit_width)
                assert kernel.pack_offsets(row, bit_width) == payload.tobytes()
                np.testing.assert_array_equal(
                    kernel.unpack_offsets(payload.tobytes(), n, bit_width), row)
                decoded = reference_unpack(payload.tobytes(), n, bit_width)
                np.testing.assert_array_equal(decoded, codes)
                np.testing.assert_array_equal(
                    reference_unpack(noise.tobytes(), n, bit_width),
                    got.astype(np.int64) - bound)

    @pytest.mark.parametrize("bit_width", range(2, 17))
    def test_codes_at_plus_and_minus_q_round_trip_as_int16(self, bit_width):
        q = max_code(bit_width)
        codes, _ = quantize_rows([[-2.0, 2.0, 0.0, -1.0, 1.0], [3.0] * 5], bit_width)
        assert codes.dtype == np.int16
        assert codes[0, :3].tolist() == [-q, q, 0] and codes[1].tolist() == [q] * 5
        payload = pack_code_rows(codes, bit_width)
        for row, got in zip(codes, payload):
            assert got.tobytes() == reference_pack(row, bit_width)
        back = unpack_code_rows(payload, 5, bit_width)
        assert back.dtype == np.int16
        np.testing.assert_array_equal(back, codes)

    # the widths whose codes never straddle a byte, packed by byte moves
    @pytest.mark.parametrize("bit_width", [2, 4, 8, 16])
    def test_byte_path_rejects_the_sentinel_at_every_position(self, bit_width):
        q, sentinel = max_code(bit_width), (1 << bit_width) - 1
        for count in (1, 5, 8):
            for k in range(count):
                codes = np.zeros((3, count), np.int64)
                codes[1, k] = q + 1  # offset 2^b - 1: all ones
                payload = np.array([np.frombuffer(reference_pack(row, bit_width), np.uint8)
                                    for row in codes])
                with pytest.raises(ValueError, match=f"^reserved offset {sentinel} in payload$"):
                    unpack_code_rows(payload, count, bit_width)

    @pytest.mark.parametrize("bit_width, count", [(2, 1), (2, 2), (2, 3), (2, 5), (4, 1), (4, 3)])
    def test_byte_path_rejects_nonzero_pad_bits(self, bit_width, count):
        payload = np.frombuffer(reference_pack([0] * count, bit_width), np.uint8)
        payload = np.tile(payload, (3, 1))
        for bit in range(payload.shape[1] * 8 - count * bit_width):
            bad = payload.copy()
            bad[1, -1] |= 1 << bit
            with pytest.raises(ValueError, match="^nonzero trailing pad bits$"):
                unpack_code_rows(bad, count, bit_width)

    def test_trailing_pad_bits_are_zero(self):
        q = quantize_sample([1.0, -1.0, 0.5], 3)
        packed = pack_codes(q)
        pad = len(packed.payload) * 8 - 3 * 3
        assert packed.payload[-1] & ((1 << pad) - 1) == 0

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import reference_pack, reference_quantize_rows, reference_unpack

from dsquant import _bitpack_py
from dsquant.quantizer import (
    EPSILON,
    PackedCodes,
    dequantize_rows,
    max_code,
    pack_codes,
    quantize_rows,
    quantize_sample,
    round_trip_rows,
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


@st.composite
def rows_with_ties(draw):
    """(values, bit_width, tie): random float32 rows, a row of +-float32
    max, an all-zero row and a row of exact .5 ties. The tie row's max is
    q * 2^e, so its scale is 2^e and every other element (k + 0.5) * 2^e
    scales to k + 0.5."""
    bit_width = draw(st.integers(2, 16))
    q = max_code(bit_width)
    dim = draw(st.integers(2, 12))
    random = draw(arrays(np.float32, st.tuples(st.integers(0, 4), st.just(dim)),
                         elements=st.floats(-1e6, 1e6, width=32)))
    halves = [q] + [k + 0.5 for k in draw(st.lists(st.integers(0, q - 1),
                                                   min_size=dim - 1, max_size=dim - 1))]
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim, max_size=dim))
    tie = np.array(halves) * signs * 2.0 ** draw(st.integers(-12, 12))
    largest = np.finfo(np.float32).max * np.array(signs)
    values = np.vstack([random, largest, np.zeros((1, dim)), tie]).astype(np.float32)
    return values, bit_width, tie


class TestRoundingRoutine:
    """quantize_rows and score's probe share one rounding routine."""

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
    def test_probe_equals_the_quantize_dequantize_round_trip(self, case):
        values, bit_width, _ = case
        x = values.astype(np.float64)
        probed = round_trip_rows(values, x, bit_width)
        expected = dequantize_rows(*quantize_rows(values, bit_width))
        assert probed.dtype == np.float32 and np.array_equal(x, values)
        # array_equal holds -0.0 == 0.0; the sign of a zero is the one
        # difference allowed, since the int32 codes cannot carry it
        assert np.array_equal(probed, expected)
        nonzero = expected != 0
        assert np.array_equal(np.signbit(probed)[nonzero], np.signbit(expected)[nonzero])


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

    def test_trailing_pad_bits_are_zero(self):
        q = quantize_sample([1.0, -1.0, 0.5], 3)
        packed = pack_codes(q)
        pad = len(packed.payload) * 8 - 3 * 3
        assert packed.payload[-1] & ((1 << pad) - 1) == 0

"""Unit tests for execution signatures and the codec."""

import pytest

from repro.errors import InstrumentationError, SignatureError
from repro.instrument import MAX_REGISTER_WIDTH, Signature, SignatureCodec
from repro.testgen import TestConfig, generate


def full_rf(codec, pick=0):
    """A valid rf choosing candidate ``pick`` (clamped) for every load."""
    return {uid: cands[min(pick, len(cands) - 1)]
            for uid, cands in codec.candidates.items()}


class TestSignatureType:
    def test_ordering_is_thread0_most_significant(self):
        a = Signature(((1, 0), (9,)))
        b = Signature(((2, 0), (0,)))
        assert a < b

    def test_ordering_within_thread_first_word_most_significant(self):
        a = Signature(((0, 5),))
        b = Signature(((1, 0),))
        assert a < b

    def test_flat_concatenation(self):
        sig = Signature(((1, 2), (3,)))
        assert sig.flat == (1, 2, 3)

    def test_interleaved_key(self):
        sig = Signature(((1, 2), (3,)))
        assert sig.interleaved_key() == (1, 3, 2)

    def test_str_renders_hex(self):
        assert str(Signature(((16,), (2,)))) == "0x10|0x2"

    def test_hashable_and_equal(self):
        assert Signature(((1,),)) == Signature(((1,),))
        assert len({Signature(((1,),)), Signature(((1,),))}) == 1


class TestCodec:
    def test_encode_produces_per_thread_sections(self, small_program, small_codec):
        sig = small_codec.encode(full_rf(small_codec))
        assert len(sig.words) == small_program.num_threads

    def test_roundtrip_different_picks(self, small_codec):
        for pick in range(3):
            rf = full_rf(small_codec, pick)
            assert small_codec.decode(small_codec.encode(rf)) == rf

    def test_decode_rejects_wrong_thread_count(self, small_codec):
        with pytest.raises(SignatureError):
            small_codec.decode(Signature(((0,),)))

    def test_decode_rejects_negative_words(self, small_codec):
        sig = small_codec.encode(full_rf(small_codec, 1))
        words = [list(w) for w in sig.words]
        words[0][0] = -1
        bad = Signature(tuple(tuple(w) for w in words))
        with pytest.raises(SignatureError):
            small_codec.decode(bad)
        with pytest.raises(SignatureError):
            small_codec.decode_delta(sig, bad)

    @pytest.mark.parametrize("width", [0, -32, 2 ** 70, MAX_REGISTER_WIDTH + 1,
                                       "64", 64.0, None, True])
    def test_register_width_bounded(self, small_program, width):
        with pytest.raises(InstrumentationError):
            SignatureCodec(small_program, width)

    def test_register_width_bound_is_inclusive(self, small_program):
        codec = SignatureCodec(small_program, MAX_REGISTER_WIDTH)
        assert codec.register_width == MAX_REGISTER_WIDTH

    def test_byte_size_consistent_with_tables(self, small_codec):
        assert small_codec.byte_size == sum(t.byte_size for t in small_codec.tables)

    def test_total_words(self, small_codec):
        assert small_codec.total_words == sum(t.num_words for t in small_codec.tables)

    def test_cardinality_is_product_of_candidates(self, small_codec):
        expected = 1
        for cands in small_codec.candidates.values():
            expected *= len(cands)
        assert small_codec.cardinality == expected

    def test_paper_size_magnitude_arm_2_50_32(self):
        """ARM-2-50-32 signatures average ~8.4 bytes in the paper; the
        static size for a single test must be in that neighbourhood."""
        sizes = []
        for seed in range(10):
            p = generate(TestConfig(isa="arm", threads=2, ops_per_thread=50,
                                    addresses=32, seed=seed))
            sizes.append(SignatureCodec(p, 32).byte_size)
        mean = sum(sizes) / len(sizes)
        assert 8 <= mean <= 16

    def test_wider_registers_never_increase_size(self):
        p = generate(TestConfig(threads=4, ops_per_thread=50, addresses=16, seed=1))
        assert SignatureCodec(p, 64).byte_size <= SignatureCodec(p, 32).byte_size * 2

import dataclasses
import itertools
import json
import math
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptogenography import coding
from cryptogenography.coding import (
    Codebook,
    WindowChannel,
    exact_rate,
    fixed_capacity,
    fixed_two_group_run,
    hyper_binom_ratio,
    in_window,
    indep_capacity,
    leak_message,
    ml_decode,
    one_shot_joint,
    posterior_leak,
    random_codebook,
    ratio_bound_check,
    run_indep_experiment,
    window,
    window_channel,
)
from cryptogenography.probability import mutual_information

F = Fraction

# small-denominator grid used for the exact identities
GRID = [
    (F(1, 2), F(2, 3)),
    (F(2, 5), F(1, 2)),
    (F(1, 3), F(1, 2)),
    (F(1, 10), F(1, 2)),
    (F(1, 5), F(1, 2)),
    (F(1, 4), F(1, 2)),
    (F(1, 2), F(3, 4)),
    (F(1, 4), F(2, 3)),
    (F(1, 5), F(2, 3)),
    (F(3, 10), F(3, 4)),
    (F(1, 3), F(2, 3)),
    (F(1, 6), F(1, 3)),
    (F(1, 8), F(1, 4)),
    (F(2, 7), F(1, 2)),
    (F(3, 8), F(1, 2)),
    (F(1, 2), F(5, 6)),
    (F(2, 5), F(2, 3)),
    (F(1, 5), F(1, 4)),
    (F(1, 6), F(1, 2)),
    (F(5, 12), F(1, 2)),
]


class TestWindowParams:
    @pytest.mark.parametrize(
        "b,c,expected",
        [
            (F(1, 2), F(2, 3), (1, 2)),
            (F(2, 5), F(1, 2), (2, 3)),
            (F(1, 3), F(1, 2), (1, 2)),
        ],
    )
    def test_examples(self, b, c, expected):
        ch = window_channel(b, c)
        assert (ch.a, ch.d) == expected

    def test_rejects_b_at_least_c(self):
        with pytest.raises(ValueError, match=r"need 0 < b < c < 1, got b=1/2 c=1/2"):
            window_channel(F(1, 2), F(1, 2))

    def test_minimality_and_identity(self):
        for b, c in GRID:
            ch = window_channel(b, c)
            a, d = ch.a, ch.d
            assert math.gcd(a, d) == 1 and 0 < a < d
            assert F(a, d) == b * (1 - c) / (c * (1 - b))
            # equivalent formulation b/a + (1-b)/d = b/(a c)
            assert b / a + (1 - b) / d == b / (a * c)

    def test_channel_invariants(self):
        # the geometry is derived, so no pair, minimal or not, can be given
        with pytest.raises(TypeError):
            WindowChannel(F(1, 2), F(2, 3), 2, 4)
        with pytest.raises(TypeError):
            WindowChannel(F(1, 2), F(2, 3), a=1, d=2)
        ch = WindowChannel(F(1, 2), F(2, 3))
        assert (ch.a, ch.d) == (1, 2)
        assert ch == window_channel("1/2", F(2, 3))


class TestCapacities:
    def test_zero_at_b_equals_c(self):
        assert indep_capacity(F(1, 3), F(1, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_half_two_thirds(self):
        got = indep_capacity(F(1, 2), F(2, 3))
        assert got == pytest.approx(0.1887218755408671, abs=1e-9)
        # independently equals 1 - H(1/4) through the induced binary channel
        assert got == pytest.approx(1 - (0.25 * 2 + 0.75 * math.log2(4 / 3)), abs=1e-12)

    def test_tenth_half(self):
        want = (-(0.1) * math.log2(0.5) + 0.5 * math.log2(0.9)) / 0.5
        assert indep_capacity(F(1, 10), F(1, 2)) == pytest.approx(want, abs=1e-12)

    def test_one_shot_mi_matches_formula_on_grid(self):
        for b, c in GRID:
            ch = window_channel(b, c)
            mi = mutual_information(one_shot_joint(ch), "X", "A")
            assert mi == pytest.approx(indep_capacity(b, c), abs=1e-9), (b, c)

    def test_fixed_capacity_values(self):
        assert fixed_capacity(F(1, 2)) == pytest.approx(2 - math.log2(math.e), abs=1e-12)
        assert fixed_capacity(F(1, 2)) == pytest.approx(0.557305, abs=1e-6)
        assert fixed_capacity(F(3, 4)) == pytest.approx(8 / 3 - math.log2(math.e), abs=1e-12)
        assert fixed_capacity(F(3, 4)) == pytest.approx(1.223972, abs=1e-6)

    def test_fixed_capacity_small_c_limit(self):
        assert fixed_capacity(F(1, 10**6)) == pytest.approx(0.0, abs=1e-5)

    def test_monotone_in_c(self):
        cs = [F(k, 40) for k in range(1, 40)]
        fixed_vals = [fixed_capacity(c) for c in cs]
        assert all(x <= y + 1e-12 for x, y in zip(fixed_vals, fixed_vals[1:]))
        b = F(1, 10)
        indep_vals = [indep_capacity(b, c) for c in cs if c >= b]
        assert all(x <= y + 1e-12 for x, y in zip(indep_vals, indep_vals[1:]))

    def test_fixed_is_small_b_limit_of_indep_per_leaker(self):
        c = F(2, 3)
        target = fixed_capacity(c)
        prev_gap = None
        for k in (10, 100, 1000, 10000):
            b = F(1, k)
            gap = abs(indep_capacity(b, c) / float(b) - target)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-3


class TestLeakMessage:
    def test_singleton_window(self):
        ch = window_channel(F(1, 2), F(2, 3))  # a=1, d=2
        rng = np.random.default_rng(0)
        assert all(leak_message(2, True, ch, rng) == 2 for _ in range(20))

    def test_wraparound_window(self):
        ch = window_channel(F(2, 5), F(1, 2))  # a=2, d=3
        assert set(window(ch, 3)) == {2, 3}
        rng = np.random.default_rng(1)
        seen = {leak_message(3, True, ch, rng) for _ in range(200)}
        assert seen == {2, 3}

    def test_innocent_uniform_chi_square(self):
        ch = window_channel(F(2, 5), F(1, 2))
        rng = np.random.default_rng(2)
        n = 100_000
        counts = np.bincount(
            [leak_message(1, False, ch, rng) for _ in range(n)], minlength=ch.d + 1
        )[1:]
        expected = n / ch.d
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16  # df=2, this is far beyond any reasonable quantile

    def test_window_membership_matches_enumeration(self):
        for b, c in GRID[:8]:
            ch = window_channel(b, c)
            for x in range(1, ch.d + 1):
                win = set(window(ch, x))
                for m in range(1, ch.d + 1):
                    assert in_window(ch, m, x) == (m in win)


class TestPosteriorLeak:
    def test_outside_window_zero(self):
        ch = window_channel(F(1, 2), F(2, 3))
        assert posterior_leak(1, 2, ch) == 0

    def test_inside_window_exactly_c(self):
        ch = window_channel(F(1, 2), F(2, 3))
        assert posterior_leak(2, 2, ch) == F(2, 3)

    def test_grid_exactness(self):
        for b, c in GRID:
            ch = window_channel(b, c)
            for x in range(1, ch.d + 1):
                for m in range(1, ch.d + 1):
                    post = posterior_leak(m, x, ch)
                    assert post == (c if in_window(ch, m, x) else 0)

    @pytest.mark.parametrize(
        "message,symbol,name",
        [(3, 1, "message"), (0, 1, "message"), (1, 3, "symbol"), (1, -1, "symbol")],
    )
    def test_rejects_values_outside_the_alphabet(self, message, symbol, name):
        # mod d = 2 a 3 lands in a window and would read c, although
        # window(ch, 3) raises
        ch = window_channel(F(1, 2), F(2, 3))
        with pytest.raises(ValueError, match=r"%s must be in 1\.\.2" % name):
            posterior_leak(message, symbol, ch)


class TestCodebook:
    def test_seed_replay(self):
        a = random_codebook(3, 5, 4, seed=99)
        b = random_codebook(3, 5, 4, seed=99)
        assert np.array_equal(a.symbols, b.symbols)

    def test_shape(self):
        book = random_codebook(2, 4, 2, seed=1)
        assert book.symbols.shape == (4, 4)
        assert set(np.unique(book.symbols)) <= {1, 2}

    def test_symbol_frequencies(self):
        book = random_codebook(10, 64, 4, seed=5)
        freq = np.bincount(book.symbols.ravel(), minlength=5)[1:] / book.symbols.size
        assert np.allclose(freq, 0.25, atol=0.02)

    def test_memory_budget(self):
        with pytest.raises(MemoryError):
            random_codebook(40, 100, 2, seed=0)

    @pytest.mark.parametrize("h,n", [(29, 0), (20000, 4), (10**6, 4)])
    def test_memory_budget_is_checked_before_2_to_the_h(self, h, n):
        # a large h built the int 2^h first, and printing it raised
        # ValueError past 4300 digits; empty codewords still count one entry
        with pytest.raises(MemoryError, match="exceeds the"):
            random_codebook(h, n, 2, seed=0)

    def test_json_regeneration_contract(self):
        book = random_codebook(4, 10, 3, seed=123)
        data = book.to_jsonable()
        assert set(data) == {"seed", "h", "n", "d", "stream"} and data["stream"] == 2
        again = Codebook.from_jsonable(data)
        assert np.array_equal(book.symbols, again.symbols)

    def test_equality(self):
        # a book is its fields, so equal fields are the same draw
        book = random_codebook(3, 5, 2, 1)
        assert book == random_codebook(3, 5, 2, 1)
        assert book != random_codebook(3, 5, 2, 2)
        assert book != random_codebook(3, 6, 2, 1)
        assert book == Codebook(3.0, 5, 2, 1)
        assert repr(book) == "Codebook(h_bits=3.0, n=5, d=2, seed=1)"
        assert book != "book"
        assert Codebook.from_jsonable(book.to_jsonable()) == book

    def test_equal_books_hash_equal(self):
        book = random_codebook(3, 5, 2, 1)
        same = [random_codebook(3.0, 5, 2, 1), Codebook(3.0, 5, 2, 1),
                Codebook.from_jsonable(book.to_jsonable())]
        assert all(other == book and hash(other) == hash(book) for other in same)
        assert len({book, *same, random_codebook(3, 5, 2, 2)}) == 2

    def test_a_book_is_its_four_fields(self, monkeypatch):
        # nothing read from a book is kept on it: not its symbols, its rows,
        # the planes the decoder reads, nor what either experiment reads
        fields = ["d", "h_bits", "n", "seed"]
        assert sorted(field.name for field in dataclasses.fields(Codebook)) == fields
        made = []
        draw = coding.random_codebook

        def recorded(*args):
            made.append(draw(*args))
            return made[-1]

        monkeypatch.setattr(coding, "random_codebook", recorded)
        ch = window_channel(F(1, 4), F(1, 2))  # d = 3
        book = coding.random_codebook(6, 30, ch.d, 9)
        assert book.symbols.shape == (64, 30) and book.rows([3, -1]).shape == (2, 30)
        assert ml_decode(book, book.row(5), ch) == 5
        run_indep_experiment(F(1, 2), F(2, 3), F(1, 10), 40, 5, seed=4)
        fixed_two_group_run(2, 20, F(1, 2), F(1, 10), 5, seed=4)
        assert len(made) == 4
        assert all(sorted(vars(made_book)) == fields for made_book in made)
        with pytest.raises(dataclasses.FrozenInstanceError):
            book.seed = 10


def one_shot_book(h, n, d, seed):
    """The whole book drawn by one generator call: random_codebook's book
    at d = 1 and at powers of two, which reject no raw value."""
    dtype = np.uint8 if d < 256 else np.uint16
    count = 2 ** math.ceil(h)
    return np.random.default_rng(seed).integers(1, d + 1, size=(count, n), dtype=dtype)


def block_book(h, n, d, seed):
    """The book drawn block by block: block k of R rows (R a multiple of 8
    near _PLANE_BLOCK_SYMBOLS symbols) is one generator call on the seed's
    generator advanced 2^64 k raw words. random_codebook's book at any d
    that rejects raw values."""
    dtype = np.uint8 if d < 256 else np.uint16
    count = 2 ** math.ceil(h)
    per = -(-max(1, coding._PLANE_BLOCK_SYMBOLS // max(n, 1)) // 8) * 8
    blocks = []
    for start in range(0, count, per):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(start // per * 2**64)
        blocks.append(rng.integers(1, d + 1, size=(min(per, count - start), n), dtype=dtype))
    return np.concatenate(blocks)


def drawn_book(h, n, d, seed):
    """random_codebook's book: one_shot_book where d rejects no raw value,
    else block_book."""
    rejects = (256 if d < 256 else 65536) % d
    return (block_book if rejects else one_shot_book)(h, n, d, seed)


def reference_pack(bits):
    """(rows, n) array, nonzero meaning a set bit, packed row by row into
    (words, rows) uint64 words with zero padding."""
    rows, n = bits.shape
    packed = np.zeros((rows, 8 * -(-n // 64)), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(bits, axis=1)
    return packed.view(np.uint64).T


def reference_planes(symbols, d):
    """Bit k of every symbol minus one, packed per codeword into uint64
    words with zero padding, as (planes, words, codewords)."""
    depth = max(1, (d - 1).bit_length())
    values = symbols.astype(np.int64) - 1
    return np.array([reference_pack(values >> k & 1) for k in range(depth)])


def whole_planes(book):
    """The planes the decoder reads of a whole book, in one chunk."""
    return next(book._chunks(book.message_count))[1]


class CraftedBook:
    """A book of given symbols, for the decoder only: it reads n, d,
    message_count and the planes of ``_chunks(width)``, here slices of
    ``reference_planes``."""

    def __init__(self, symbols, d):
        self.symbols = np.asarray(symbols, dtype=np.uint8 if d < 256 else np.uint16)
        self.message_count, self.n = self.symbols.shape
        self.d = d
        self.planes = reference_planes(self.symbols, d)

    def row(self, x):
        return self.symbols[x]

    def _chunks(self, width):
        for start in range(0, self.message_count, width):
            yield start, self.planes[:, :, start : start + width]


@pytest.fixture
def no_symbol_matrix(monkeypatch):
    """Fail any read of Codebook.symbols."""
    def refuse(book):
        raise AssertionError("the symbol matrix was built")

    monkeypatch.setattr(Codebook, "symbols", property(refuse))


class TestStreamedCodebook:
    # with 64 values per block, every block holds 8 rows (at n = 5, 16), so
    # a book of 64 rows spans several blocks; a power of two reads them in
    # place, any other d draws each from its own stream offset. n = 64
    # fills whole words and n = 200 whole bytes
    @pytest.mark.parametrize(
        "d", [1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 300, 512, 1024, 32768]
    )
    @pytest.mark.parametrize("n", [5, 37, 70, 64, 200])
    def test_matches_one_shot_draw(self, monkeypatch, d, n):
        monkeypatch.setattr(coding, "_PLANE_BLOCK_SYMBOLS", 64)
        want = drawn_book(6, n, d, seed=2024)
        book = random_codebook(6, n, d, seed=2024)
        assert np.array_equal(whole_planes(book), reference_planes(want, d))
        assert book.message_count == len(want)
        for x in (0, 1, 11, 12, 37, len(want) - 1, -1):
            row = book.row(x)
            assert row.dtype == want.dtype and np.array_equal(row, want[x])
        symbols = random_codebook(6, n, d, seed=2024).symbols
        assert symbols.dtype == want.dtype and np.array_equal(symbols, want)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        h=st.floats(0, 5),
        n=st.integers(0, 90),
        d=st.integers(1, 600),
        block=st.integers(1, 200),
    )
    def test_any_block_size_matches_one_shot_draw(self, seed, h, n, d, block):
        with mock.patch.object(coding, "_PLANE_BLOCK_SYMBOLS", block):
            book = random_codebook(h, n, d, seed)
            want = drawn_book(h, n, d, seed)
            assert np.array_equal(whole_planes(book), reference_planes(want, d))
            # the draw block size is part of a book that rejects values
            assert np.array_equal(book.symbols, want)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        h=st.floats(0, 6),
        n=st.integers(0, 90),
        d=st.sampled_from([1, 2, 4, 8, 128, 256, 512, 32768]),
        block=st.integers(1, 300),
        data=st.data(),
    )
    def test_books_that_reject_nothing_are_one_call_at_any_block_size(self, seed, h, n, d, block, data):
        # their blocks follow each other in one stream, so the block size
        # is not part of the book: it stays the one-call draw of stream 1
        want = one_shot_book(h, n, d, seed)
        xs = data.draw(st.lists(st.integers(-len(want), len(want) - 1), max_size=6))
        book = random_codebook(h, n, d, seed)
        with mock.patch.object(coding, "_PLANE_BLOCK_SYMBOLS", block):
            assert np.array_equal(book.rows(xs), want[xs])
            assert np.array_equal(whole_planes(book), reference_planes(want, d))

    @pytest.mark.parametrize("d", [3, 5, 255, 257, 300])
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_other_books_start_each_block_at_its_own_offset(self, monkeypatch, d, n):
        # block k is one integers call 2^64 k raw words into the stream,
        # whatever was rejected in the blocks before it; n = 0 draws
        # empty rows
        monkeypatch.setattr(coding, "_PLANE_BLOCK_SYMBOLS", 64)
        book = random_codebook(7, n, d, seed=11)
        want = block_book(7, n, d, seed=11)
        assert len(want) == 128 and coding._block_rows(n) <= 64
        assert np.array_equal(book.rows(range(128)), want)
        assert np.array_equal(book.symbols, want)
        if n:
            assert not np.array_equal(want, one_shot_book(7, n, d, seed=11))

    @pytest.mark.parametrize(
        "n,d,message",
        [(4, 0, "codebook d"), (4, -3, "codebook d"), (4, 65536, "codebook d"),
         (-1, 2, "codebook n"), (-70, 3, "codebook n")],
    )
    def test_rejects_out_of_range_alphabet_and_length(self, n, d, message):
        with pytest.raises(ValueError, match=message):
            random_codebook(3, n, d, seed=1)

    @pytest.mark.parametrize("d", [np.int64(3), np.uint8(3), np.int32(9)])
    def test_numpy_integer_alphabet_and_length_match_python_ints(self, d):
        book = random_codebook(3, np.int64(5), d, seed=1)
        want = random_codebook(3, 5, int(d), seed=1)
        assert type(book.d) is int and type(book.n) is int
        assert (book.n, book.d) == (want.n, want.d)
        assert np.array_equal(whole_planes(book), whole_planes(want))

    @pytest.mark.parametrize(
        "n,d,message",
        [(5, 3.5, "codebook d must be an integer, got 3.5"),
         (5, "3", "codebook d must be an integer, got '3'"),
         (5, 3.0, "codebook d must be an integer, got 3.0"),
         (5.5, 3, "codebook n must be an integer, got 5.5")],
    )
    def test_rejects_non_integral_alphabet_and_length(self, n, d, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            random_codebook(3, n, d, seed=1)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(0, 70),
        n=st.integers(0, 200),
        dtype=st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]),
        seed=st.integers(0, 2**32 - 1),
        spare_rows=st.integers(0, 3),
    )
    def test_flat_pack_matches_per_row_packbits(self, rows, n, dtype, seed, spare_rows):
        # the buffer may be taller than the block and keeps stale bits in
        # rows past it, as when a block is shorter than the one before
        bits = min(np.iinfo(dtype).bits, 63)
        values = np.random.default_rng(seed).integers(0, 2**bits, size=(rows, n), dtype=dtype)
        buf = np.zeros((rows + spare_rows, 64 * -(-n // 64)), dtype=np.uint8)
        buf[rows:, :n] = 1
        for bit in sorted({0, 1, bits // 2, bits - 1}):
            want = reference_pack(values >> bit & 1)
            got = coding._pack_bit(values, bit, buf)
            assert got.shape == want.shape == (-(-n // 64), rows)
            assert np.array_equal(got, want)

    def test_equality_reads_planes_only(self, no_symbol_matrix, monkeypatch):
        # equality compares the four fields and draws nothing
        monkeypatch.setattr(coding, "_drawn_blocks", None)
        book = random_codebook(5, 33, 4, seed=1)
        assert book == random_codebook(5, 33, 4, seed=1)
        assert book != random_codebook(5, 33, 4, seed=2)
        assert book != random_codebook(5, 33, 8, seed=1)

    def test_experiments_never_build_the_symbol_matrix(self, no_symbol_matrix):
        rep = run_indep_experiment(F(1, 2), F(2, 3), F(1, 10), 40, 5, seed=4)
        assert rep.trials == 5
        rep = fixed_two_group_run(2, 20, F(1, 2), F(1, 10), 5, seed=4)
        assert rep.trials == 5
        ch = window_channel(F(1, 4), F(1, 2))
        book = random_codebook(4, 30, ch.d, seed=9)
        want = drawn_book(4, 30, ch.d, seed=9)
        assert book.message_count == len(want)
        assert all(np.array_equal(book.row(x), want[x]) for x in range(-len(want), len(want)))
        assert ml_decode(book, book.row(7), ch) == 7

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.floats(0, 6),
        n=st.integers(1, 130),
        d=st.sampled_from([2, 3, 4, 5, 9, 16, 256, 300]),
        seed=st.integers(0, 2**64),
    )
    def test_json_round_trip(self, h, n, d, seed):
        book = random_codebook(h, n, d, seed)
        again = Codebook.from_jsonable(json.loads(json.dumps(book.to_jsonable())))
        assert again == book
        assert (again.h_bits, again.n, again.d, again.seed) == (book.h_bits, n, d, seed)
        assert np.array_equal(again.symbols, drawn_book(h, n, d, seed))

    @pytest.mark.parametrize(
        "field,value",
        [("n", 4.9), ("d", 2.5), ("seed", 1.5), ("seed", "1"), ("n", None), ("d", False),
         ("h", -2), ("h", -0.5), ("h", "3"), ("h", float("inf")), ("h", float("nan")),
         ("h", True)],
    )
    def test_from_jsonable_rejects_malformed_fields(self, field, value):
        data = dict({"seed": 2, "h": 3, "n": 4, "d": 2}, **{field: value})
        with pytest.raises(ValueError, match="codebook " + field):
            Codebook.from_jsonable(data)

    @pytest.mark.parametrize("h", [True, "3", -2, float("nan"), float("inf")])
    def test_random_codebook_rejects_malformed_h(self, h):
        # True once drew a 2-codeword book and "3" raised a bare TypeError
        with pytest.raises(ValueError, match="codebook h"):
            random_codebook(h, 4, 2, 0)

    @pytest.mark.parametrize(
        "fields,error,message",
        [((-1.0, 5, 2, 1), ValueError, "codebook h must be finite and >= 0, got -1.0"),
         ((40.0, 100, 2, 0), MemoryError, "codebook of 2^40 x 100 symbols exceeds"),
         ((3.0, 5, 0, 1), ValueError, "codebook d must be in 1..65535, got 0"),
         ((3.0, -1, 2, 1), ValueError, "codebook n must be >= 0, got -1"),
         ((True, 5, 2, 1), ValueError, "codebook h must be a number, got True")],
    )
    def test_a_book_built_directly_checks_its_fields(self, fields, error, message):
        # once a shift error, a book of 2^40 messages and a ZeroDivisionError
        # from rows: only random_codebook and from_jsonable checked
        with pytest.raises(error, match=re.escape(message)):
            Codebook(*fields)

    @pytest.mark.parametrize(
        "stream,message",
        [(3, "codebook stream must be 1 or 2, got 3"), (0, "codebook stream must be 1 or 2, got 0"),
         (True, "codebook stream must be an integer, got True"),
         (1.5, "codebook stream must be an integer, got 1.5"),
         (1, "codebook stream 1 names another book than stream 2 at d=3")],
    )
    def test_from_jsonable_refuses_other_streams(self, stream, message):
        data = {"seed": 2, "h": 3, "n": 4, "d": 3, "stream": stream}
        with pytest.raises(ValueError, match=re.escape(message)):
            Codebook.from_jsonable(data)

    @pytest.mark.parametrize("d", [1, 2, 4, 256, 32768])
    def test_stream_1_is_read_where_nothing_is_rejected(self, d):
        # books written before the stream field name the one-call draw,
        # which is this book at d = 1 and at powers of two
        book = Codebook.from_jsonable({"seed": 2, "h": 3, "n": 4, "d": d})
        assert book == random_codebook(3, 4, d, 2) == Codebook.from_jsonable(book.to_jsonable())
        assert np.array_equal(book.symbols, one_shot_book(3, 4, d, 2))

    def test_from_jsonable_accepts_integral_floats(self):
        data = {"seed": 2.0, "h": 3, "n": 4.0, "d": 2.0}
        assert Codebook.from_jsonable(data) == random_codebook(3, 4, 2, 2)


class TestMlDecode:
    def test_exact_codeword(self):
        ch = window_channel(F(1, 2), F(2, 3))
        book = random_codebook(3, 12, ch.d, seed=7)
        for x in range(book.message_count):
            got = ml_decode(book, book.row(x), ch)
            if got is not None:
                assert np.array_equal(book.row(got), book.row(x)) or got == x

    def test_three_quarter_match(self):
        ch = window_channel(F(1, 2), F(2, 3))
        book = CraftedBook([[1, 1, 1, 1], [2, 2, 2, 2]], 2)
        assert ml_decode(book, np.array([1, 1, 1, 2]), ch) == 0

    def test_tie_returns_none(self):
        ch = window_channel(F(1, 2), F(2, 3))
        book = CraftedBook([[1, 2], [2, 1]], 2)
        assert ml_decode(book, np.array([1, 1]), ch) is None

    @pytest.mark.parametrize("b,c", [(F(1, 2), F(2, 3)), (F(2, 5), F(1, 2))])
    def test_matches_brute_force_likelihood(self, b, c):
        ch = window_channel(b, c)
        n = 5
        book = random_codebook(2, n, ch.d, seed=31)
        in_w = float(ch.b / ch.a + (1 - ch.b) / ch.d)
        out_w = float((1 - ch.b) / ch.d)
        symbols = book.symbols
        for transcript in itertools.product(range(1, ch.d + 1), repeat=n):
            t = np.array(transcript)
            likes = []
            for x in range(book.message_count):
                like = 1.0
                for j, m in enumerate(transcript):
                    like *= in_w if in_window(ch, m, int(symbols[x, j])) else out_w
                likes.append(like)
            best = max(likes)
            winners = [x for x, v in enumerate(likes) if v == best]
            got = ml_decode(book, t, ch)
            if len(winners) > 1 or [
                x for x in range(book.message_count)
                if np.array_equal(symbols[x], symbols[winners[0]])
            ] != [winners[0]]:
                # duplicate-row or genuine ties may resolve either way; the
                # decoder must still pick a maximizer or report a tie
                assert got is None or got in winners
            else:
                assert got == winners[0]


# (a, d) = (1, 2), (1, 3), (2, 3), (1, 9)
DECODE_CHANNELS = [
    (F(1, 2), F(2, 3)),
    (F(1, 4), F(1, 2)),
    (F(1, 2), F(3, 5)),
    (F(1, 10), F(1, 2)),
]


def brute_force_decode(book, transcript, ch):
    """Per-codeword in-window match count; first maximizer, None on a tie."""
    t = np.asarray(transcript, dtype=np.int64)
    scores = [int(np.count_nonzero(in_window(ch, t, row.astype(np.int64)))) for row in book.symbols]
    best = max(scores)
    return scores.index(best) if scores.count(best) == 1 else None


def decode_case(b, c, n, count, duplicates, seed):
    """A book with some rows copied over others and transcripts of three
    kinds: sent codewords, exact copies of codewords, and uniform noise."""
    ch = window_channel(b, c)
    rng = np.random.default_rng(seed)
    symbols = rng.integers(1, ch.d + 1, size=(count, n), dtype=np.uint8)
    for _ in range(duplicates):
        symbols[rng.integers(count)] = symbols[rng.integers(count)]
    book = CraftedBook(symbols, ch.d)
    sent = [
        leak_message(book.row(rng.integers(count)), rng.random(n) < float(ch.b), ch, rng)
        for _ in range(4)
    ]
    copies = [book.row(rng.integers(count)).astype(np.int64) for _ in range(2)]
    noise = [rng.integers(1, ch.d + 1, size=n) for _ in range(3)]
    return ch, book, np.array(sent + copies + noise)


class TestBatchedDecode:
    @settings(max_examples=80, deadline=None)
    @given(
        channel=st.sampled_from(DECODE_CHANNELS),
        # 255 and 256 sit on either side of the one-byte mismatch counts
        n=st.sampled_from([1, 5, 13, 63, 65, 130, 255, 256]),
        count=st.integers(1, 24),
        duplicates=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        block_words=st.sampled_from([1 << 17, 7, 40]),
        group=st.sampled_from([64, 2]),
    )
    def test_matches_brute_force(self, channel, n, count, duplicates, seed, block_words, group):
        # small blocks and groups put ties and maxima across block and
        # group boundaries
        ch, book, transcripts = decode_case(*channel, n, count, duplicates, seed)
        want = [brute_force_decode(book, t, ch) for t in transcripts]
        with mock.patch.object(coding, "_BLOCK_WORDS", block_words), \
                mock.patch.object(coding, "_GROUP", group):
            assert coding._decode_batch(book, transcripts, ch) == want
        assert [ml_decode(book, t, ch) for t in transcripts] == want

    def test_count_of_every_position_does_not_wrap(self):
        """At n = 256 a codeword can mismatch all 256 positions, one more
        than a byte holds: codeword 0 misses everywhere and codeword 1
        everywhere but once, so 1 is decoded, where a byte-wide count would
        read codeword 0's 256 as 0 and decode 0."""
        ch = window_channel(F(1, 2), F(2, 3))  # a = 1, d = 2
        symbols = np.ones((2, 256), dtype=np.uint8)
        symbols[1, 100] = 2
        book = CraftedBook(symbols, 2)
        assert ml_decode(book, [2] * 256, ch) == 1

    @pytest.mark.parametrize("block_words", [1, 10, 15])
    def test_minimum_and_ties_across_later_chunks(self, monkeypatch, block_words):
        """Codewords of 8 positions, codeword i holding scores[i] ones, in
        chunks of one to three codewords (here a codeword takes 38 bytes of
        the chunk budget): a transcript of 2s mismatches codeword i at
        scores[i] positions, one of 1s at 8 - scores[i]."""
        ch = window_channel(F(1, 2), F(2, 3))  # a = 1, d = 2
        widths = []
        chunks = CraftedBook._chunks

        def spy(book, width):
            widths.append(width)
            return chunks(book, width)

        monkeypatch.setattr(CraftedBook, "_chunks", spy)
        monkeypatch.setattr(coding, "_BLOCK_WORDS", block_words)
        cases = [
            # the minimum 3 first comes at 3 and again at 6: a tie
            ([6, 5, 7, 3, 8, 4, 3, 5], [None, 4]),
            # after that tie a lower 2 at 7 is alone
            ([6, 5, 7, 3, 8, 4, 3, 2, 7], [7, 4]),
            # equal minima in earlier chunks are overtaken; the maximum 6
            # ties across chunks
            ([3, 3, 5, 2, 6, 2, 6, 1, 4], [7, None]),
            ([6, 5, 7, 3, 8, 4, 4, 5], [3, 4]),
        ]
        for scores, want in cases:
            book = CraftedBook([[1] * k + [2] * (8 - k) for k in scores], 2)
            transcripts = np.array([[2] * 8, [1] * 8, [1, 2] * 4])
            got = coding._decode_batch(book, transcripts, ch)
            assert got[:2] == want
            assert got == [brute_force_decode(book, t, ch) for t in transcripts]
            assert -(-len(scores) // widths[-1]) >= 3  # over three chunks or more

    def test_popcount_fallback_without_bitwise_count(self, monkeypatch):
        ch, book, transcripts = decode_case(F(1, 2), F(3, 5), 70, 300, 20, seed=9)
        words = np.random.default_rng(1).integers(0, 2**63, size=(5, 64), dtype=np.uint64)
        words[0, :3] = [0, 2**64 - 1, 2**63]
        want_counts = [[bin(int(w)).count("1") for w in row] for row in words]
        want = coding._decode_batch(book, transcripts, ch)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert not hasattr(np, "bitwise_count")
        got_counts = coding._popcount(words, np.empty(words.shape, dtype=np.uint8))
        assert got_counts.tolist() == want_counts
        assert coding._decode_batch(book, transcripts, ch) == want
        assert want == [brute_force_decode(book, t, ch) for t in transcripts]

    def test_bit_planes_of_binary_book_are_its_packed_bits(self):
        book = random_codebook(6, 70, 2, seed=3)
        planes = whole_planes(book)
        assert planes.shape == (1, 2, 64)
        packed = np.packbits(book.symbols - 1, axis=1)
        words = np.zeros((64, 16), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        assert np.array_equal(planes[0].T, words.view(np.uint64))

    def test_rejects_messages_outside_alphabet(self):
        ch = window_channel(F(1, 4), F(1, 2))  # d = 3
        book = random_codebook(3, 6, 3, seed=1)
        for bad in ([0] * 6, [1, 2, 3, 7, 1, 2], [1, 2, 3, -1, 1, 2]):
            with pytest.raises(ValueError, match="1..3"):
                ml_decode(book, bad, ch)
        # these were truncated or parsed into messages in 1..3 and decoded
        row = book.row(5).astype(np.int64)
        for bad in (row + 0.5, list(row + 0.5), [str(m) for m in row], row.astype(str),
                    [True] * 6, [1, 2, True, 3, 1, 2], np.ones(6, dtype=bool), [1, 2, 3, 1, 2, None]):
            with pytest.raises(ValueError, match="transcript messages must be an integer"):
                ml_decode(book, bad, ch)

    def test_accepts_integral_floats_and_numpy_integers(self):
        ch = window_channel(F(1, 4), F(1, 2))
        book = random_codebook(6, 40, 3, seed=2)
        row = book.row(17)
        want = ml_decode(book, [int(m) for m in row], ch)
        assert want == 17
        for same in (row, row.astype(np.int64), row.astype(float), list(row.astype(float)),
                     list(row), row.astype(np.float32)):
            assert ml_decode(book, same, ch) == want

    def test_rejects_alphabet_mismatch(self):
        book = random_codebook(3, 5, 2, seed=2)
        with pytest.raises(ValueError, match="does not match"):
            ml_decode(book, [1, 2, 2, 1, 2], window_channel(F(1, 4), F(1, 2)))


# a window channel per d: b = a / (a + d) and c = 1/2 give exactly (a, d)
STREAM_CHANNELS = {
    d: window_channel(F(a, a + d), F(1, 2))
    for d, a in ((2, 1), (3, 2), (4, 3), (5, 2), (256, 1), (257, 3))
}


def vector_decode(book, transcripts, ch):
    """First codeword with the most in-window matches per transcript, None
    on a tie, scored on the whole symbol matrix at once."""
    symbols = book.symbols.astype(np.int64)[None]
    t = np.asarray(transcripts, dtype=np.int64)[:, None, :]
    scores = ((t - 1 - (symbols - 1) * ch.a) % ch.d < ch.a).sum(axis=2)
    best = scores.max(axis=1, keepdims=True)
    winners = (scores == best).sum(axis=1)
    return [int(x) if k == 1 else None for x, k in zip(scores.argmax(axis=1), winners)]


class TestStreamedDecode:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from(sorted(STREAM_CHANNELS)),
        h=st.floats(0, 7),
        n=st.integers(1, 140).filter(lambda n: n % 64),
        transcripts=st.integers(1, 70),
        block_words=st.sampled_from([1, 3, 40, 1 << 17]),
        block_symbols=st.sampled_from([1, 64, 333]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_and_held_books_decode_alike(
        self, d, h, n, transcripts, block_words, block_symbols, seed
    ):
        # small chunks and draw blocks make chunk boundaries and draw blocks
        # misalign; copied rows, noise and a short n give ties. The draw
        # block size is part of the book at a d that rejects values, so the
        # streamed book and the crafted copy of its symbols are read under it
        ch = STREAM_CHANNELS[d]
        with mock.patch.object(coding, "_PLANE_BLOCK_SYMBOLS", block_symbols):
            lazy = random_codebook(h, n, d, seed)
            held = CraftedBook(lazy.symbols, d)
            rng = np.random.default_rng(seed)
            rows = held.symbols[rng.integers(held.message_count, size=transcripts)].astype(np.int64)
            sent = leak_message(rows, rng.random(rows.shape) < float(ch.b), ch, rng)
            noise = rng.integers(1, d + 1, size=rows.shape)
            batch = np.where(rng.random((transcripts, 1)) < 0.3, noise, sent)
            batch[: transcripts // 4] = rows[: transcripts // 4]
            with mock.patch.object(coding, "_BLOCK_WORDS", block_words):
                got = coding._decode_batch(lazy, batch, ch)
                assert got == coding._decode_batch(held, batch, ch)
        assert got == vector_decode(held, batch, ch)

    @pytest.mark.parametrize("d", [2, 4, 16, 256, 1024])
    @pytest.mark.parametrize("n", [33, 70])
    def test_rows_jump_the_stream(self, no_symbol_matrix, d, n):
        # rows of 33 or 70 symbols are not word-aligned; the draw's blocks
        # hold ``step`` whole rows each
        want = one_shot_book(13, n, d, seed=2024)
        book = random_codebook(13, n, d, seed=2024)
        step = -(-max(1, coding._PLANE_BLOCK_SYMBOLS // n) // 8) * 8
        assert 2 * step + 1 < len(want)
        for x in (0, 1, step - 1, step, step + 1, 2 * step, len(want) - 1, -1, -len(want)):
            row = book.row(x)
            assert row.dtype == want.dtype and np.array_equal(row, want[x])
        for x in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                book.row(x)

    @pytest.mark.parametrize("b,c", [(F(1, 2), F(2, 3)), (F(1, 4), F(1, 2))])  # d = 2, 3
    def test_decode_never_builds_the_planes(self, no_symbol_matrix, b, c):
        ch = window_channel(b, c)
        data = {"seed": 5, "h": 12, "n": 100, "d": ch.d, "stream": 2}
        sent = drawn_book(12, 100, ch.d, seed=5)[3001]
        book = Codebook.from_jsonable(data)
        assert book == Codebook.from_jsonable(data)
        assert ml_decode(book, sent, ch) == 3001

    @pytest.mark.parametrize("b,c", [(F(1, 2), F(2, 3)), (F(1, 4), F(4, 7))])  # d = 2, 4
    def test_indep_leak_never_builds_the_planes(self, no_symbol_matrix, b, c):
        rep = run_indep_experiment(b, c, F(1, 10), 120, 20, seed=9)
        assert rep.trials == 20 and rep.decode_errors + rep.tie_errors <= 4

    @pytest.mark.parametrize("b,c", [(F(1, 4), F(1, 2)), (F(2, 7), F(1, 2))])  # d = 3, 5
    def test_indep_leak_over_other_alphabets_never_builds_the_planes(self, no_symbol_matrix, b, c):
        # a 2^10 x 300 book spans three draw blocks
        rep = run_indep_experiment(b, c, F(1, 30), 300, 20, seed=9)
        assert rep.trials == 20 and rep.decode_errors + rep.tie_errors <= 4

    def test_fixed_leak_never_builds_the_planes(self, no_symbol_matrix, monkeypatch):
        # (a, d) = (3, 38): each of the two 2^10 x 200 books spans seven
        # draw blocks of 168 rows, which at this d are part of the book
        monkeypatch.setattr(coding, "_PLANE_BLOCK_SYMBOLS", 1 << 15)
        rep = fixed_two_group_run(10, 200, F(3, 4), 1, 6, seed=5)
        assert (rep.trials, rep.decode_errors, rep.tie_errors) == (6, 4, 1)
        assert rep.max_posterior_seen == F(10, 21)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([3, 5, 6, 257]),
        h=st.floats(0, 7),
        n=st.integers(0, 90),
        block=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_rows_match_one_shot_draw(self, d, h, n, block, seed, data):
        # small draw blocks put the wanted rows in many blocks; indices come
        # unsorted, repeated and negative
        with mock.patch.object(coding, "_PLANE_BLOCK_SYMBOLS", block):
            want = drawn_book(h, n, d, seed)
            count = len(want)
            xs = data.draw(st.lists(st.integers(-count, count - 1), max_size=12))
            book = random_codebook(h, n, d, seed)
            rows = book.rows(xs)
        assert rows.dtype == want.dtype and rows.shape == (len(xs), n)
        assert np.array_equal(rows, want[xs])

    def test_decode_chunk_and_scratch_share_one_budget(self, monkeypatch):
        import tracemalloc

        # a 2^12-word budget is 32 KiB; the draw's temporaries for blocks of
        # 2^12 values and the transcripts' patterns come on top
        monkeypatch.setattr(coding, "_BLOCK_WORDS", 1 << 12)
        monkeypatch.setattr(coding, "_PLANE_BLOCK_SYMBOLS", 1 << 12)
        ch = window_channel(F(1, 4), F(1, 2))  # d = 3
        xs = [5, 9000, 16000, 3, 77, 12345, 4096, 1]
        sent = drawn_book(14, 200, 3, seed=8)[xs]
        book = random_codebook(14, 200, 3, seed=8)
        tracemalloc.start()
        try:
            guesses = coding._decode_batch(book, sent, ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert guesses == xs
        assert peak < 4 * 8 * coding._BLOCK_WORDS

    def test_a_row_draws_only_its_block(self, monkeypatch):
        # the last row of a 2^20 x 200 d = 3 book is in the last of 1,599
        # draw blocks; that block is drawn alone, not after the ones before
        drawn = []

        def counted(*args):
            for block in reader(*args):
                drawn.append(len(block[0]))
                yield block

        reader = coding._drawn_blocks
        monkeypatch.setattr(coding, "_drawn_blocks", counted)
        book = random_codebook(20, 200, 3, seed=4)
        per = -(-(coding._PLANE_BLOCK_SYMBOLS // 200) // 8) * 8
        last = book.rows([-1])[0]
        assert drawn == [2**20 - 2**20 // per * per]
        rng = np.random.default_rng(4)
        rng.bit_generator.advance(2**20 // per * 2**64)
        assert np.array_equal(last, rng.integers(1, 4, size=(drawn[0], 200), dtype=np.uint8)[-1])

    def test_decode_peaks_below_half_the_planes(self, monkeypatch):
        import tracemalloc

        monkeypatch.setattr(coding, "_BLOCK_WORDS", 1 << 12)
        ch = window_channel(F(1, 2), F(2, 3))
        sent = random_codebook(16, 200, 2, seed=8).row(40000)
        planes_bytes = 2**16 * 4 * 8  # one plane of four words per codeword
        tracemalloc.start()
        try:
            guess = ml_decode(random_codebook(16, 200, 2, seed=8), sent, ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert guess == 40000
        assert peak < planes_bytes // 2


class TestIndepExperiment:
    def test_rate_zero_never_fails(self):
        rep = run_indep_experiment(F(1, 2), F(2, 3), 0, 20, 50, seed=3)
        assert rep.decode_errors == 0 and rep.tie_errors == 0
        assert rep.posterior_violations == 0

    def test_posteriors_exact(self):
        rep = run_indep_experiment(F(1, 2), F(2, 3), F(1, 10), 30, 50, seed=4)
        assert rep.posterior_violations == 0
        assert rep.max_posterior_seen in (0, F(2, 3))

    def test_deterministic(self):
        a = run_indep_experiment(F(2, 5), F(1, 2), F(1, 20), 24, 30, seed=11)
        b = run_indep_experiment(F(2, 5), F(1, 2), F(1, 20), 24, 30, seed=11)
        assert (a.decode_errors, a.tie_errors, a.max_posterior_seen) == (
            b.decode_errors,
            b.tie_errors,
            b.max_posterior_seen,
        )

    def test_wrong_window_posterior_raises(self):
        with mock.patch.object(coding, "posterior_leak", return_value=F(1, 2)):
            with pytest.raises(ArithmeticError):
                run_indep_experiment(F(1, 2), F(2, 3), F(1, 10), 20, 5, seed=1)

    def test_negative_trials_raise(self):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            run_indep_experiment(F(1, 2), F(2, 3), F(1, 10), 20, -3, seed=1)

    def test_exact_rate_parsing(self):
        assert exact_rate(0.1) == F(1, 10)
        assert exact_rate(F(1, 3)) == F(1, 3)
        assert exact_rate("3/10") == F(3, 10)


class TestFixedTwoGroup:
    def test_no_leakers(self):
        # pure noise: posteriors all 0. Bits per leaker times zero leakers
        # leaves a one-codeword book, so decoding is vacuous.
        rep = fixed_two_group_run(0, 10, F(2, 3), F(1, 5), 20, seed=5, c_prime=F(1, 2))
        assert rep.max_posterior_seen == 0
        assert rep.posterior_violations == 0
        assert rep.decode_errors + rep.tie_errors == 0

    @pytest.mark.parametrize("l", [0, 5])
    def test_negative_trials_raise(self, l):
        """Also with no leakers, where the run would otherwise return at once."""
        with pytest.raises(ValueError, match="trials must be >= 0"):
            fixed_two_group_run(l, 10, F(3, 4), F(1, 10), -3, seed=1)

    def test_posterior_is_ratio_of_consistents(self):
        rep = fixed_two_group_run(5, 10, F(3, 4), F(1, 10), 40, seed=6, c_prime=F(2, 3))
        # posterior per consistent player is 2l/|K|; |K| >= 2l always
        assert rep.max_posterior_seen <= 1

    def test_desk_scale_margins(self):
        rep = fixed_two_group_run(50, 100, F(3, 4), F(3, 25), 100, seed=7, c_prime=F(2, 3))
        assert rep.posterior_violations / rep.trials < 0.1
        assert rep.failure_rate < 0.2


class TestTwoGroupPosteriorRule:
    def test_consistent_players_posterior_is_2l_over_k(self):
        # oracle: build the two-group construction as a protocol tree at toy
        # scale (4 players, 2 leakers, 1-bit secret per group, d=2) and check
        # on the exact enumerated joint that every player consistent with x
        # has posterior exactly 2l / |K| and everyone else exactly 0
        import itertools

        from cryptogenography.probability import FiniteDist, ZERO
        from cryptogenography.protocols import (
            LeakScenario,
            ProtocolNode,
            ProtocolTree,
            enumerate_joint,
        )

        ch = window_channel(F(1, 2), F(2, 3))  # a=1, d=2
        books = [
            random_codebook(1, 2, ch.d, seed=101),
            random_codebook(1, 2, ch.d, seed=202),
        ]
        xs = tuple(itertools.product((0, 1), (0, 1)))  # (x1, x2)
        sc = LeakScenario.fixed(FiniteDist.uniform(xs), 2, 4)

        alphabet = (1, 2)
        uniform = FiniteDist.uniform(alphabet)

        def symbol(player, x):
            group = 0 if player <= 2 else 1
            pos = (player - 1) % 2
            return int(books[group].row(x[group])[pos])

        def leak_dist(j):
            probs = tuple(
                F(1, ch.a) if in_window(ch, m, j) else ZERO for m in alphabet
            )
            return FiniteDist(alphabet, probs)

        node = None
        for player in (4, 3, 2, 1):
            p_leak = {x: leak_dist(symbol(player, x)) for x in xs}
            node = ProtocolNode(player, alphabet, uniform, p_leak, {m: node for m in alphabet})
        tree = ProtocolTree(node)

        joint = enumerate_joint(tree, sc)
        t_idx = joint.axis_index("T")
        cells = {}
        leak_mass = {}
        for key, p in joint.table.items():
            tx = (key[t_idx], key[0])
            cells[tx] = cells.get(tx, ZERO) + p
            for i in range(1, 5):
                if key[i] == 1:
                    leak_mass[(tx, i)] = leak_mass.get((tx, i), ZERO) + p
        checked = 0
        for (t, x), mass in cells.items():
            consistent = [
                i for i in range(1, 5) if in_window(ch, t[i - 1], symbol(i, x))
            ]
            k = len(consistent)
            for i in range(1, 5):
                post = leak_mass.get(((t, x), i), ZERO) / mass
                if i in consistent:
                    assert post == F(2, k)  # 2l / |K| with 2l = 2 leakers
                else:
                    assert post == 0
                checked += 1
        assert checked > 0


class TestRatioBound:
    def test_two_one(self):
        rb = ratio_bound_check(2, 1)
        assert rb.max_ratio == F(4, 3)
        assert rb.argmax_k == 1
        assert rb.all_at_most_two and rb.unique_peak

    def test_ten_five(self):
        rb = ratio_bound_check(10, 5)
        assert rb.max_ratio <= 2
        assert rb.argmax_k == 5

    def test_matches_direct_fractions(self):
        # every pair with n <= 40 against the max over all k
        for n in range(2, 41):
            for l in range(1, n):
                lo, hi = max(0, 2 * l - n), min(2 * l, n)
                ratios = [hyper_binom_ratio(n, l, k) for k in range(lo, hi + 1)]
                rb = ratio_bound_check(n, l)
                assert rb.max_ratio == max(ratios), (n, l)
                assert rb.argmax_k == lo + ratios.index(max(ratios)) == l, (n, l)
                assert rb.all_at_most_two == all(r <= 2 for r in ratios), (n, l)
                neighbours = zip(range(lo, hi), ratios, ratios[1:])
                peak = all(y > x if k < l else y < x for k, x, y in neighbours)
                assert rb.unique_peak == peak, (n, l)

    def test_range_violation(self):
        with pytest.raises(ValueError):
            ratio_bound_check(5, 5)
        with pytest.raises(ValueError):
            ratio_bound_check(5, 0)

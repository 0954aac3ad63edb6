"""Window-channel leakage codes: capacities, codebooks, decoding, experiments.

The window channel with parameters (b, c, a, d) models one player: an
innocent sender emits a uniform symbol from {1..d}; a leaker holding input
symbol j emits uniformly from the size-a window {(j-1)a+1, ..., ja} taken
mod d into {1..d}. The window geometry is chosen so the posterior leak
probability is exactly c inside the window and exactly 0 outside, which
makes per-trial safety checks rational identities rather than estimates.

Maximum-likelihood decoding counts, per codeword, the received symbols
that fall outside its windows. The decoder reads a codebook as
ceil(log2 d) bit-planes of its symbols minus one, packed 64 positions to a
uint64 word; a received message m is accepted by exactly a codeword
symbols, so a transcript becomes a bit patterns per plane, and the
mismatch count of a codeword is popcount(AND_u OR_k
(plane_k XOR pattern_uk)) summed over its words. The experiments draw
every trial's messages first and decode the whole batch in one pass over
cache-sized chunks of codewords, keeping per transcript the fewest
mismatches, the first codeword reaching it and how many do, so a tie is
reported exactly as with one decode at a time. A chunk is scored by its
minimum first: only a transcript whose chunk minimum reaches its fewest so
far looks for the first codeword and counts the ties. Counts are one byte
wide below n = 256, as a codeword mismatches at most n positions.

A book is its seed: ``Codebook`` is its four fields (h, n, d, seed), and
``random_codebook`` draws nothing. The book is a sequence of draw blocks of
R rows, block k read from the seed's generator advanced to a fixed raw
word, so any block can be drawn alone. The decoder draws the blocks in
order, chunk by chunk, each plane of a block one masked copy into a reused
row-padded buffer and one flat ``packbits``; a chunk's planes and the
decoder's scratch buffers share one budget of ``_BLOCK_WORDS`` words.
``Codebook.rows`` draws only the blocks that hold a wanted row, at every
d, and ``Codebook.symbols`` draws them all; no book keeps what was drawn.

``ratio_bound_check`` decides the fixed-leaker ratio bound for one (n, l)
in O(1): the sign of one linear int expression orders every pair of
neighbouring ratios, so only the peak's exact ratio is built.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .probability import (
    FiniteDist,
    JointDist,
    ZERO,
    _integral,
    as_probability,
    fraction_to_jsonable,
)
from .protocols import LeakScenario, ProtocolNode, ProtocolTree
from .seeds import AUX_STREAM_OFFSET, derive_seed
from .suspicion import fixed_capacity, indep_capacity

__all__ = [
    "WindowChannel",
    "window_channel",
    "window",
    "in_window",
    "indep_capacity",
    "fixed_capacity",
    "leak_message",
    "posterior_leak",
    "Codebook",
    "random_codebook",
    "MAX_CODEBOOK_ENTRIES",
    "ml_decode",
    "ExperimentReport",
    "run_indep_experiment",
    "fixed_two_group_run",
    "RatioBound",
    "ratio_bound_check",
    "one_shot_joint",
    "window_protocol",
    "window_scenario",
    "exact_rate",
]

# random_codebook's cap on the symbols of one book
MAX_CODEBOOK_ENTRIES = 2**28
# the draw behind a seed, written into a book's JSON: stream 1 was one
# generator call over the whole book, 2 is seekable draw blocks
STREAM = 2


def exact_rate(value) -> Fraction:
    """Rates must be exact and >= 0; decimal-looking floats are read via
    their repr so 0.1 means 1/10, not the nearest binary double."""
    rate = Fraction(repr(value)) if isinstance(value, float) else Fraction(value)
    if rate < 0:
        raise ValueError("rate must be >= 0, got %s" % rate)
    return rate


@dataclass(frozen=True)
class WindowChannel:
    """Window geometry for prior leak probability b and target posterior c:
    (a, d) is the smallest pair with a/d = b(1-c)/(c(1-b))."""

    b: Fraction
    c: Fraction
    a: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        b = as_probability(self.b)
        c = as_probability(self.c)
        if not 0 < b < c < 1:
            raise ValueError("need 0 < b < c < 1, got b=%s c=%s" % (b, c))
        ratio = b * (1 - c) / (c * (1 - b))
        for name, value in (("b", b), ("c", c), ("a", ratio.numerator), ("d", ratio.denominator)):
            object.__setattr__(self, name, value)

    def to_jsonable(self) -> dict:
        return {
            "b": fraction_to_jsonable(self.b),
            "c": fraction_to_jsonable(self.c),
            "a": self.a,
            "d": self.d,
        }


def window_channel(b, c) -> WindowChannel:
    return WindowChannel(b, c)


def window(ch: WindowChannel, x_symbol: int) -> tuple:
    """The a messages a leaker may send for input symbol x_symbol (1..d)."""
    if not 1 <= x_symbol <= ch.d:
        raise ValueError("symbol must be in 1..%d" % ch.d)
    base = (x_symbol - 1) * ch.a
    return tuple((base + u - 1) % ch.d + 1 for u in range(1, ch.a + 1))


def in_window(ch: WindowChannel, message: int, x_symbol: int) -> bool:
    return (message - 1 - (x_symbol - 1) * ch.a) % ch.d < ch.a


def leak_message(x_symbol, leaking, ch: WindowChannel, rng):
    """Channel uses: uniform over {1..d} where innocent, uniform over the
    window of x_symbol where leaking. x_symbol (in 1..d) and leaking are
    scalars or arrays of one shape; rng is a numpy Generator.

    Every position's innocent message is drawn first, then every window
    offset, so a trial's stream does not depend on who leaks. A scalar call
    returns an int."""
    x = np.asarray(x_symbol, dtype=np.int64)
    if x.size and (x.min() < 1 or x.max() > ch.d):
        raise ValueError("symbol must be in 1..%d" % ch.d)
    size = x.shape or None
    innocent = rng.integers(1, ch.d + 1, size=size)
    u = rng.integers(0, ch.a, size=size)
    msgs = np.where(leaking, ((x - 1) * ch.a + u) % ch.d + 1, innocent)
    return int(msgs) if msgs.ndim == 0 else msgs


def posterior_leak(message: int, x_symbol: int, ch: WindowChannel) -> Fraction:
    """Exact Pr(leaking | message, true symbol): 0 outside the window, c inside."""
    for name, value in (("message", message), ("symbol", x_symbol)):
        if not 1 <= value <= ch.d:
            raise ValueError("%s must be in 1..%d, got %r" % (name, ch.d, value))
    if not in_window(ch, message, x_symbol):
        return ZERO
    return (ch.b / ch.a) / (ch.b / ch.a + (1 - ch.b) / ch.d)


# ---------------------------------------------------------------------------
# codebooks and ML decoding

# uint64 words (1 MiB) of one decoder chunk's planes and scratch buffers
# together, small enough to stay in cache
_BLOCK_WORDS = 1 << 17
# transcripts decoded together in one pass over the codebook
_GROUP = 64
# codebook values drawn and packed at a time: a block's temporaries then
# fit in cache. It sets a draw block's rows R, so at a d that rejects
# values it is part of the stream: changing it draws another book
_PLANE_BLOCK_SYMBOLS = 1 << 17


def _pack_bit(values: np.ndarray, bit: int, buf: np.ndarray) -> np.ndarray:
    """(words, rows) uint64 words of bit ``bit`` of a (rows, n) array of
    unsigned values, padding bits zero: the bit is copied into buf (uint8, at
    least rows by 64 words, zero past column n), packed by one ``packbits``.
    Planes and patterns share it, so the bit order in a word never matters."""
    rows, n = values.shape
    if values.itemsize == 1:
        np.bitwise_and(values, 1 << bit, out=buf[:rows, :n])
    else:
        np.right_shift(values, bit, out=buf[:rows, :n], casting="unsafe")
        np.bitwise_and(buf[:rows], 1, out=buf[:rows])
    return np.packbits(buf[:rows]).view(np.uint64).reshape(rows, buf.shape[1] // 64).T


@functools.cache
def _halfword_bits() -> np.ndarray:
    """Set bits of every 16-bit value, built on first use: only numpy
    without bitwise_count needs it."""
    byte_bits = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    return (byte_bits[:, None] + byte_bits[None, :]).ravel()


def _popcount(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Set bits of every uint64 word, written into the uint8 array out."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words, out=out)
    # numpy < 2.0: one table lookup per 16 bits; multiplying by 0x01010101
    # sums a word's four counts (each at most 16) into the top byte
    counts = _halfword_bits()[words.view(np.uint16)].view(np.uint32)
    np.copyto(out, (counts * np.uint32(0x01010101)) >> np.uint32(24), casting="unsafe")
    return out


def _symbol_dtype(d: int):
    return np.uint8 if d < 256 else np.uint16


def _depth(d: int) -> int:
    """Bit-planes of a book over {1..d}."""
    return max(1, (d - 1).bit_length())


def _top_bit(d: int):
    """For a power-of-two d > 1, the bit of a raw B-bit value where its
    symbol minus one starts (it is the value's top log2 d bits); else None."""
    if d > 1 and not d & (d - 1):
        return 8 * np.dtype(_symbol_dtype(d)).itemsize - d.bit_length() + 1
    return None


def _reject_floor(d: int) -> int:
    """2^B mod d, Lemire's rejection threshold: 0 iff no value is rejected."""
    return (1 << 8 * np.dtype(_symbol_dtype(d)).itemsize) % d


def _block_rows(n: int) -> int:
    """Codewords of one draw block: a multiple of 8 near
    ``_PLANE_BLOCK_SYMBOLS`` symbols (at least one row)."""
    return -(-max(1, _PLANE_BLOCK_SYMBOLS // max(n, 1)) // 8) * 8


def _drawn_blocks(seed: int, d: int, n: int, count: int, blocks=None):
    """(block, bit) of draw blocks ``blocks`` (ascending; default all) of
    the book ``random_codebook`` describes, read by one generator advanced
    from block start to block start: bit ``bit + k`` of a (rows, n) block
    is bit k of its symbols - 1."""
    size = np.dtype(_symbol_dtype(d)).itemsize
    value = np.dtype("<u%d" % size)
    floor = _reject_floor(d)
    top = _top_bit(d)
    rows_per = _block_rows(n)
    stride = 1 << 64 if floor else rows_per * n * size // 8
    gen = np.random.default_rng(seed).bit_generator
    at = 0  # the generator's position, in raw words
    for k in range(-(-count // rows_per)) if blocks is None else blocks:
        gen.advance(k * stride - at)
        at = k * stride
        rows = min(rows_per, count - k * rows_per)
        need = rows * n
        if top is not None:
            # nothing is rejected: symbol - 1 is the top bits of each value
            words = -(-need * size // 8)
            values = gen.random_raw(words).astype("<u8", copy=False).view(value)
            at += words
            yield values[:need].reshape(rows, n), top
            continue
        symbols = np.empty(need, dtype=value)
        got = 0
        while got < need:
            words = -(-(need - got) * size // 8)
            values = gen.random_raw(words).astype("<u8", copy=False).view(value)
            at += words
            # values * d wraps to the low half of the product
            values = values[values * d >= floor][: need - got]
            products = np.multiply(values, d, dtype="<u%d" % (2 * size))
            np.right_shift(products, 8 * size, out=symbols[got : got + len(values)], casting="unsafe")
            got += len(values)
        yield symbols.reshape(rows, n), 0


@dataclass(frozen=True)
class Codebook:
    """2^ceil(h) i.i.d. uniform codewords over {1..d}: the seed's draw (see
    ``random_codebook``).

    A book is its four fields and holds nothing else. The decoder streams
    its bit-planes from the seed's draw blocks chunk by chunk, ``rows``
    draws only the blocks holding the rows it is asked for, and ``symbols``
    draws every block again on each read.

    The fields are checked when the book is made, however it is made: h a
    finite real >= 0 (kept as a float), n >= 0 and d in 1..65535 integers
    (ValueError), and at most MAX_CODEBOOK_ENTRIES symbols (read then; an
    empty codeword counts as one), else MemoryError.
    """

    h_bits: float
    n: int
    d: int
    seed: int

    def __post_init__(self):
        h_bits = self.h_bits
        if isinstance(h_bits, bool) or not isinstance(h_bits, numbers.Real):
            raise ValueError("codebook h must be a number, got %r" % (h_bits,))
        if not 0 <= h_bits < math.inf:
            raise ValueError("codebook h must be finite and >= 0, got %r" % (h_bits,))
        n = _integral("codebook n", self.n)
        d = _integral("codebook d", self.d)
        if not 1 <= d < 1 << 16:
            raise ValueError("codebook d must be in 1..65535, got %r" % (d,))
        if n < 0:
            raise ValueError("codebook n must be >= 0, got %r" % (n,))
        max_entries = MAX_CODEBOOK_ENTRIES
        bits = math.ceil(h_bits)
        # every codeword costs at least one entry, so 2^bits is made only
        # within the budget: for a large h it would be a huge int
        if bits >= max_entries.bit_length() or (1 << bits) * max(n, 1) > max_entries:
            raise MemoryError(
                "codebook of 2^%d x %d symbols exceeds the %d-entry budget" % (bits, n, max_entries)
            )
        object.__setattr__(self, "h_bits", float(h_bits))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)

    @property
    def symbols(self) -> np.ndarray:
        """(message_count, n) array of every codeword as symbols in 1..d,
        drawn block by block on each read and not kept."""
        out = np.empty((self.message_count, self.n), dtype=_symbol_dtype(self.d))
        start = 0
        for block, bit in _drawn_blocks(self.seed, self.d, self.n, self.message_count):
            out[start : start + len(block)] = block >> bit
            start += len(block)
        out += 1
        return out

    @property
    def message_count(self) -> int:
        return 1 << math.ceil(self.h_bits)

    def row(self, x: int) -> np.ndarray:
        """Codeword x (negative counts from the end) as symbols in 1..d."""
        return self.rows([x])[0]

    def rows(self, xs) -> np.ndarray:
        """(len(xs), n) array of codewords xs (in any order, repeats allowed,
        negative counting from the end) as symbols in 1..d; it keeps nothing.

        Row x is row x mod R of draw block x // R (see ``random_codebook``):
        each block holding a wanted row is drawn once, and no other block is."""
        xs = np.array([range(self.message_count)[x] for x in xs], dtype=np.int64)
        out = np.empty((len(xs), self.n), dtype=_symbol_dtype(self.d))
        per = _block_rows(self.n)
        block_of = xs // per
        wanted = sorted(set(block_of.tolist()))
        blocks = _drawn_blocks(self.seed, self.d, self.n, self.message_count, wanted)
        for k, (block, bit) in zip(wanted, blocks):
            hit = block_of == k
            out[hit] = block[xs[hit] - k * per] >> bit
        out += 1
        return out

    def _chunks(self, width: int):
        """(start, planes) of consecutive chunks of at most width codewords,
        in index order, each planes a (ceil(log2 d), ceil(n/64), rows) uint64
        array valid until the next chunk: plane k holds bit k of every symbol
        minus one, packed by ``_pack_bit``. Words are the middle axis, so a
        chunk's codewords are one contiguous slice per (plane, word). Each
        plane of a draw block is packed through one reused row-padded buffer
        and copied into one reused chunk."""
        count = self.message_count
        chunk = np.empty((_depth(self.d), -(-self.n // 64), min(width, count)), dtype=np.uint64)
        buf = np.empty((0, 64 * chunk.shape[1]), dtype=np.uint8)
        start = fill = 0
        for values, bit in _drawn_blocks(self.seed, self.d, self.n, count):
            if len(buf) < len(values):
                buf = np.zeros((len(values), buf.shape[1]), dtype=np.uint8)
            block = [_pack_bit(values, bit + k, buf) for k in range(len(chunk))]
            done = 0
            while done < len(values):
                take = min(chunk.shape[2] - fill, len(values) - done)
                for k, plane in enumerate(block):
                    chunk[k, :, fill : fill + take] = plane[:, done : done + take]
                fill += take
                done += take
                if fill == chunk.shape[2]:
                    yield start, chunk
                    start += fill
                    fill = 0
        if fill:
            yield start, chunk[:, :, :fill]

    def to_jsonable(self) -> dict:
        # regeneration contract: codewords are never stored
        return {"seed": self.seed, "h": self.h_bits, "n": self.n, "d": self.d, "stream": STREAM}

    @classmethod
    def from_jsonable(cls, data) -> "Codebook":
        """The book a JSON object names. A missing ``stream`` is stream 1,
        which is read only where it names the same book as ``STREAM``: at a
        d that rejects no value (1 or a power of two)."""
        n, d, seed = (_integral("codebook " + key, data[key], True) for key in ("n", "d", "seed"))
        stream = _integral("codebook stream", data.get("stream", 1), True)
        book = random_codebook(data["h"], n, d, seed)
        if stream not in (1, STREAM):
            raise ValueError("codebook stream must be 1 or %d, got %d" % (STREAM, stream))
        if stream == 1 and _reject_floor(d):
            raise ValueError(
                "codebook stream 1 names another book than stream %d at d=%d; they agree only "
                "at d = 1 and at powers of two" % (STREAM, d)
            )
        return book


def random_codebook(h_bits, n: int, d: int, seed: int) -> Codebook:
    """2^ceil(h_bits) codewords of n symbols over {1..d}: a ``Codebook`` of
    the four checked fields, which draws nothing now and is drawn anew
    whenever it is read, in draw blocks of R = ``_block_rows(n)`` rows.

    Block k is ``rng.integers(1, d + 1, size=(rows, n), dtype=_symbol_dtype(d))``
    for ``default_rng(seed)`` advanced k stride raw words. The stride is
    2^64 at a d that rejects values. At any other d (1 or a power of two) it
    is a block's R n B / 64 words, so the book is one ``integers`` call: the
    stream 1 of JSON written without a ``stream`` field.

    numpy takes each symbol by Lemire's method from the next B-bit value v
    (B = 8, or 16 when d >= 256) of the raw 64-bit words read little-endian:
    it rejects v if (v d) mod 2^B < 2^B mod d, else returns 1 + ((v d) >> B).
    A power-of-two d rejects nothing, so plane k is bit B - log2 d + k of v,
    masked straight from the raw words; any other d keeps the test and the
    product, and plane k is bit k of (v d) >> B.

    ``Codebook`` checks the fields: a book of more than MAX_CODEBOOK_ENTRIES
    symbols (read when the call runs; an empty codeword counts as one)
    raises MemoryError.
    """
    return Codebook(h_bits, n, d, seed)


def _accepted_patterns(transcripts: np.ndarray, ch: WindowChannel, depth: int) -> np.ndarray:
    """(a, depth, words, T) uint64 patterns of T transcripts of messages in
    1..d. Codeword symbol s accepts message m iff m - 1 = (s-1) a + u mod d
    for one offset u < a, i.e. s - 1 = (m - 1 - u) a^-1 mod d; pattern
    (u, k) packs bit k of that s - 1 at every position."""
    msgs = transcripts.astype(np.int64) - 1
    accepted = [(msgs - u) * pow(ch.a, -1, ch.d) % ch.d for u in range(ch.a)]
    buf = np.zeros((len(msgs), 64 * -(-msgs.shape[1] // 64)), dtype=np.uint8)
    return np.array([[_pack_bit(s, k, buf) for k in range(depth)] for s in accepted])


def _decode_batch(book: Codebook, transcripts: np.ndarray, ch: WindowChannel) -> list:
    """``ml_decode`` of every row of transcripts in one pass over the
    codebook, read in chunks of as many codewords as fit in
    ``_BLOCK_WORDS`` words (at least one): per codeword a chunk holds its
    planes and, for each of the t transcripts of the largest group (at most
    ``_GROUP``), a word in each scratch buffer, a byte of set bits and a
    mismatch count, so the chunk and every buffer stay within that budget
    together.

    Mismatches are summed word by word over a chunk for a whole group, in
    counts one byte wide below n = 256: pad bits are zero in planes and
    patterns, so a codeword mismatches at most n positions. Per transcript
    the pass keeps the fewest mismatches seen, the first codeword with that
    count and how many codewords have it. A chunk is scored by its minimum
    first; only where some transcript's minimum is at most its fewest so far
    (after the first chunks, rarely) are the group's codewords at their
    minima marked, in the spent bits buffer, and only such transcripts take
    their first codeword and ties from the marks.
    """
    total = len(transcripts)
    if not total:
        return []
    depth = _depth(book.d)
    words = -(-book.n // 64)
    acc_dtype = np.uint8 if book.n < 1 << 8 else np.uint16 if book.n < 1 << 16 else np.uint32
    groups = [slice(g0, g0 + _GROUP) for g0 in range(0, total, _GROUP)]
    patterns = [_accepted_patterns(transcripts[g], ch, depth) for g in groups]
    fewest = np.full(total, book.n + 1, dtype=np.int64)
    first = np.zeros(total, dtype=np.int64)
    ties = np.zeros(total, dtype=np.int64)
    largest = min(total, _GROUP)
    # miss always; diff only with more than one offset, tmp with more than one plane
    needs = (1, ch.a > 1, depth > 1)
    row_bytes = 8 * depth * words + largest * (8 * sum(needs) + 1 + np.dtype(acc_dtype).itemsize)
    rows = max(1, 8 * _BLOCK_WORDS // row_bytes)
    scratch = [np.empty(largest * rows * need, dtype=np.uint64) for need in needs]
    bits_buf = np.empty(largest * rows, dtype=np.uint8)
    misses_buf = np.empty(largest * rows, dtype=acc_dtype)
    for start, chunk in book._chunks(rows):
        width = chunk.shape[2]
        block = chunk[:, :, None, :]
        for g, pattern in zip(groups, patterns):
            t = pattern.shape[-1]
            miss, diff, tmp = (buf[: t * width].reshape(t, width) if len(buf) else None for buf in scratch)
            bits = bits_buf[: t * width].reshape(t, width)
            misses = misses_buf[: t * width].reshape(t, width)
            misses[...] = 0
            for w in range(words):
                for u in range(ch.a):
                    # diff: positions where the codeword symbol is not the
                    # one accepting the message at offset u
                    dst = miss if u == 0 else diff
                    np.bitwise_xor(block[0, w], pattern[u, 0, w, :, None], out=dst)
                    for k in range(1, depth):
                        np.bitwise_xor(block[k, w], pattern[u, k, w, :, None], out=tmp)
                        np.bitwise_or(dst, tmp, out=dst)
                    if u:
                        np.bitwise_and(miss, diff, out=miss)
                np.add(misses, _popcount(miss, bits), out=misses)
            low = misses.min(axis=1)
            near = np.flatnonzero(low <= fewest[g])
            if len(near):
                # the codewords at each minimum, marked in the spent bits
                # buffer; a lower minimum restarts the first codeword and
                # the ties, an equal one adds its ties
                at = np.equal(misses, low[:, None], out=bits.view(np.bool_))
                hits = np.count_nonzero(at, axis=1)[near]
                arg = at.argmax(axis=1)[near]
                low, near = low[near], near + g.start
                better = low < fewest[near]
                ties[near] = np.where(better, hits, ties[near] + hits)
                first[near] = np.where(better, start + arg, first[near])
                fewest[near] = low
    return [int(x) if k == 1 else None for x, k in zip(first, ties)]


def ml_decode(book: Codebook, transcript, ch: WindowChannel) -> Optional[int]:
    """Most likely codeword index, or None on a tie (ties count as failures).

    With every in-window symbol weighing b/a + (1-b)/d and every other
    symbol weighing (1-b)/d, the likelihood of a codeword is a fixed factor
    times (ratio)^matches with ratio > 1, so maximizing the likelihood is
    exactly maximizing the integer in-window match count. Integer counts
    avoid float underflow at any block length.
    """
    if book.d != ch.d:
        raise ValueError("codebook alphabet d=%d does not match the channel's d=%d" % (book.d, ch.d))
    messages = np.asarray(transcript, dtype=object)
    if messages.shape != (book.n,):
        raise ValueError("transcript must be n=%d messages, got shape %s" % (book.n, messages.shape))
    messages = [_integral("transcript messages", m, True) for m in messages]
    if not all(1 <= m <= ch.d for m in messages):
        raise ValueError("transcript messages must be in 1..%d" % ch.d)
    return _decode_batch(book, np.array([messages], dtype=np.int64), ch)[0]


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ExperimentReport:
    """Monte Carlo tallies. decode_errors counts wrong guesses, tie_errors
    counts decoding ties (also failures). For the two-group run,
    posterior_violations counts trials with any posterior above the cap;
    for the independent run it counts per-player violations (always 0 by
    the exact window identity)."""

    trials: int
    decode_errors: int
    tie_errors: int
    max_posterior_seen: Fraction
    posterior_violations: int

    @property
    def failure_rate(self) -> float:
        return (self.decode_errors + self.tie_errors) / self.trials if self.trials else 0.0

    def to_jsonable(self) -> dict:
        return {
            "trials": self.trials,
            "decode_errors": self.decode_errors,
            "tie_errors": self.tie_errors,
            "failure_rate": self.failure_rate,
            "max_posterior_seen": fraction_to_jsonable(self.max_posterior_seen),
            "posterior_violations": self.posterior_violations,
        }


def _decode_failures(guesses: list, xs) -> tuple:
    """(wrong guesses, ties) of a decoded batch against the sent indices."""
    ties = guesses.count(None)
    return sum(g is not None and g != x for g, x in zip(guesses, xs)), ties


def run_indep_experiment(b, c, rate, n: int, trials: int, seed: int) -> ExperimentReport:
    """Reliable leakage for independent leakers: random codebook at the given
    rate (bits per player), window-channel messages, ML decoding, and exact
    per-player posterior checks against c."""
    if trials < 0:
        raise ValueError("trials must be >= 0, got %d" % trials)
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    ch = window_channel(b, c)
    rate = exact_rate(rate)
    h = rate * n
    book = random_codebook(float(h), n, ch.d, derive_seed(seed, AUX_STREAM_OFFSET))
    # every in-window hit has this posterior and every other symbol 0, so
    # one exact identity covers every player of every trial
    post_in = posterior_leak(1, 1, ch)
    if post_in != ch.c:
        raise ArithmeticError("in-window posterior %s differs from c = %s" % (post_in, ch.c))
    bf = float(ch.b)
    # each trial's generator draws its codeword index, then its messages;
    # between the two the book's rows are read in one pass
    rngs = [np.random.default_rng(derive_seed(seed, trial)) for trial in range(trials)]
    xs = [int(rng.integers(book.message_count)) for rng in rngs]
    transcripts = book.rows(xs)
    hits = 0
    for rng, sent in zip(rngs, transcripts):
        row = sent.astype(np.int64)
        msgs = leak_message(row, rng.random(n) < bf, ch, rng)
        hits += int(np.count_nonzero(in_window(ch, msgs, row)))
        sent[...] = msgs  # the transcript takes the codeword's place
    decode_errors, tie_errors = _decode_failures(_decode_batch(book, transcripts, ch), xs)
    return ExperimentReport(
        trials,
        decode_errors,
        tie_errors,
        post_in if hits else ZERO,
        0,  # no posterior exceeds c: the identity above holds
    )


def fixed_two_group_run(
    l: int,
    n: int,
    c,
    rate,
    trials: int,
    seed: int,
    c_prime=None,
) -> ExperimentReport:
    """Two-group construction for exactly 2l leakers among 2n players.

    Each half of the crowd leaks an independent secret with a codebook of
    ceil(rate * l) bits (rate in bits per leaker) over the window channel
    built from b = l/n and an engineered posterior c' < c. Per trial the
    posterior of every player whose message is consistent with the secret
    is exactly 2l/|K|; the report counts trials where that exceeds c.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0, got %d" % trials)
    if n < 1 or not 0 <= l <= n:
        raise ValueError("need n >= 1 and 0 <= l <= n, got l=%d, n=%d" % (l, n))
    c = as_probability(c)
    b = Fraction(l, n)
    if c_prime is None:
        c_prime = (b + c) / 2
    c_prime = as_probability(c_prime)
    if not b < c_prime <= c:
        raise ValueError("need l/n < c_prime <= c")
    rate = exact_rate(rate)
    if l == 0:
        # no leakers: zero bits per group, so each one-codeword book decodes
        # trivially, and nobody is consistent with a secret
        return ExperimentReport(trials, 0, 0, ZERO, 0)
    if float(rate) >= fixed_capacity(c):
        raise ValueError("rate must stay below the per-leaker capacity")
    ch = window_channel(b, c_prime)
    h = rate * l
    books = [
        random_codebook(float(h), n, ch.d, derive_seed(seed, AUX_STREAM_OFFSET + g))
        for g in range(2)
    ]
    # each trial's generator draws who leaks, then both codeword indices,
    # then both groups' messages; between the index and message draws each
    # book's rows are read in one pass
    rngs = [np.random.default_rng(derive_seed(seed, trial)) for trial in range(trials)]
    leakers = np.zeros((trials, 2 * n), dtype=bool)
    xs = []
    for trial, rng in enumerate(rngs):
        leakers[trial, rng.permutation(2 * n)[: 2 * l]] = True
        xs.append(tuple(int(rng.integers(book.message_count)) for book in books))
    transcripts = [book.rows([x_pair[g] for x_pair in xs]) for g, book in enumerate(books)]
    consistent = []
    for trial, rng in enumerate(rngs):
        hits = 0
        for g in range(2):
            row = transcripts[g][trial].astype(np.int64)
            msgs = leak_message(row, leakers[trial, g * n : (g + 1) * n], ch, rng)
            hits += int(np.count_nonzero(in_window(ch, msgs, row)))
            transcripts[g][trial] = msgs  # the transcript takes the codeword's place
        consistent.append(hits)
    guesses = zip(*(_decode_batch(book, sent, ch) for book, sent in zip(books, transcripts)))
    # a trial is a tie if either group ties, else an error if either is wrong
    outcomes = [None if None in pair else pair for pair in guesses]
    decode_errors, tie_errors = _decode_failures(outcomes, xs)
    posteriors = [Fraction(2 * l, k) for k in consistent if k > 0]
    return ExperimentReport(
        trials,
        decode_errors,
        tie_errors,
        max(posteriors, default=ZERO),
        sum(post > c for post in posteriors),
    )


# ---------------------------------------------------------------------------
# the hypergeometric / binomial ratio bound


@dataclass(frozen=True)
class RatioBound:
    max_ratio: Fraction
    argmax_k: int
    all_at_most_two: bool
    unique_peak: bool  # strictly increasing up to k = l, strictly decreasing after


def hyper_binom_ratio(n: int, l: int, k: int) -> Fraction:
    """Exact Pr(S_fixed = k) / Pr(S_indep = k) for one k, as one Fraction:
    C(2l,k) C(2(n-l),n-k) n^n / (C(2n,n) C(n,k) l^k (n-l)^(n-k))."""
    if not 0 < l < n:
        raise ValueError("need 0 < l < n")
    return Fraction(
        math.comb(2 * l, k) * math.comb(2 * (n - l), n - k) * n**n,
        math.comb(2 * n, n) * math.comb(n, k) * l**k * (n - l) ** (n - k),
    )


def ratio_bound_check(n: int, l: int) -> RatioBound:
    """Exact max over k of Pr(S_fixed = k) / Pr(S_indep = k).

    S_fixed is the leaker count in one half of a 2n-crowd holding exactly
    2l leakers (hypergeometric); S_indep is Binomial(n, l/n). The maximum
    sits at k = l and never exceeds 2.

    ratio(k+1) / ratio(k) = (2l-k)(n-l) / ((n-2l+k+1) l), and numerator
    minus denominator is f(k) = l(n-1) - kn, which strictly decreases in k.
    So on [lo, hi] the ratio rises while f > 0 and falls after: its only
    local maximum, and so its first argmax, is the first k with f(k) <= 0,
    or hi if there is none, i.e. ceil(l(n-1)/n) clamped to [lo, hi]. The
    exact ratio is evaluated only there; all_at_most_two is that maximum
    <= 2. unique_peak (strict rise up to l, strict fall after) is
    f(l-1) > 0 when l-1 >= lo and f(l) < 0 when l < hi.
    """
    if not 0 < l < n:
        raise ValueError("need 0 < l < n")
    lo = max(0, 2 * l - n)
    hi = min(2 * l, n)
    lead = l * (n - 1)  # f(k) = lead - k n
    argmax_k = min(max(lo, -(-lead // n)), hi)
    unique_peak = (l - 1 < lo or lead > (l - 1) * n) and (l >= hi or lead < l * n)
    max_ratio = hyper_binom_ratio(n, l, argmax_k)
    return RatioBound(max_ratio, argmax_k, max_ratio <= 2, unique_peak)


# ---------------------------------------------------------------------------
# single-shot joints and protocol-tree forms of the window construction


def one_shot_joint(ch: WindowChannel) -> JointDist:
    """Exact (X, L, A) joint for one player with uniform X over {1..d}."""
    table = {}
    d = ch.d
    for x in range(1, d + 1):
        win = set(window(ch, x))
        for a in range(1, d + 1):
            table[(x, 0, a)] = Fraction(1, d) * (1 - ch.b) * Fraction(1, d)
            if a in win:
                table[(x, 1, a)] = Fraction(1, d) * ch.b * Fraction(1, ch.a)
    return JointDist(("X", "L", "A"), table)


def window_scenario(ch: WindowChannel, n: int) -> LeakScenario:
    """X uniform over {1..d}^n, players leaking independently with prob b."""
    labels = tuple(itertools.product(range(1, ch.d + 1), repeat=n))
    return LeakScenario.independent(FiniteDist.uniform(labels), n, ch.b)


def window_protocol(ch: WindowChannel, n: int) -> ProtocolTree:
    """Each player speaks once: uniform over {1..d} when innocent, uniform
    over the window of their own coordinate of x when leaking."""
    alphabet = tuple(range(1, ch.d + 1))
    uniform = FiniteDist.uniform(alphabet)
    xs = tuple(itertools.product(range(1, ch.d + 1), repeat=n))
    window_dists = {}
    for j in range(1, ch.d + 1):
        win = set(window(ch, j))
        window_dists[j] = FiniteDist(
            alphabet, tuple(Fraction(1, ch.a) if m in win else ZERO for m in alphabet)
        )
    node = None
    for player in range(n, 0, -1):
        p_leak = {x: window_dists[x[player - 1]] for x in xs}
        node = ProtocolNode(
            player, alphabet, uniform, p_leak, {m: node for m in alphabet}
        )
    return ProtocolTree(node, n)

"""numpy's seeded random streams, replayed for many streams at once.

A seed becomes a stream in two numpy steps (numpy 2.x). `SeedSequence`
hashes the seed's entropy words into a pool of four 32-bit words, and
`generate_state` hashes that pool into as many words as asked: this is
O'Neill's `seed_seq` mixing (O'Neill 2014, *PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation*). `default_rng(seed)` takes four 64-bit words of it as the
128-bit initial state and increment of a PCG64, steps it twice, and reads
its 64-bit output words. `_seed_hash` runs the hash for many entropy rows
at once in numpy `uint32` arithmetic, and `_hashed` hands its words to
numpy's own PCG64 seeding, so the 128-bit steps stay numpy's. `_Draws`
reads the raw words of the streams of many seeds and makes the draws of
numpy's calls from them for all streams at once: a resampled grid's
oversampling and the feature-selection forest draw through it alone.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _entropy(*parts: int) -> list[int]:
    """The 32-bit entropy words of `SeedSequence(parts)`: each part's words,
    low first, one word for 0."""
    out = []
    for part in parts:
        part = int(part)
        if part < 0:
            raise ValueError("expected non-negative integer")
        out.append(part & _MASK32)
        while part := part >> 32:
            out.append(part & _MASK32)
    return out


def _seed_hash(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence(row).generate_state(n_words)` of each row of the (S, L)
    `uint32` entropy, as an (S, n_words) `uint32` array.

    The hash constants run through the same sequence for every row, and the
    pool words a step mixes with one word take consecutive constants, so
    each step is one array operation over those pool words (rows of the
    (4, S) pool) and every seed.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    rows, length = entropy.shape

    def consts(first, mult, n):  # first · multⁱ mod 2³², i = 0 … n, as a column
        out = [first]
        for _ in range(n):
            out.append(out[-1] * mult & _MASK32)
        return np.array(out, dtype=np.uint32)[:, None]

    a = consts(_INIT_A, _MULT_A, 16 + 4 * max(length - 4, 0))
    at = 0

    def hashmix(value, n):  # the next n hashmix calls, one per row of the result
        nonlocal at
        value = (value ^ a[at:at + n]) * a[at + 1:at + n + 1]
        at += n
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    pool = np.zeros((4, rows), dtype=np.uint32)
    pool[:min(length, 4)] = entropy[:, :4].T
    pool = hashmix(pool, 4)
    for src in range(4):  # every pool word mixed into every other
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for src in range(4, length):  # entropy beyond the pool, into every pool word
        pool = mix(pool, hashmix(entropy[:, src], 4))
    b = consts(_INIT_B, _MULT_B, n_words)
    out = (pool[np.arange(n_words) % 4] ^ b[:-1]) * b[1:]
    return np.ascontiguousarray((out ^ (out >> np.uint32(16))).T)


def _rng_words(entropy: np.ndarray) -> np.ndarray:
    """The (S, 4) `uint64` words `default_rng(SeedSequence(row))` seeds its
    PCG64 with (its 128-bit state and increment), for each row of the (S, L)
    `uint32` entropy; a seed's `_entropy` words make its `default_rng(seed)`."""
    return _seed_hash(entropy, 8).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _hashed() -> type:
    """A numpy seed sequence that holds the first 64-bit state words of a
    `SeedSequence`, hashed beforehand by `_seed_hash` for many seeds at once:
    a PCG64 made from one starts where one made from the seed starts, by
    numpy's own seeding. Made on first use: importing `numpy.random` adds
    about 20 ms to every start of the program, `spineml predict` included."""
    from numpy.random.bit_generator import ISeedSequence

    class Hashed(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words > self.words.size or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds {self.words.size} hashed 64-bit words")
            return self.words[:n_words]

    return Hashed


class _Draws:
    """The draws of numpy Generator calls on many streams, made for all of
    them at once from the raw words of the PCG64 of each of many seeds, read
    in blocks. They are the values and the stream of numpy's own calls
    (numpy 2.x):

    - a 32-bit draw is the low half of a fresh 64-bit word, whose high half is
      kept for the next 32-bit draw;
    - a bounded draw below e > 1 is Lemire's (2019): m = u32 · e, drawn again
      while m mod 2³² < (2³² − e) mod e, gives m >> 32; below 1 it is 0 and
      draws nothing;
    - `choice(d, size, replace=False)` with d ≤ 10 000 or size ≤ d // 50 is
      Floyd's algorithm, a bounded draw below j + 1 for j = d − size … d − 1
      (j itself if the draw is already taken), then a shuffle that swaps
      position i with a bounded draw below i + 1, for i = size − 1 … 1;
    - `random(k)` is k whole words, (w >> 11) · 2⁻⁵³, leaving a kept half be.
    """

    def __init__(self, seeds: np.ndarray, block: int):
        """The streams of PCG64s seeded with the rows of the (S, 4) `_rng_words`
        `seeds`, `block` words of each read at once, now and on each refill."""
        hashed = _hashed()
        self.bits = [np.random.PCG64(hashed(w)) for w in seeds]  # each stream's PCG64
        # row t: stream t's words from index base[t]
        self.words = np.array([b.random_raw(block) for b in self.bits]).reshape(len(self.bits), block)
        self.base, self.pos = np.zeros(len(seeds), dtype=np.int64), np.zeros(len(seeds), dtype=np.int64)
        self.end = np.full(len(seeds), block, dtype=np.int64)
        self.has = np.zeros(len(seeds), dtype=bool)  # a high half is kept
        self.half = np.zeros(len(seeds), dtype=np.uint64)  # the last high half

    def _ensure(self, streams, need: int):
        """Hold at least `need` unspent words of each of `streams`."""
        short = streams[self.end[streams] - self.pos[streams] < need]
        if not short.size:
            return
        width = max(self.words.shape[1], need)
        if width > self.words.shape[1]:
            self.words = np.pad(self.words, ((0, 0), (0, width - self.words.shape[1])))
        spent, left = (self.pos - self.base)[short].tolist(), (self.end - self.pos)[short].tolist()
        for t, s, n in zip(short.tolist(), spent, left):
            self.words[t, :n] = self.words[t, s:s + n]
            self.words[t, n:] = self.bits[t].random_raw(width - n)
        self.base[short], self.end[short] = self.pos[short], self.pos[short] + width

    def _u32(self, streams, k):
        """The 32-bit draws numbered k[b, q] in the coming draws of stream
        streams[b], −1 being its kept half; spends none."""
        self._ensure(streams, int(k.max(initial=0)) // 2 + 1)  # a word to index even for the kept half
        w = self.words[streams[:, None], (self.pos - self.base)[streams][:, None] + np.maximum(k, 0) // 2]
        return np.where(k < 0, self.half[streams][:, None], np.where(k % 2 == 1, w >> 32, w & 0xFFFFFFFF))

    def _spend(self, streams, n):
        """Spend n[b] 32-bit draws of stream streams[b]."""
        fresh = n - self.has[streams]  # draws split from new words; −1 if a kept half stays unspent
        pos = self.pos[streams] + (fresh + 1) // 2
        split = fresh > 0  # the last word split leaves its high half in the generator
        self.half[streams[split]] = self.words[streams[split], (pos - 1 - self.base[streams])[split]] >> 32
        self.has[streams] = fresh % 2 == 1  # with no draw, fresh = −has keeps it as it was
        self.pos[streams] = pos

    def bounded(self, streams, excl):
        """(streams, len(excl)) draws: draw q of each stream is below excl[q] ≥ 1."""
        excl = np.asarray(excl, dtype=np.uint64)
        threshold = (2**32 - excl) % excl
        # the 32-bit draw each one takes; one below 1 takes none and is 0, as m = u32 < 2³² for it
        k = np.cumsum(excl > 1) - 1 - self.has[streams][:, None]
        m = self._u32(streams, k) * excl
        for b in np.flatnonzero(((m & 0xFFFFFFFF) < threshold).any(axis=1)).tolist():
            # a rejection: that stream's draws from the first one rejected on take the next 32-bit draws
            one, taken = streams[b:b + 1], k[b]
            while (rejected := np.flatnonzero((m[b] & 0xFFFFFFFF) < threshold)).size:
                q = rejected[0]
                taken[q:] += 1
                m[b, q:] = self._u32(one, taken[None, q:])[0] * excl[q:]
        self._spend(streams, k[:, -1] + 1 + self.has[streams])
        return (m >> 32).astype(np.int64)

    def choice(self, streams, d: int, size: int):
        """Each stream's `choice(d, size, replace=False)`, one row per stream."""
        floyd = np.arange(d - size, d)
        drawn = self.bounded(streams, np.concatenate([floyd, np.arange(size - 1, 0, -1)]) + 1)
        nodes, picked = np.arange(streams.size), np.zeros((streams.size, d), dtype=bool)
        out = np.empty((streams.size, size), dtype=np.int64)
        for i, j in enumerate(floyd.tolist()):
            v = np.where(picked[nodes, drawn[:, i]], j, drawn[:, i])
            picked[nodes, v] = True
            out[:, i] = v
        for i, j in zip(range(size - 1, 0, -1), drawn[:, size:].T):
            out[nodes, j], out[:, i] = out[:, i], out[nodes, j]
        return out

    def random(self, streams, k):
        """Each stream's `random(k[b])`, end to end."""
        self._ensure(streams, int(k.max(initial=0)))
        ends = np.cumsum(k)
        at = np.arange(ends[-1]) + np.repeat(self.pos[streams] - self.base[streams] - (ends - k), k)
        w = self.words[np.repeat(streams, k), at]
        self.pos[streams] += k
        return (w >> 11) * 2.0**-53

"""Desk-scale numerical experiments: the four-point Euler identity, exact
congruence-class counting on integer grids, Hausdorff-content bound curves,
and box-counting estimates of sampled distance sets."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import _INT_TEXT_LIMIT, Graph, _as_int, _int_text

ENUMERATION_LIMIT = 10 ** 8
# sample_box_dimension refuses, before any draw, a sample of n tuples of
# more than this many array entries, counted as if held whole: n times the
# tuple's coordinates (times the ternary digits each for the Cantor sampler)
# and edge lengths. It holds at most one row of finest-scale cells per tuple,
# so the guard bounds its memory too. At the edge, single CLI runs on a
# 2-core Xeon: `sample k4 --n 3571428 --seed 1` 0.9 s and 68.7 MB peak RSS,
# `sample k2 --d 1 --n 16666666 --scales 1,30 --seed 1` 0.9 s and 167.5 MB,
# and `sample k4 --n 3571428 --scales 1,20,40,60 --seed 1`, whose rows take
# several words, 2.8 s and 285.5 MB.
SAMPLE_ENTRY_LIMIT = 5 * 10 ** 7


class EnumerationLimitError(ValueError):
    """Instance too large to enumerate exactly."""


# Packed row keys stay below this bound, so they fit an int64; cell
# indices must lie strictly inside (-2^63, 2^63).
_KEY_LIMIT = 2 ** 63
# the largest float below 2^63: the largest |x / eps| whose cell fits int64
_CELL_REACH = math.nextafter(2.0 ** 63, 0.0)
# int64 entries per chunk of one-axis lattice tuples and per fold block
_LATTICE_CHUNK_ENTRIES = 2 ** 18
# entries drawn per chunk of sampled tuples (coordinates, times the digits
# each for the Cantor sampler): 1 MB of float64, so that a chunk's draws,
# lengths and work columns stay small; also the cloud entries per chunk
# that covering_count covers at a time
_SAMPLE_CHUNK_ENTRIES = 2 ** 17
# packed rows collected before they are sorted into a run of distinct rows:
# a merge costs a pass over its runs, so runs are made once per buffer
_MERGE_BUFFER_ROWS = 2 ** 17


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted non-empty 1-D array, in order."""
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _keys(words: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous (N, w) int64 array as N keys, a view,
    sorted in place in numeric word order: the int64 words when w = 1,
    else one void per row of its 8w bytes, swapped to big-endian, which
    numpy compares bytewise and so in numeric order for words in
    [0, 2^63). Keys are equal exactly when rows are."""
    if words.shape[1] == 1:
        words[:, 0].sort()
        return words[:, 0]
    # numpy's void quicksort compares bytes generically and is slow; once
    # the rows are in the order of their leading word, numpy's stable sort,
    # an adaptive timsort, only has that word's ties to put in order
    order = np.argsort(words[:, 0])
    for column in words.T:
        column[:] = column[order]
    del order  # not held while the keys are sorted
    words.byteswap(inplace=True)
    keys = words.view(np.dtype((np.void, 8 * words.shape[1])))[:, 0]
    keys.sort(kind="stable")
    return keys


def _rows(keys: np.ndarray) -> np.ndarray:
    """Sorted keys, as _keys makes them, as (N, w) int64 rows, a view;
    words of several are swapped back to native byte order in place."""
    rows = keys.view(np.int64).reshape(len(keys), keys.itemsize // 8)
    if rows.shape[1] > 1:
        rows.byteswap(inplace=True)
    return rows


def _merge_runs(runs: list) -> np.ndarray:
    """The sorted distinct keys of the sorted distinct key arrays in `runs`,
    which is emptied, so that each run is freed once concatenated. numpy's
    stable sort, timsort for int64 and void keys, merges the runs in linear
    passes: the merge holds about twice the keys, a pass per pair of runs.
    Void keys are big-endian, so the merge is in numeric word order too."""
    keys = np.concatenate(runs)
    runs.clear()
    keys.sort(kind="stable")
    return _distinct_sorted(keys)


class _DistinctRows:
    """The distinct rows among all rows added, each of m entries, entry j
    in range(radix[j]) (an int radix is every column's), and the number of
    distinct p-column prefixes among them.

    Rows are packed on arrival into int64 words, mixed-radix, the first
    column most significant: each column joins the word before it while
    the word's range, the product of its columns' radices, stays at most
    2^63, else it starts a word. Rows are collected in a buffer of `rows`
    rows (default _MERGE_BUFFER_ROWS); a full buffer's distinct keys
    (_keys) are sorted into a run, and two runs of equally many buffers
    merge into one, as in a binary counter, so a key is merged at most
    log2(buffers) + 1 times. Runs, merges and counts share one key order,
    numeric word order.
    """

    def __init__(self, m: int, radix: int | list, rows: int = 0):
        radices = [radix] * m if isinstance(radix, int) else list(radix)
        # (word, radix, whether the word holds a column of radix above 1
        # before it) per column, and the range of each word
        self.columns, self.word_radix = [], []
        for r in radices:
            if not self.word_radix or self.word_radix[-1] * r > _KEY_LIMIT:
                self.word_radix.append(1)
            self.columns.append((len(self.word_radix) - 1, r, self.word_radix[-1] > 1))
            self.word_radix[-1] *= r
        self.rows = rows if rows > 0 else _MERGE_BUFFER_ROWS
        self.words = np.empty((self.rows, len(self.word_radix)), dtype=np.int64)
        self.fill = 0
        self.runs, self.buffers = [], []  # sorted distinct keys; buffers in each

    def add(self, columns, count: int):
        """Add `count` rows given column by column: `columns` yields the m
        int64 columns, each of length count, and each is folded into the
        words before the next is asked for. The buffer never grows: the
        rows past its end are folded apart and moved in, a buffer at a
        time, each after the full buffer is flushed."""
        if self.fill >= self.rows:
            self._flush()
        space = min(count, self.rows - self.fill)
        blocks = [self.words[self.fill:self.fill + space]]
        if count > space:
            blocks.append(np.empty((count - space, self.words.shape[1]), dtype=np.int64))
        for (w, radix, held), col in zip(self.columns, columns):
            for block, part in zip(blocks, (col[:space], col[space:])):
                block[:, w] *= radix if held else 0
                block[:, w] += part
        self.fill += space
        for start in range(0, count - space, self.rows):
            self._flush()
            self.fill = min(self.rows, count - space - start)
            self.words[:self.fill] = blocks[1][start:start + self.fill]

    def _flush(self, keep: int = 0):
        """Sort the buffer in place into a run, then merge the last two
        runs while they hold equally many buffers, or, for keep > 0, while
        more than keep runs are left."""
        if self.fill:
            self.runs.append(_distinct_sorted(_keys(self.words[:self.fill])))
            self.buffers.append(1)
            self.fill = 0
        while len(self.runs) > max(keep, 1) and (keep or self.buffers[-2] == self.buffers[-1]):
            pair = self.runs[-2:]
            del self.runs[-2:]  # handed over, so that the merge frees them
            self.runs.append(_merge_runs(pair))
            self.buffers[-2:] = [self.buffers[-2] + self.buffers[-1]]

    def distinct(self) -> np.ndarray:
        """The distinct rows added as an (N, words) int64 array of their
        packed words, in numeric word order: the runs are merged into one,
        whose words are swapped back in place, so the rows are consumed."""
        self._flush(keep=1)
        keys, self.runs, self.buffers = self.runs[0], [], []
        return _rows(keys)

    def counts(self, prefixes) -> list:
        """For each p >= 1 in `prefixes`, the number of distinct p-column
        prefixes of the rows added, counted once; the rows are consumed.

        The rows are sorted in numeric word order, so that equal prefixes
        are adjacent: the buffer's rows by _keys while it holds them all,
        else the runs merged down to two and concatenated, whose merge is
        one stable sort of them. Two sorted neighbours a and b differ in
        their first p columns when a word before that of column p - 1
        differs, or, in that word, (a ^ b) >= place read unsigned, where
        place is the product of the radices of its columns from p on. So
        each such product must be a power of two, as it is 1 for p = m,
        and the words must lie in [0, 2^63) for a proper prefix. Whole
        rows (p = m) are counted exactly for any words, since equal rows
        are adjacent in any order of the keys. The neighbours are
        compared _MERGE_BUFFER_ROWS at a time, their differences written
        into one block that every comparison reuses.
        """
        if self.runs:
            self._flush(keep=2)
            keys, self.runs, self.buffers = np.concatenate(self.runs), [], []
            keys.sort(kind="stable")
        else:
            keys = _keys(self.words[:self.fill])
        rows = _rows(keys)
        counts = [min(len(rows), 1)] * len(prefixes)
        diffs = np.empty((min(len(rows), _MERGE_BUFFER_ROWS), rows.shape[1]), dtype=np.int64)
        for start in range(0, len(rows) - 1, _MERGE_BUFFER_ROWS):
            block = rows[start:start + _MERGE_BUFFER_ROWS + 1]
            diff = np.bitwise_xor(block[1:], block[:-1], out=diffs[:len(block) - 1]).view(np.uint64)
            for i, p in enumerate(prefixes):
                v = self.columns[p - 1][0]  # the word of column p - 1
                changed = diff[:, v] >= math.prod(r for w, r, _ in self.columns[p:] if w == v)
                for w in range(v):
                    changed |= diff[:, w] != 0
                counts[i] += int(np.count_nonzero(changed))
        return counts

    def count(self) -> int:
        """The number of distinct rows added (counts of whole rows)."""
        return self.counts([len(self.columns)])[0]


# vertex pairs of K4 in the order t12, t13, t14, t23, t24, t34
_K4_PAIRS = tuple(itertools.combinations(range(4), 2))


def _edge_lengths(pts: np.ndarray, pairs, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean lengths |pts[:, i] - pts[:, j]| for each pair (i, j) of
    vertex indices, for an (N, n, d) float array: a (len(pairs), N) array,
    one contiguous row per pair, written into `out` when it is given.

    Each pair's squared axis differences, taken from the strided slices
    pts[:, i, a], are summed left to right in place in that pair's row,
    so no (N, d) difference array is built. For d < 8 this is the order
    in which np.linalg.norm(x, axis=1) sums its d squares, so the lengths
    are bit for bit the same. From 8 terms up numpy sums pairwise in 8
    unrolled lanes, a different order, so there the norm is called per
    pair to keep its bits.
    """
    n, _, d = pts.shape
    if out is None:
        out = np.empty((len(pairs), n))
    if not 0 < d < 8:
        for col, (i, j) in zip(out, pairs):
            col[:] = np.linalg.norm(pts[:, i] - pts[:, j], axis=1)
        return out
    tmp = np.empty(n)
    for col, (i, j) in zip(out, pairs):
        np.subtract(pts[:, i, 0], pts[:, j, 0], out=col)
        col *= col
        for a in range(1, d):
            np.subtract(pts[:, i, a], pts[:, j, a], out=tmp)
            tmp *= tmp
            col += tmp
    np.sqrt(out, out=out)
    return out


def _quadrilateral_t24(t12, t13, t14, t23, t34, convex, strict=False):
    """Sixth distance t24 of a planar 4-point configuration from the other
    five, for floats or for whole columns of them alike, via the
    quadrilateral identity

        t24^2 = t23^2 + t14^2 - t13^2 + 2 t12 t34 cos(theta -+ psi)

    where theta (angle at vertex 1 between segments to 2 and 3) and psi
    (angle at vertex 3 between segments to 1 and 4) come from the law of
    cosines on the two triangles {t12, t13, t23} and {t13, t34, t14} that
    share the diagonal t13. Put p1 at the origin and p3 at (t13, 0): then
    p2 = t12 (cos theta, a sin theta) and p4 = p3 + t34 (-cos psi, b sin psi)
    with signs a, b = +-1, and expanding |p4 - p2|^2, with t23^2 and t14^2
    from the law of cosines, gives the identity with cos theta cos psi -
    a b sin theta sin psi. Where `convex` is true, vertices 2 and 4 lie on
    opposite sides of the line through 1 and 3 (a b = -1), as in any convex
    quadrilateral traversed 1,2,3,4, and that is cos(theta - psi); where it
    is false (the same-side, reflex layout) it is cos(theta + psi).

    The cosines are clipped to [-1, 1] against rounding on almost-degenerate
    triangles. A zero length divides 0 by 0 in them, silently for numpy
    operands, and leaves NaN. With `strict` (floats only), a flat or
    impossible triangle, a cosine of absolute value 1 or more, which the
    clip leaves at +-1, raises ValueError instead. The two triangles glue
    along t13 in the plane, so the exact square is t24^2 >= 0; rounding
    leaves an error of order machine epsilon times t13^2 + t14^2 + t23^2
    (1/t12 and 1/sin theta cancel), and only that is clamped at 0. Every
    square is a product, as numpy's scalar ** is not correctly rounded.
    Intermediates are deleted once used: fewer columns held at once keep
    the heap, and with it the peak RSS of `sample`, smaller.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_theta = np.clip((t12 * t12 + t13 * t13 - t23 * t23) / (2 * t12 * t13), -1.0, 1.0)
        cos_psi = np.clip((t13 * t13 + t34 * t34 - t14 * t14) / (2 * t13 * t34), -1.0, 1.0)
    if strict and (abs(cos_theta) >= 1 or abs(cos_psi) >= 1):
        raise ValueError("lengths do not satisfy the strict triangle inequality "
                         "around the diagonal")
    both_cos = cos_theta * cos_psi
    both_sin = np.sqrt(1.0 - cos_theta * cos_theta) * np.sqrt(1.0 - cos_psi * cos_psi)
    del cos_theta, cos_psi
    cos_gap = np.where(convex, both_cos + both_sin, both_cos - both_sin)
    del both_cos, both_sin
    square = t23 * t23 + t14 * t14 - t13 * t13 + 2 * t12 * t34 * cos_gap
    del cos_gap
    return np.sqrt(np.maximum(square, 0.0))


def euler_t24(t12: float, t13: float, t14: float, t23: float, t34: float,
              convex: bool = True) -> float:
    """Sixth distance t24 of a planar 4-point configuration from the other
    five by the quadrilateral identity (_quadrilateral_t24 derives it).

    `convex` selects the branch: True means vertices 2 and 4 lie on opposite
    sides of the line through 1 and 3, which holds for any convex
    quadrilateral traversed 1,2,3,4; False selects the same-side (reflex)
    layout. The five lengths must be positive and finite and form two
    nondegenerate triangles {t12, t13, t23} and {t13, t34, t14}, or
    ValueError is raised.
    """
    for name, val in (("t12", t12), ("t13", t13), ("t14", t14),
                      ("t23", t23), ("t34", t34)):
        if not 0 < val < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {val!r}")
    return float(_quadrilateral_t24(t12, t13, t14, t23, t34, convex, strict=True))


def k4_euler_residuals(tuples) -> np.ndarray:
    """Relative residual of the four-point identity on sampled plane tuples.

    `tuples` has shape (N, 4, 2). The convex/reflex branch is decided per
    sample from the coordinates (sides of the 1-3 diagonal), so residuals are
    at rounding level for every sample: the six pairwise distances of a
    4-point plane configuration always lie on this hypersurface, which is why
    the distance set of K4 in R^2 has measure zero in R^6.

    A degenerate tuple, with p1 = p2, p1 = p3 or p3 = p4, leaves an angle of
    the identity undefined, and its residual is NaN. That has probability
    zero under a continuous sampler, but discrete ones (a shallow Cantor
    set, a coarse lattice) draw such tuples.
    """
    pts = np.asarray(tuples, dtype=float)
    if pts.ndim != 3 or pts.shape[1] != 4 or pts.shape[2] != 2:
        raise ValueError("expected an (N, 4, 2) array of plane tuples")
    return _k4_residuals(pts, _edge_lengths(pts, _K4_PAIRS))


def _k4_residuals(pts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """k4_euler_residuals of an (N, 4, 2) float array whose six edge
    lengths, rows t12, t13, t14, t23, t24, t34 of `lengths`, are already
    computed: _quadrilateral_t24 on whole columns, against t24."""
    t12, t13, t14, t23, t24, t34 = lengths
    (x1, x2, x3, x4), (y1, y2, y3, y4) = pts[:, :, 0].T, pts[:, :, 1].T
    # sides of the 1-3 diagonal: cross(p3 - p1, p - p1) for p = p2 and p4
    side2, side4 = ((x3 - x1) * (y - y1) - (y3 - y1) * (x - x1) for x, y in ((x2, y2), (x4, y4)))
    convex = side2 * side4 < 0
    del side2, side4
    predicted = _quadrilateral_t24(t12, t13, t14, t23, t34, convex)
    return np.abs(predicted - t24) / np.where(t24 > 0, t24, 1.0)


def _power_exceeds(base: int, exponent: int, limit: int) -> bool:
    """Whether base^exponent > limit, for ints base, exponent >= 1 and
    limit >= 0, without building a power of more bits than limit has: a
    base of at most limit is 1, whose powers are 1, or at least 2, whose
    power 2^limit.bit_length() already exceeds limit."""
    return base > limit or base ** min(exponent, limit.bit_length()) > limit


def check_enumeration(d: int, q: int, k: int) -> tuple[int, int, int]:
    """Refuse a lattice instance before counting it: ValueError unless
    d, q, k are integers >= 1, EnumerationLimitError when its
    (q+1)^(d(k+1)) tuples exceed ENUMERATION_LIMIT (only one axis's
    (q+1)^(k+1) are walked). Returns (d, q, k) as ints."""
    d, q, k = _as_int(d, "d"), _as_int(q, "q"), _as_int(k, "k")
    if min(d, q, k) < 1:
        raise ValueError("d, q, k must all be >= 1")
    if _power_exceeds(q + 1, d * (k + 1), ENUMERATION_LIMIT):
        raise EnumerationLimitError(
            f"(q+1)^(d(k+1)) tuples for d={_int_text(d)}, q={_int_text(q)}, "
            f"k={_int_text(k)} exceed the enumeration guard of {ENUMERATION_LIMIT}")
    return d, q, k


def _grid_digits(index: np.ndarray, q: int, n_digits: int):
    """The n_digits base-(q+1) digits of each entry of an int64 array, least
    significant first; `index` is divided down in place."""
    for _ in range(n_digits):
        yield index % (q + 1)
        index //= q + 1


def congruence_class_counts(d: int, q: int, k: int) -> tuple[int, int]:
    """(unlabeled, labeled) congruence-class counts of (k+1)-tuples on the
    grid {0..q}^d, via exact integer squared-distance invariants.

    Labeled classes key on the distance vector in lexicographic pair order;
    unlabeled classes key on its sorted multiset, which quotients out vertex
    relabeling. Both counts are bounded by (2q+1)^(dk): translating the first
    vertex to the origin leaves the remaining k vertices in a (2q+1)-wide box.

    A distance vector is the sum of d one-axis vectors, the squared
    differences of k+1 numbers in {0..q}, enumerated by index in chunks.
    Packed at radix d q^2 + 1, which no sum reaches, a sum's words are the
    sums of the words, each in its word's range (word_radix): d - 1 folds
    add the distinct one-axis words to the distinct words so far, in
    blocks. The final words give the labeled count; unpacked and sorted
    per vector, the unlabeled one. Chunks and blocks hold at most
    _LATTICE_CHUNK_ENTRIES int64 entries.
    """
    d, q, k = check_enumeration(d, q, k)
    pairs = list(itertools.combinations(range(k + 1), 2))
    radix = d * q * q + 1  # every squared distance lies in [0, d q^2]
    table, n_axis = _DistinctRows(len(pairs), radix), (q + 1) ** (k + 1)
    chunk = max(1, _LATTICE_CHUNK_ENTRIES // (k + 1 + len(pairs)))
    for start in range(0, n_axis, chunk):
        coords = list(_grid_digits(np.arange(start, min(start + chunk, n_axis)), q, k + 1))
        table.add(((coords[a] - coords[b]) ** 2 for a, b in pairs), len(coords[0]))
    keys = axis = table.distinct()
    for _ in range(d - 1):
        sums = _DistinctRows(axis.shape[1], table.word_radix)  # a word per column, as it is
        block = max(1, _LATTICE_CHUNK_ENTRIES // axis.size)
        for part in np.array_split(keys, range(block, len(keys), block)):
            sums.add((np.add.outer(col, axis[:, w]).ravel() for w, col in enumerate(part.T)),
                     len(part) * len(axis))
        keys = sums.distinct()
    unlabeled = _DistinctRows(len(pairs), radix)
    words = [w for w, _, _ in table.columns]  # the word of each pair
    for part in np.array_split(keys, range(chunk, len(keys), chunk)):
        # the digits of each word, divided off in place: only len(keys) is needed after
        digits = [c for w, word in enumerate(part.T)
                  for c in _grid_digits(word, radix - 1, words.count(w))]
        digits = np.column_stack(digits)
        digits.sort(axis=1)
        unlabeled.add(digits.T, len(part))
    return unlabeled.count(), len(keys)


def _check_s_range(d: int, s: float):
    # compared exactly: d may be an int beyond the float range
    if not (d <= 2 * s and s < d):
        bounds = (f"= [{d // 2}.{5 * (d % 2)}, {d})" if d <= _INT_TEXT_LIMIT
                  else f"for d = {_int_text(d)}")
        raise ValueError(f"s must lie in [d/2, d) {bounds}, got {s}")


def hausdorff_content_bound(d: int, q: int, k: int, s: float) -> float:
    """Scaling bound q^(dk - (d/s)(dk - C(d,2))) on the (dk - C(d,2))-content
    of the distance set of the q-lattice neighborhood set.

    Decreasing in q exactly when s < d - C(d,2)/k, which is how thresholds
    below that exponent are defeated. A q, an exponent or a bound beyond the
    float range raises ValueError.
    """
    d, q, k = _as_int(d, "d", 2), _as_int(q, "q", 1), _as_int(k, "k", 1)
    _check_s_range(d, s)
    try:
        exponent = d * k - (d / s) * (d * k - d * (d - 1) / 2)
    except OverflowError:
        raise ValueError("the exponent of the content bound is beyond the float range") from None
    try:
        base = float(q)
    except OverflowError:
        raise ValueError("q is beyond the float range of the content bound") from None
    try:
        return base ** exponent
    except OverflowError:
        raise ValueError(f"content bound q^{exponent:.6g} at q={q:.6g} "
                         f"is beyond the float range") from None


class UnitCubeSampler:
    """Uniform points in [0,1]^d."""

    side = 1.0  # every draw lies in a cube of this side

    def __init__(self, d: int):
        self.d = _as_int(d, "d", 1)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random((count, self.d))


class LatticeSampler:
    """Uniform over the lattice neighborhood set of (d, q, s): the scaled
    lattice (1/q)(Z^d in [0,q]^d) with its neighborhood radius q^(-d/s),
    whose union of radius-balls is the set the lattice experiments probe.
    For s < d and q large the radius drops below the 1/(2q) packing
    distance, so the balls become disjoint. A draw is a uniform point
    index, decoded into its grid point, plus a uniform offset in the
    radius ball. The (q+1)^d points are not stored: point i is the
    base-(q+1) digits of i over q, the most significant on axis 0 as in
    itertools.product(range(q+1), repeat=d)."""

    def __init__(self, d: int, q: int, s: float):
        d, q = _as_int(d, "d", 2), _as_int(q, "q", 1)
        _check_s_range(d, s)
        # a point index is drawn by rng.integers, whose high must fit int64
        if _power_exceeds(q + 1, d, _KEY_LIMIT):
            raise EnumerationLimitError(f"(q+1)^d lattice points for d={_int_text(d)}, "
                                        f"q={_int_text(q)} exceed the int64 index guard of 2^63")
        self.d, self.q, self.s = d, q, float(s)
        self.radius = float(q) ** (-d / self.s)
        # every draw lies in [-radius, 1 + radius]^d
        self.side = 1.0 + 2.0 * self.radius

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        d, q = self.d, self.q
        idx = rng.integers(0, (q + 1) ** d, size=count)
        # offsets and centers are summed in place: no second (count, d) array
        normals = rng.normal(size=(count, d))
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        normals /= np.where(norms > 0, norms, 1.0)
        normals *= self.radius * rng.random((count, 1)) ** (1.0 / d)
        for axis, digit in zip(range(d - 1, -1, -1), _grid_digits(idx, q, d)):
            normals[:, axis] += digit / q
        return normals


class CantorSampler:
    """Product of middle-thirds Cantor sets, one per coordinate; draws pick
    random ternary digits in {0, 2} down to resolution 3^-depth."""

    side = 1.0  # every draw lies in a cube of this side

    def __init__(self, d: int, depth: int = 35):
        self.d, self.depth = _as_int(d, "d", 1), _as_int(depth, "depth", 1)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        digits = rng.integers(0, 2, size=(count, self.d, self.depth)) * 2.0
        weights = 3.0 ** -np.arange(1, self.depth + 1)
        return digits @ weights


def _sample_chunks(sampler, n_points: int, n_samples: int, seed: int):
    """The stream of n_samples i.i.d. tuples of n_points draws each from
    numpy.random.default_rng(seed): an iterator of (count, n_points, d)
    arrays, each drawn by one sampler.draw call of at most
    _SAMPLE_CHUNK_ENTRIES entries (but at least one tuple).

    The tuples per chunk depend on the entries per tuple only, never on
    n_samples. The cube sampler draws one double per coordinate, and the
    Cantor sampler one integer per digit, in the order of the tuples, so
    their streams do not depend on the chunking. The lattice sampler draws
    three arrays per call, so its stream does once n_samples passes one
    chunk. The callers read n_points and n_samples as ints >= 1.
    """
    # the Cantor sampler draws `depth` digits per coordinate
    per_tuple = n_points * sampler.d * getattr(sampler, "depth", 1)
    chunk = max(1, _SAMPLE_CHUNK_ENTRIES // per_tuple)
    rng = np.random.default_rng(seed)
    for start in range(0, n_samples, chunk):
        count = min(chunk, n_samples - start)
        yield sampler.draw(rng, count * n_points).reshape(count, n_points, -1)


def sample_framework_tuples(sampler, n_points: int, n_samples: int, seed: int) -> np.ndarray:
    """n_samples i.i.d. tuples of n_points draws each, shape
    (n_samples, n_points, d); deterministic per seed. The tuples are the
    chunks of the stream that sample_box_dimension measures, concatenated."""
    n_points, n_samples = _as_int(n_points, "n_points", 1), _as_int(n_samples, "n_samples", 1)
    tuples = np.empty((n_samples, n_points, sampler.d))
    start = 0
    for pts in _sample_chunks(sampler, n_points, n_samples, seed):
        tuples[start:start + len(pts)] = pts
        start += len(pts)
    return tuples


def distance_images(g: Graph, tuples) -> np.ndarray:
    """Edge-length images of sampled tuples, one column per edge in the
    graph's edge order."""
    pts = np.asarray(tuples, dtype=float)
    if pts.ndim != 3 or pts.shape[1] != g.n_vertices:
        raise ValueError(f"expected (N, {g.n_vertices}, d) tuples")
    return _edge_lengths(pts, [(i - 1, j - 1) for i, j in g.edges]).T


def sample_box_dimension(g: Graph, sampler, n_samples: int, seed: int, scales):
    """(fit_box_dimension(distance_images(g, tuples), scales), the largest
    finite residual or None, the number of non-finite residuals) for
    tuples = sample_framework_tuples(sampler, g.n_vertices, n_samples,
    seed), the residuals those of k4_euler_residuals(tuples) for K4 in the
    plane and none for any other graph or d. The counts, slope bits and
    errors are the same, but neither the tuples nor the cloud is held:
    the tuples are drawn one chunk (_sample_chunks) at a time, and each
    chunk's edge lengths are computed once, as an (n_edges, count) array,
    into one buffer. For K4 in the plane the same lengths feed the
    residual, whose finite maximum and non-finite count are folded across
    chunks. Then the lengths are covered, before the next chunk is drawn,
    into one _DistinctRows of finest-scale cells whose prefixes are the
    cells at every coarser scale. The lengths buffer, the int64 cells
    (n_edges, count) and the int64 digit column that carries them to the
    collector are allocated once per call, sized by the first chunk, the
    longest; every chunk writes into their leading count columns, so no
    chunk allocates or frees them.

    Every scale must be the finest times a power of two, 2^shift, or
    ValueError is raised before anything is drawn. Then floor(x / eps) is
    floor(x / finest) >> shift exactly, so each chunk is divided and
    floored once, at the finest scale. A row holds the m cells at the
    coarsest scale, then, for each finer scale in turn, the m digits of
    the bits that scale adds, at radix 2^bits: every scale's cell is a
    prefix of the row, and one sort of the rows counts them all
    (_DistinctRows.counts). Cells are at least 0 and below their radix,
    so every word lies in [0, 2^63), as a prefix count needs.

    The sampler must say by `side` the side of a cube that holds all its
    draws, so that no edge length exceeds side * sqrt(d); with a margin
    for rounding, that bound fixes the radices before the first draw,
    and so the number of cells, radix^n_edges, of the finest grid. If
    that grid has fewer cells than n_samples, only the distinct rows are
    kept, merged through a buffer; else one row per tuple is kept and
    sorted once, as covering_count does, since the distinct cells may
    come close to n_samples. Every chunk is checked against the finest
    radix before it is covered, so a cell past it raises ValueError and
    is never miscounted.
    A cell index at or past 2^63 raises covering_count's ValueError
    (_check_cells), after the last draw, as fit_box_dimension does on the whole cloud.
    A sample of more than SAMPLE_ENTRY_LIMIT entries, counted as that
    constant says, then scales that fit no slope (check_scales) and a
    graph without edges are refused with ValueError before anything is
    drawn.
    """
    n_samples = _as_int(n_samples, "n_samples", 1)
    d = sampler.d
    # the Cantor sampler draws `depth` digits per coordinate
    entries = n_samples * (g.n_vertices * d * getattr(sampler, "depth", 1) + g.n_edges)
    if entries > SAMPLE_ENTRY_LIMIT:
        raise ValueError(
            f"{_int_text(n_samples)} samples of {g.n_vertices} points in R^{_int_text(d)} "
            f"need {_int_text(entries)} array entries; "
            f"at most {SAMPLE_ENTRY_LIMIT} are supported")
    scales = check_scales(scales)
    finest = min(scales)
    # eps is finest times a power of two exactly when their mantissas are equal
    if any(math.frexp(eps)[0] != math.frexp(finest)[0] for eps in scales):
        raise ValueError(f"every scale must be the finest, {finest!r}, times a power of two")
    if not g.n_edges:
        raise ValueError("empty cloud")
    m = g.n_edges
    bound = sampler.side * math.sqrt(d) * (1 + 2.0 ** -20)
    reach = min(bound / finest, _CELL_REACH)  # the largest |x / finest| admitted
    # a cell below 2^63 shifted by 63 or more is 0
    shifts = [min(math.frexp(eps)[1] - math.frexp(finest)[1], 63) for eps in scales]
    levels = sorted(set(shifts), reverse=True)  # coarsest first
    # the bits of a cell that each level adds: all at the coarsest, then those
    # between the level and the one before it
    masks = [-1] + [2 ** (coarse - fine) - 1 for coarse, fine in zip(levels, levels[1:])]
    radices = [(math.floor(reach) >> levels[0]) + 1] + [mask + 1 for mask in masks[1:]]
    full = _power_exceeds(math.floor(reach) + 1, m, n_samples - 1)
    keys = _DistinctRows(len(levels) * m, [r for r in radices for _ in range(m)],
                         n_samples if full else 0)
    pairs = [(i - 1, j - 1) for i, j in g.edges]
    k4 = d == 2 and tuple(pairs) == _K4_PAIRS
    top, worst, degenerate, buffer, digit = -math.inf, -math.inf, 0, None, None
    for pts in _sample_chunks(sampler, g.n_vertices, n_samples, seed):
        count = pts.shape[0]
        if buffer is None:  # the first chunk is the longest
            buffer = np.empty((m, count))
        lengths = _edge_lengths(pts, pairs, buffer[:, :count])
        if k4:
            residuals = _k4_residuals(pts, lengths)
            finite = np.isfinite(residuals)
            degenerate += residuals.size - np.count_nonzero(finite)
            worst = max(worst, float(residuals.max(where=finite, initial=-math.inf)))
        top = np.maximum(top, lengths.max())  # keeps a NaN, so a refusal sticks
        with np.errstate(over="ignore"):
            covered = top / finest <= reach
        if covered:
            if digit is None:
                # allocated after the first chunk's temporaries, not with the
                # buffer: allocated first, they left glibc a free heap top to
                # trim after most chunks and fault in again on the next
                cells, digit = np.empty((m, count), dtype=np.int64), np.empty(count, dtype=np.int64)
            chunk_cells, out = cells[:, :count], digit[:count]
            np.floor(np.divide(lengths, finest, out=lengths), out=chunk_cells, casting="unsafe")
            keys.add((np.bitwise_and(np.right_shift(cell, shift, out=out), mask, out=out)
                      for shift, mask in zip(levels, masks) for cell in chunk_cells), count)
    if not covered:
        _check_cells(0.0, top, scales)
        raise ValueError(f"an edge length of {float(top)!r} exceeds the bound "
                         f"{bound!r} that the sampler's side gives")
    counts = keys.counts([(levels.index(shift) + 1) * m for shift in shifts])
    # residuals are never negative, so -inf is left only where none was finite
    return _fit_slope(scales, tuple(counts)), (worst if worst > -math.inf else None), degenerate


def covering_count(cloud, eps: float) -> int:
    """Number of occupied cells of the origin-anchored eps-grid.

    The count is exact. Each column's cell range is read from its
    extremes, since x / eps and the floor are monotone; every cell index
    vector, shifted by the column minima, is then packed into int64 words
    at one radix, _SAMPLE_CHUNK_ENTRIES cloud entries at a time, into a
    _DistinctRows buffer of one row per point, and the distinct rows are
    counted there, not built. When the cells pack into one word per
    point, the words are sorted in place: besides the cloud only the
    words and the neighbour differences of one block are held. Rows of
    more words are sorted in place as big-endian keys (_keys), which
    adds the argsort index of the leading word and one reordered column.
    A column spanning more than 2^63 cells wraps to negative int64 in a
    word of its own; the wrap is one-to-one and only whole rows are
    compared, so the count stays exact. Raises ValueError when eps is not
    positive and finite, as check_scales does for each scale, when the
    cloud has a non-finite entry or when some |x / eps| reaches 2^63,
    where cell indices leave int64 (_check_cells).
    """
    eps = _check_scale(eps)
    a = np.asarray(cloud, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.size == 0:
        raise ValueError("empty cloud")
    n, m = a.shape
    low, high = a.min(axis=0), a.max(axis=0)
    _check_cells(low.min(), high.max(), [eps])
    lows = [int(cell) for cell in np.floor(low / eps)]
    radix = max(int(top) - lo + 1 for top, lo in zip(np.floor(high / eps), lows))
    keys = _DistinctRows(m, radix, n)
    chunk = max(1, _SAMPLE_CHUNK_ENTRIES // m)
    for start in range(0, n, chunk):
        part = a[start:start + chunk]
        keys.add((np.floor(col / eps).astype(np.int64) - low for col, low in zip(part.T, lows)),
                 len(part))
    return keys.count()


def _check_cells(low, high, scales):
    """ValueError if some cell index of a cloud with entries in [low, high]
    leaves int64 at one of the scales, that is if max(-low, high) / eps
    reaches 2^63: that the cloud has a non-finite entry, or else the
    largest |x / eps| at the first such eps in the list. The extremes are
    tested for finiteness, not the reach, so a finite cloud whose
    |x / eps| overflows to inf gets the int64 message."""
    for eps in scales:
        with np.errstate(over="ignore"):
            reach = np.maximum(-low, high) / eps  # keeps a NaN; max(-0.0, nan) is -0.0
        if not reach <= _CELL_REACH:
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError("cloud has a non-finite entry")
            raise ValueError(
                f"eps={eps!r} gives cell indices beyond the int64 range "
                f"(|x/eps| up to {reach:.3g}, limit 2^63)")


@dataclass(frozen=True)
class CoveringEstimate:
    """Covering counts over a list of scales and the fitted slope of
    log2(count) against log2(1/eps), the box-dimension estimate."""

    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float


def _check_scale(eps) -> float:
    """eps as a float; ValueError unless it is finite and positive."""
    eps = float(eps)
    if not math.isfinite(eps):
        raise ValueError(f"scale {eps!r} is not finite")
    if not eps > 0:
        raise ValueError(f"scale {eps!r} is not positive "
                         f"(2^-e underflows to 0.0 for every e >= 1075)")
    return eps


def check_scales(scales) -> tuple[float, ...]:
    """The scales as a tuple of floats; ValueError unless every one is
    positive and finite and at least two of them are distinct, the fewest
    a slope can be fitted to."""
    scales = tuple(map(_check_scale, scales))
    if len(set(scales)) < 2:
        raise ValueError("need at least two distinct scales to fit a slope")
    return scales


def fit_box_dimension(cloud, scales) -> CoveringEstimate:
    """Least-squares box-dimension fit over the given scales (use powers of
    1/2 so coarser grids are exact unions of finer cells)."""
    scales = check_scales(scales)
    return _fit_slope(scales, tuple(covering_count(cloud, eps) for eps in scales))


def _fit_slope(scales: tuple, counts: tuple) -> CoveringEstimate:
    """The least-squares slope of log2(count) against log2(1/eps)."""
    xs = np.log2(1.0 / np.asarray(scales))
    ys = np.log2(np.asarray(counts, dtype=float))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return CoveringEstimate(scales=scales, counts=counts, slope=slope)

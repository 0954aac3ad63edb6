"""Exact finite probability primitives and bit-valued information measures.

Two numeric regimes coexist on purpose:

* probabilities, posteriors and distribution identities live in
  ``fractions.Fraction`` and are compared exactly (the equality cases of
  the bounds downstream are knife-edge, so float comparison would be
  meaningless there). A ``JointDist`` is stored as int numerators over
  one common denominator; every sum runs on those ints, and a ``Fraction``
  appears only in a result: one per probability, marginal or conditional
  cell, or a ``table`` entry once the table is read;
* logarithmic quantities (entropy, mutual information, surprisal,
  suspicion) are IEEE doubles computed from those exact fractions, with
  0*log(0) = 0 and -log(0) = +inf.

Floats are rejected as probability inputs; construct a ``Fraction`` first.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "FiniteDist",
    "JointDist",
    "entropy",
    "subset_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "cross_entropy_gap",
    "fano_lower_bound",
    "neg_log2",
    "log2_fraction",
    "LOG2_E",
    "as_probability",
    "fraction_to_jsonable",
    "fraction_from_jsonable",
    "label_to_jsonable",
    "label_from_jsonable",
]

ZERO = Fraction(0)
ONE = Fraction(1)
LOG2_E = math.log2(math.e)


def _scalar_types() -> tuple:
    """(boolean types, float types), numpy's among them once numpy is loaded:
    no numpy value exists before, and the exact layer never loads it."""
    np = sys.modules.get("numpy")
    if np is None:
        return bool, float
    return (bool, np.bool_), (float, np.floating)


def as_probability(value) -> Fraction:
    """Coerce to an exact Fraction, refusing floats (no silent rounding) and
    booleans (a JSON ``true`` is not probability 1).

    A Fraction comes back unchanged once its sign is checked."""
    if type(value) is not Fraction:
        if type(value) is not int:
            bools, floats = _scalar_types()
            if isinstance(value, bools):
                raise TypeError("a probability must be a number, got boolean %r" % (value,))
            if isinstance(value, floats):
                raise TypeError(
                    "probabilities must be exact (int, Fraction or string), got float %r" % value
                )
        value = Fraction(value)
    if value.numerator < 0:
        raise ValueError("probability must be >= 0, got %s" % value)
    return value


def _over_lcm(fracs: Sequence) -> tuple:
    """(den, ints): ``den`` the lcm of the Fractions' denominators and each
    Fraction as an int over it, in order. Laws, joints, draws and intervals
    all turn their Fractions into ints here."""
    den = math.lcm(*(p.denominator for p in fracs))
    return den, tuple(p.numerator * (den // p.denominator) for p in fracs)


def _picker(idx):
    """key -> tuple(key[i] for i in idx) for tuple keys, as one C call."""
    if len(idx) == 1:
        return operator.itemgetter(slice(idx[0], idx[0] + 1))
    if not idx:
        return lambda key: ()
    return operator.itemgetter(*idx)


def _grouped(nums: Mapping, idx) -> dict:
    """Int masses summed by the sub-key at positions ``idx``, first-seen order."""
    pick = _picker(idx)
    out: dict = {}
    for key, n in nums.items():
        sub = pick(key)
        out[sub] = out.get(sub, 0) + n
    return out


def log2_fraction(p: Fraction) -> float:
    """log2 of a positive rational, computed as log2(num) - log2(den).

    Splitting the logarithm avoids float under/overflow for fractions whose
    float conversion would be subnormal or infinite.
    """
    if p <= 0:
        raise ValueError("log2 of non-positive value")
    return math.log2(p.numerator) - math.log2(p.denominator)


def _log2_ratio(num: int, den: int) -> float:
    """log2(num / den) for positive ints: the float ``log2_fraction`` gives
    for ``Fraction(num, den)``, without making the Fraction."""
    g = math.gcd(num, den)
    return math.log2(num // g) - math.log2(den // g)


def neg_log2(p: Fraction) -> float:
    """Surprisal -log2(p) in bits; +inf exactly when p == 0."""
    if p == 0:
        return math.inf
    return -log2_fraction(p)


@dataclass(frozen=True, slots=True)
class FiniteDist:
    """An exact probability distribution on an ordered finite support.

    The support order is fixed at construction and is treated as canonical
    by everything downstream (interval partitions, JSON encodings,
    tie-breaking). Zero-probability labels are allowed and retained.
    """

    support: tuple
    probs: tuple
    # set by __post_init__; slots keep the many laws of a transformed tree small
    _index: dict = field(init=False, repr=False, compare=False)
    _ints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support = tuple(self.support)
        probs = tuple(as_probability(p) for p in self.probs)
        if not support:
            raise ValueError("support must be non-empty")
        if len(support) != len(probs):
            raise ValueError("support and probs length mismatch")
        if len(set(support)) != len(support):
            raise ValueError("support labels must be distinct")
        den, ints = _over_lcm(probs)
        if sum(ints) != den:
            total = Fraction(sum(ints), den)
            raise ValueError("probabilities must sum to exactly 1, got %s" % (total,))
        self._fill(support, probs, ints)

    def _fill(self, support: tuple, probs: tuple, ints: tuple) -> None:
        # the one place a law's slots are set
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(support)})

    @classmethod
    def _from_ints(cls, support: tuple, den: int, ints) -> "FiniteDist":
        """The law ints[k] / den on ``support``, unchecked: for distinct
        labels and ints >= 0 that sum to ``den`` by construction. The ints
        over their gcd with ``den`` are what ``_over_lcm`` gives."""
        g = math.gcd(den, *ints)
        den //= g
        ints = tuple(n // g for n in ints)
        law = object.__new__(cls)
        law._fill(support, tuple(Fraction(n, den) for n in ints), ints)
        return law

    @classmethod
    def _from_coprime_ints(cls, support: tuple, den: int, ints: tuple) -> "FiniteDist":
        """``_from_ints`` for ints that are each coprime to ``den``, so
        already reduced: each probability is made without a gcd, as
        ``Fraction._from_coprime_ints`` (Python 3.12+) makes one."""
        probs = []
        for n in ints:
            p = object.__new__(Fraction)
            p._numerator, p._denominator = n, den
            probs.append(p)
        law = object.__new__(cls)
        law._fill(support, tuple(probs), ints)
        return law

    @classmethod
    def uniform(cls, labels: Iterable) -> "FiniteDist":
        labels = tuple(labels)
        return cls(labels, tuple(Fraction(1, len(labels)) for _ in labels))

    @classmethod
    def point_mass(cls, support: Iterable, label) -> "FiniteDist":
        support = tuple(support)
        return cls(support, tuple(ONE if s == label else ZERO for s in support))

    def prob(self, label) -> Fraction:
        try:
            return self.probs[self._index[label]]
        except KeyError:
            raise ValueError("label %r not in support" % (label,)) from None

    def items(self):
        return zip(self.support, self.probs)

    def _int_view(self) -> tuple:
        """(den, numerators): probability k is numerators[k] / den, den the
        lcm of the probabilities' denominators and the numerators' sum."""
        return sum(self._ints), self._ints

    def to_jsonable(self) -> dict:
        return {
            "support": [label_to_jsonable(s) for s in self.support],
            "probs": [fraction_to_jsonable(p) for p in self.probs],
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "FiniteDist":
        return cls(
            tuple(label_from_jsonable(s) for s in data["support"]),
            tuple(fraction_from_jsonable(p) for p in data["probs"]),
        )


class JointDist:
    """An exact joint distribution over named finite axes.

    The one stored form is ``(den, {key: numerator})``: each positive entry
    as a Python int over the common denominator ``den``, which need not be
    the lcm of the entries' denominators. ``table`` maps the same label
    tuples (one entry per axis) to reduced Fractions; it is made on first
    read. Zero entries are dropped at construction; per-axis canonical
    supports are recorded from the construction order (including labels
    whose whole slice is zero), so marginals and conditionals report stable
    orderings.

    Built from Fractions (``den`` omitted), the entries are turned into
    ints over the lcm of their denominators once; the Fractions given are
    not kept, and the table is made from the ints on first read. Built with
    ``den``, the ``table`` argument holds non-negative Python ints over
    ``den``: this is how every derived joint is made.
    """

    __slots__ = ("axes", "axis_supports", "_axis_index", "_den", "_nums", "_table")

    def __init__(self, axes: Sequence[str], table: Mapping, axis_supports=None, *, den=None):
        axes = tuple(axes)
        if len(set(axes)) != len(axes):
            raise ValueError("axis names must be distinct")
        if not axes:
            raise ValueError("need at least one axis")
        if den is None:
            den, ints = _over_lcm([as_probability(p) for p in table.values()])
            table = dict(zip(table, ints))
        elif type(den) is not int or den < 1:
            raise ValueError("den must be a positive int, got %r" % (den,))
        items = [(tuple(key), n) for key, n in table.items()]
        arity = len(axes)
        nums = {}
        for key, n in items:
            if len(key) != arity:
                raise ValueError("key %r has wrong arity for axes %r" % (key, axes))
            if type(n) is not int or n < 0:
                raise ValueError("entries over den must be ints >= 0, got %r" % (n,))
            if n:
                if key in nums:
                    raise ValueError("duplicate key %r" % (key,))
                nums[key] = n
        total = sum(nums.values())
        if total != den:
            raise ValueError(
                "joint probabilities must sum to exactly 1, got %s" % Fraction(total, den)
            )
        keys = [key for key, _ in items]
        seen = [dict.fromkeys(map(operator.itemgetter(i), keys)) for i in range(arity)]
        if axis_supports is None:
            axis_supports = tuple(map(tuple, seen))
        else:
            axis_supports = tuple(tuple(s) for s in axis_supports)
            for i, sup in enumerate(axis_supports):
                labels = set(sup)
                if len(labels) != len(sup):
                    twice = next(lab for k, lab in enumerate(sup) if lab in sup[:k])
                    raise ValueError("axis %s support repeats label %r" % (axes[i], twice))
                missing = [lab for lab in seen[i] if lab not in labels]
                if missing:
                    raise ValueError("axis %s support is missing labels %r" % (axes[i], missing))
        self.axes = axes
        self.axis_supports = axis_supports
        self._axis_index = {a: i for i, a in enumerate(axes)}
        self._den = den
        self._nums = nums
        self._table = None

    @property
    def table(self) -> dict:
        """{key: probability} over the positive entries, in construction
        order, as reduced Fractions. Made on first read."""
        if self._table is None:
            den = self._den
            self._table = {key: Fraction(n, den) for key, n in self._nums.items()}
        return self._table

    def _int_view(self) -> tuple:
        """(den, {key: numerator}): every positive entry is numerator / den.

        ``den`` is whatever the joint was built over, not necessarily the
        lcm, so every reader stays free of the representation: it reads
        ratios of numerators, correctly rounded int true division
        ``n / den``, or reduced Fractions."""
        return self._den, self._nums

    def __eq__(self, other):
        return (
            isinstance(other, JointDist)
            and self.axes == other.axes
            and self.table == other.table
        )

    def __repr__(self):
        return "JointDist(axes=%r, %d outcomes)" % (self.axes, len(self._nums))

    def axis_index(self, axis: str) -> int:
        try:
            return self._axis_index[axis]
        except KeyError:
            raise ValueError("unknown axis %r (have %r)" % (axis, self.axes)) from None

    def prob_event(self, assignment: Mapping) -> Fraction:
        """Probability of the event {axis == value for every given axis}."""
        idx = [(self.axis_index(a), v) for a, v in assignment.items()]
        den, nums = self._int_view()
        return Fraction(
            sum(n for key, n in nums.items() if all(key[i] == v for i, v in idx)), den
        )

    def marginal(self, axes: Sequence[str]) -> "JointDist":
        axes = tuple(axes)
        idx = [self.axis_index(a) for a in axes]
        supports = tuple(self.axis_supports[i] for i in idx)
        return JointDist(axes, _grouped(self._nums, idx), axis_supports=supports, den=self._den)

    def marginal_dist(self, axis: str) -> FiniteDist:
        i = self.axis_index(axis)
        support = self.axis_supports[i]
        den, nums = self._int_view()
        acc = dict.fromkeys(support, 0)
        for key, n in nums.items():
            acc[key[i]] += n
        return FiniteDist._from_ints(support, den, tuple(acc.values()))

    def condition(self, assignment: Mapping) -> "JointDist":
        """Condition on {axis == value}; returns a joint over the remaining axes."""
        fixed = {self.axis_index(a): v for a, v in assignment.items()}
        keep = [i for i in range(len(self.axes)) if i not in fixed]
        if not keep:
            raise ValueError("conditioning on every axis leaves nothing")
        test, want = _picker(tuple(fixed)), tuple(fixed.values())
        pick = _picker(keep)
        out: dict = {}
        total = 0
        for key, n in self._nums.items():
            if test(key) == want:
                total += n
                sub = pick(key)
                out[sub] = out.get(sub, 0) + n
        if total == 0:
            raise ValueError("conditioning event has probability zero")
        return JointDist(
            tuple(self.axes[i] for i in keep),
            out,
            axis_supports=tuple(self.axis_supports[i] for i in keep),
            den=total,
        )

    def conditional_dist(self, axis: str, assignment: Mapping) -> FiniteDist:
        return self.condition(assignment).marginal_dist(axis)

    def _table_supports(self) -> tuple:
        """The supports that reading the table alone gives: each axis's
        labels with positive mass, in first-seen order."""
        return tuple(
            tuple(dict.fromkeys(key[i] for key in self._nums)) for i in range(len(self.axes))
        )

    def to_jsonable(self) -> dict:
        """The positive entries, plus ``axis_supports`` when the table alone
        would read back other supports: a label with no positive entry, or
        an order other than first seen.

        Files whose supports the table implies carry no ``axis_supports``.
        """
        data = {
            "axes": list(self.axes),
            "table": [
                {"key": [label_to_jsonable(x) for x in key], "p": fraction_to_jsonable(p)}
                for key, p in self.table.items()
            ],
        }
        if self._table_supports() != self.axis_supports:
            data["axis_supports"] = [
                [label_to_jsonable(x) for x in sup] for sup in self.axis_supports
            ]
        return data

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "JointDist":
        def entry(row):
            return tuple(map(label_from_jsonable, row["key"])), fraction_from_jsonable(row["p"])

        table = _unique("joint table key", map(entry, data["table"]))
        supports = data.get("axis_supports")
        if supports is not None:
            supports = [[label_from_jsonable(x) for x in sup] for sup in supports]
        return cls(tuple(data["axes"]), table, axis_supports=supports)


def _axes_tuple(axes) -> tuple:
    if isinstance(axes, str):
        return (axes,)
    return tuple(axes)


def entropy(d: FiniteDist) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    return -sum(float(p) * log2_fraction(p) for p in d.probs if p > 0) + 0.0


def subset_entropy(j: JointDist, axes: Sequence[str]) -> float:
    """Entropy of the marginal over the given axes (all axes if equal set)."""
    axes = _axes_tuple(axes)
    idx = [j.axis_index(a) for a in axes]
    den, nums = j._int_view()
    # n / den is correctly rounded, so each term is float(p) * log2_fraction(p)
    return -sum(n / den * _log2_ratio(n, den) for n in _grouped(nums, idx).values()) + 0.0


def mutual_information(j: JointDist, axes_a, axes_b) -> float:
    """I(A;B) in bits; A and B may each be one axis or a group of axes."""
    a = _axes_tuple(axes_a)
    b = _axes_tuple(axes_b)
    if set(a) & set(b):
        raise ValueError("axis groups must be disjoint")
    return subset_entropy(j, a) + subset_entropy(j, b) - subset_entropy(j, a + b)


def conditional_mutual_information(j: JointDist, axes_a, axes_b, axes_z) -> float:
    """I(A;B|Z) = H(A,Z) + H(B,Z) - H(A,B,Z) - H(Z); Z may be a group or empty."""
    a = _axes_tuple(axes_a)
    b = _axes_tuple(axes_b)
    z = _axes_tuple(axes_z) if axes_z else ()
    groups = (set(a), set(b), set(z))
    if (groups[0] & groups[1]) or (groups[0] & groups[2]) or (groups[1] & groups[2]):
        raise ValueError("axis groups must be disjoint")
    if not z:
        return mutual_information(j, a, b)
    return (
        subset_entropy(j, a + z)
        + subset_entropy(j, b + z)
        - subset_entropy(j, a + b + z)
        - subset_entropy(j, z)
    )


def cross_entropy_gap(p: FiniteDist, q: FiniteDist) -> float:
    """Excess code length -sum p log q - H(p), in bits.

    Non-negative, zero exactly when p == q (short-circuited on the exact
    rational comparison). Returns +inf when q puts zero mass where p does
    not. Each term uses the exact ratio p/q so near-equal inputs do not
    cancel catastrophically.
    """
    if p.support != q.support:
        raise ValueError("distributions must share the same ordered support")
    if p.probs == q.probs:
        return 0.0
    total = 0.0
    for pp, qq in zip(p.probs, q.probs):
        if pp == 0:
            continue
        if qq == 0:
            return math.inf
        total += float(pp) * log2_fraction(pp / qq)
    return total


def fano_lower_bound(h_cond: float, support_size: int) -> float:
    """Lower bound on guessing error from conditional entropy: (H-1)/log2(M), clamped at 0."""
    if support_size < 2:
        raise ValueError("support_size must be >= 2")
    return max(0.0, (h_cond - 1.0) / math.log2(support_size))


def fraction_to_jsonable(p: Fraction) -> dict:
    return {"num": p.numerator, "den": p.denominator}


def _sample(rng, weighted):
    """One exact draw from (label, weight) pairs, weights exact and >= 0.

    The positive weights are scaled to integers over their common
    denominator; one ``rng.randrange`` over their total picks the label by
    integer cumulative sums, so a zero-weight label is never drawn. Every
    draw from an exact law (``simulate``, ``compose_run``) goes through here.
    """
    pairs = [(label, w) for label, w in weighted if w > 0]
    if not pairs:
        raise ValueError("nothing to draw: no label has positive weight")
    labels, weights = zip(*pairs)
    ints = _over_lcm(weights)[1]
    r = rng.randrange(sum(ints))
    for label, n in zip(labels, ints):
        if r < n:
            return label
        r -= n


def fraction_from_jsonable(data) -> Fraction:
    if isinstance(data, Mapping):
        return Fraction(_integral("rational num", data["num"]), _integral("rational den", data["den"]))
    if isinstance(data, str) or (isinstance(data, int) and not isinstance(data, bool)):
        return Fraction(data)
    raise ValueError("cannot decode rational from %r" % (data,))


def _unique(what: str, pairs) -> dict:
    """dict(pairs), with a key given twice a ValueError naming it, not an
    overwrite. Every reader of keyed rows builds its dict here."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError("%s %r appears twice" % (what, key))
        out[key] = value
    return out


def _integral(what: str, value, floats: bool = False) -> int:
    """value as a Python int (numpy integers, and with floats set integral
    floats, included). A fractional, non-numeric or boolean value would
    silently stand for another number, so it is a ValueError. Every integer
    read from a file goes through here."""
    if type(value) is int:
        return value
    bools, inexact = _scalar_types()
    if floats and isinstance(value, inexact) and value.is_integer():
        return int(value)
    if not isinstance(value, bools):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError("%s must be an integer, got %r" % (what, value))


def label_to_jsonable(label):
    """Labels are ints, strings, or (possibly nested) tuples of labels."""
    if isinstance(label, tuple):
        return [label_to_jsonable(x) for x in label]
    return label


def label_from_jsonable(data):
    if isinstance(data, list):
        return tuple(label_from_jsonable(x) for x in data)
    return data

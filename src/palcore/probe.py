"""Discreteness evidence from the compactness of the palindromic spectrum.

For a discrete non-elementary group the axes of all palindromic elements
cross the core geodesic in a compact interval (with parabolic palindromes
escaping to core ends when cusps are present); for a non-discrete group
the crossing positions are unbounded. The probe samples the position
spectrum over the Farey tree of primitive classes plus random
palindromizations, tracks the growth of max|s| by tree depth, and reports
an evidence verdict. A Jorgensen inequality value is attached as an
independent classical cross-check.

Verdicts are evidence labels, not theorems: a bounded spectrum over a
finite search cannot certify discreteness.
"""
from __future__ import annotations

import atexit
import json
import math
import random
from functools import lru_cache
from itertools import accumulate, islice
from typing import IO, Iterable, NamedTuple

from .config import DEFAULT_ESCAPE, DEFAULT_PLATEAU
from .errors import PalcoreError
from .farey import FareyTable, farey_table
from .representation import (
    PALINDROME_PAIR,
    PALINDROME_WORD,
    PARABOLIC_END,
    PiImage,
    Representation,
    _pair_position,
    _palindrome_position,
    palindromize,
    pi_of_palindrome,
)
from .sl2c import IDENTITY, product
from .words import LETTERS, Word, evaluate, reduced_words

BOUNDED_CONSISTENT_WITH_GF = "BOUNDED_CONSISTENT_WITH_GF"
UNBOUNDED_EVIDENCE_NONDISCRETE = "UNBOUNDED_EVIDENCE_NONDISCRETE"
PARABOLIC_ENDS_DETECTED = "PARABOLIC_ENDS_DETECTED"
INCONCLUSIVE = "INCONCLUSIVE"

VERDICTS = (
    BOUNDED_CONSISTENT_WITH_GF,
    UNBOUNDED_EVIDENCE_NONDISCRETE,
    PARABOLIC_ENDS_DETECTED,
    INCONCLUSIVE,
)


class SpectrumEntry(NamedTuple):
    """Pi image of one slope, or the error that prevented it.

    words is the slope's palindrome, or its palindromic factor pair when
    pq is odd; word is their display text.
    """

    p: int
    q: int
    depth: int
    words: tuple[Word, ...]
    image: PiImage | None = None
    error: str | None = None

    @property
    def word(self) -> str:
        """The slope word as shown in reports: a factor pair reads u|v."""
        return "|".join(self.words)

    def to_json(self) -> dict:
        out: dict = {"p": self.p, "q": self.q, "depth": self.depth}
        if self.image is not None:
            out.update(self.image.to_json(self.word))
        if self.error is not None:
            out["error"] = self.error
        return out

    def json_text(self, pad: str) -> str:
        """to_json's object as json.dump(..., indent=2) writes it, where
        pad, a newline and spaces, is the indent of the object's own line.

        The text is formatted from the fields, with no dict built. The
        slope word is written as it is: Word text is letters of LETTERS,
        which JSON does not escape.
        """
        p, q, depth, words, image, error = self
        keys = pad + "  "
        text = f'{{{keys}"p": {p},{keys}"q": {q},{keys}"depth": {depth}'
        if image is not None:
            text += _image_text(image, '"' + "|".join(words) + '"', keys)
        if error is not None:
            text += f',{keys}"error": {_quote(error)}'
        return f"{text}{pad}}}"


class SampleEntry(NamedTuple):
    """Palindromization of one random word, or the error it raised."""

    base: str
    word: str | None = None
    image: PiImage | None = None
    error: str | None = None

    def to_json(self) -> dict:
        out: dict = {"base": self.base}
        if self.word is not None:
            out["word"] = self.word
        if self.image is not None:
            out.update(self.image.to_json())
        if self.error is not None:
            out["error"] = self.error
        return out

    def json_text(self, pad: str) -> str:
        """to_json's object as text, as SpectrumEntry.json_text writes its
        own."""
        base, word, image, error = self
        keys = pad + "  "
        text = f'{{{keys}"base": {_quote(base)}'
        if word is not None:
            text += f',{keys}"word": {_quote(word)}'
        if image is not None:
            text += _image_text(image, None, keys)
        if error is not None:
            text += f',{keys}"error": {_quote(error)}'
        return f"{text}{pad}}}"


# the JSON text of the strings that entries repeat: the routes and the
# isometry types of a position
_QUOTED = {
    text: json.dumps(text)
    for text in (PALINDROME_WORD, PALINDROME_PAIR, PARABOLIC_END,
                 "identity", "parabolic", "elliptic", "loxodromic")
}


def _quote(text: str) -> str:
    """text as JSON writes a string."""
    return _QUOTED.get(text) or json.dumps(text)


def _image_text(image: PiImage, word: str | None, keys: str) -> str:
    """The members PiImage.to_json gives, as json.dump(..., indent=2)
    writes them after an earlier member, each on a line that starts with
    keys; word is the JSON text of the word, or None for no word member.
    A finite s is written as JSON writes a float, a tag at a core end as
    the text "inf" or "-inf" to_json gives, and NaN as JSON writes it."""
    s, source, kind = image
    if s - s == 0:
        s_text = repr(s)
    else:
        s_text = '"inf"' if s > 0 else '"-inf"' if s < 0 else "NaN"
    text = f',{keys}"s": {s_text},{keys}"source": {_quote(source)}'
    if word is not None:
        text += f',{keys}"word": {word}'
    return f'{text},{keys}"class": {_quote(kind)}'


class WitnessRecord(NamedTuple):
    """A palindrome whose |s| exceeded the escape threshold."""

    word: str
    s: float
    source: str
    c: str | None = None
    d: str | None = None
    n: int | None = None

    def to_json(self) -> dict:
        out: dict = {"word": self.word, "s": self.s, "source": self.source}
        if self.c is not None:
            out.update({"c": self.c, "d": self.d, "n": self.n})
        return out


class JorgensenResult(NamedTuple):
    value: float
    passed: bool

    def to_json(self) -> dict:
        return {"value": self.value, "pass": self.passed}


def jorgensen_baseline(rep: Representation) -> JorgensenResult:
    """|tr^2 A - 4| + |tr[A,B] - 2| and whether it meets the classical
    lower bound 1 required of discrete non-elementary groups."""
    a, b = rep.A, rep.B
    comm = a * b * a.inverse() * b.inverse()
    value = abs(a.trace() ** 2 - 4) + abs(comm.trace() - 2)
    return JorgensenResult(value, value >= 1.0)


def _common_prefix(u: str, v: str) -> int:
    """The number of leading letters u and v share, for u < v: all of u
    when v starts with it, else the longest shared prefix by binary search,
    each step comparing one slice in C."""
    if v.startswith(u):
        return len(u)
    lo, hi = 0, len(u) if len(u) < len(v) else len(v)
    while hi - lo > 1:  # u[:lo] == v[:lo] and u[:hi] != v[:hi]
        mid = (lo + hi) // 2
        if v.startswith(u[lo:mid], lo):
            lo = mid
        else:
            hi = mid
    return lo


def _fold_schedule(words: list, places: list) -> tuple[tuple, int]:
    """The letter folds of the words, each shared prefix folded once: the
    ops of the compressed prefix trie of the words, in depth-first order,
    and the number of states the walk keeps. places[k] is the plan
    position whose image is the fold of words[k].

    An op, five consecutive fields k, word, start, end, i of the flat
    tuple returned, folds word[start:end] from state k into state k + 1,
    state 0 being the identity; state k + 1 is then the image of
    word[:end], and that of plan position i when end is the word's length
    (i is None at a branch point). Flat, the ops cost no tuple each, about
    2 MB of a depth-16 plan: with a tuple per op and without the interned
    letter counts below, `palcore probe --depth 16` peaked at 100.2 MB
    against 95.9 MB (2-vCPU VM).

    Sorted, the words of every subtree of the trie are one run. A word
    leaves the path of the word before it after their common prefix, and
    the trie nodes it adds below that are its own end and the points where
    a later word leaves its path: the running minima, above that prefix,
    of the common prefixes of the neighbours that follow, which one
    backward pass keeps on a stack. The sort and that pass build lists of
    ints only, which the cyclic garbage collector does not track.

    The trie pays for its sort: continuing each word from the longest
    earlier word that is its prefix, on a stack, made the benchmark's
    slice-sweep 3.0 % slower (faster in 0 of 5 pairs of runs).
    """
    order = sorted(range(len(words)), key=words.__getitem__)
    words = [words[k] for k in order]
    # shared[k]: the letters word k shares with word k - 1
    shared = [0, *map(_common_prefix, words, words[1:])]
    # one int object per letter count: the ops hold tens of thousands
    # of them
    counts: dict[int, int] = {}
    later: list[int] = []  # where the words after word k leave its path
    # the ends of the trie nodes each word adds, the words from last to
    # first and each word's ends descending, its own length first; and how
    # many of them are branch points
    added: list[int] = []
    branches: list[int] = []
    for length, cut in zip(map(len, reversed(words)), reversed(shared)):
        added.append(counts.setdefault(length, length))
        count = 0
        while later and later[-1] > cut:
            end = later.pop()
            if end != length:
                added.append(end)
                count += 1
        branches.append(count)
        if not later or later[-1] != cut:
            later.append(counts.setdefault(cut, cut))
    added.reverse()
    branches.reverse()
    ops: list = []
    path = [0]  # the ends of the trie nodes on the current word's path
    height = 1
    ends = iter(added)
    for word, k, cut, count in zip(words, order, shared, branches):
        while path[-1] > cut:
            path.pop()
        for end in islice(ends, count):
            ops += (len(path) - 1, word, path[-1], end, None)
            path.append(end)
        end = next(ends)
        ops += (len(path) - 1, word, path[-1], end, places[k])
        path.append(end)
        if len(path) > height:
            height = len(path)
    return tuple(ops), height


@lru_cache(maxsize=1)
def _spectrum_plan(depth: int) -> tuple[tuple, int, FareyTable]:
    """The walk of pi_spectrum at depth, read off farey_table(depth): the
    fold schedule (_fold_schedule) of every image built by a letter fold,
    the number of states it keeps, and the table itself, in its walk
    order. The schedule's plan positions are the table's places, and a
    slope's lo and hi are those of its Farey parents (None for a root).

    The letter fold serves only the pair positions, so it builds exactly
    the images of the pair factors: the roots and the palindromic slopes
    above the last level. That is by parity: (p, q) mod 2 is (1, 1) for
    an odd slope and (0, 1) or (1, 0) for a palindromic one, Farey
    neighbours have determinant 1, so theirs differ, and their mediant
    has the third. So both Farey parents of an odd slope are palindromic,
    and the two children of a palindromic slope, its mediants with its
    own parents, take those parents' parities, one of them odd. Each
    factor's image is the letter fold of its palindrome,
    as rational_pi folds it from the identity, and the schedule folds each
    prefix these words share once. Slope words never cancel, so the fold
    of word[:end] continued over word[end:] is the fold of word, bit for
    bit, wherever the schedule splits it (see words.evaluate). So every
    pair position keeps the letter fold's bits.

    pi_spectrum forms every other image it keeps as one sl2c.product of
    its parents' images: lo * hi for an odd slope below the last level,
    and hi * lo for an even slope on the last level, whose image gives
    its own position only. An odd slope on the last level gets no image:
    its position reads only its parents' images.

    Every Word is one the walk built, held by reference, and nothing
    depends on a representation or a tolerance. The cache keeps the last
    depth only.
    """
    table = farey_table(depth)
    words = table.words
    # the pair factors: the roots and the palindromic slopes above the last level
    places = [
        i for i, at in enumerate(table.level)
        if len(words[i]) == 1 and (at < depth or table.lo[i] is None)
    ]
    schedule, height = _fold_schedule([words[i][0] for i in places], places)
    return schedule, height, table


# the plan holds the slopes' Words and words tuples, which the cyclic
# garbage collector tracks; dropping it at exit spares the interpreter's
# final collections from walking them, about 6 ms of a depth-12 CLI run
# (without the hook, 1 of 21 runs was faster)
atexit.register(_spectrum_plan.cache_clear)


def pi_spectrum(rep: Representation, depth: int) -> list[SpectrumEntry]:
    """Pi image for every slope of the Farey tree to the given depth.

    Entries are in deterministic (q, p) order. Per-slope failures are
    recorded on the entry, not raised. Consecutive calls at one depth share
    one walk, the plan of _spectrum_plan, which holds the fold schedule and
    the Farey table, and nothing of rep or of a tolerance. The schedule
    runs first, one words.evaluate call per segment of the pair factors'
    prefix trie, and builds their letter-fold images; then the table's
    columns are read in walk order, where both Farey parents come before
    a slope. Each slope gets its position, and every other image kept its
    one product of its parents' images (see _spectrum_plan). The table's
    order puts the entries in (q, p) order. The images of the slopes
    above the last level are kept for this call.
    Every entry has rational_pi's outcome, and its bits but for the
    position of an even slope on the last level: its image is a product
    of products, which moves the position by a few units in the last
    place.
    """
    letters = rep.letters
    schedule, height, table = _spectrum_plan(depth)
    images: list = [None] * len(table.p)
    states: list = [IDENTITY] * height
    ops = iter(schedule)
    for k, word, start, end, i in zip(ops, ops, ops, ops, ops):
        m = states[k + 1] = evaluate(word[start:end], letters, states[k])
        if i is not None:
            images[i] = m
    entries = []
    for i, (p, q, level, lo, hi, words) in enumerate(
        zip(table.p, table.q, table.level, table.lo, table.hi, table.words)
    ):
        image = error = None
        try:
            if len(words) == 2:
                if level < depth:
                    images[i] = product(images[lo], (images[hi],))
                image = _pair_position(*words, images[lo], images[hi])
            else:
                m = images[i]
                if m is None:  # an even slope on the last level
                    m = product(images[hi], (images[lo],))
                image = _palindrome_position(words[0], m)
        except PalcoreError as exc:
            error = f"{type(exc).__name__}: {exc}"
        entries.append(
            tuple.__new__(SpectrumEntry, (p, q, level, words, image, error))
        )
    return list(map(entries.__getitem__, table.order))


def spectrum_to_csv(entries: Iterable[SpectrumEntry], stream: IO[str]) -> None:
    """Write spectrum entries as CSV with header p,q,s,class,source."""
    import csv  # only this writer needs it, and the CLI loads it only here

    writer = csv.writer(stream)
    writer.writerow(["p", "q", "s", "class", "source"])
    for e in entries:
        if e.image is None:
            writer.writerow([e.p, e.q, "", "", f"error:{e.error}"])
            continue
        if math.isinf(e.image.s):
            s_out = "inf" if e.image.s > 0 else "-inf"
        else:
            s_out = repr(e.image.s)
        writer.writerow([e.p, e.q, s_out, e.image.element_class, e.image.source])


def random_word(rng: random.Random, length: int) -> Word:
    """Random reduced word of exactly the given length: uniform letters
    with no immediate backtracking. Raises ValueError for a negative
    length."""
    if length < 0:
        raise ValueError(f"word length must be non-negative, got {length}")
    if length == 0:
        return Word()
    letters = [rng.choice(LETTERS)]
    while len(letters) < length:
        inverse = Word(letters[-1]).inverse()
        letters.append(rng.choice([x for x in LETTERS if x != inverse]))
    return Word("".join(letters))


def sample_palindromizations(
    rep: Representation, count: int, max_length: int, seed: int
) -> list[SampleEntry]:
    """Palindromize `count` seeded random words of length <= max_length."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        w = random_word(rng, rng.randint(1, max(1, max_length)))
        try:
            pal, image = palindromize(rep, w)
            out.append(SampleEntry(str(w), word=str(pal), image=image))
        except PalcoreError as exc:
            out.append(
                SampleEntry(str(w), error=f"{type(exc).__name__}: {exc}")
            )
    return out


def _check_positive(name: str, value: float) -> None:
    if not value > 0:  # NaN fails too
        raise ValueError(f"{name} must be positive, got {value}")


def _evidence(
    spectrum: Iterable[SpectrumEntry],
    samples: Iterable[SampleEntry],
    depth: int,
    s_escape: float,
) -> tuple[tuple[float, float] | None, tuple[float, ...], str, tuple[WitnessRecord, ...]]:
    """The interval, growth series, verdict and witnesses of probe, from
    one pass over the spectrum and one over the samples.

    The interval is (min, max) of the finite spectrum positions, None when
    there are none, and growth[d] is max |s| over the finite positions at
    tree depth <= d. A parabolic-end tag raises the parabolic flag and a
    finite |s| beyond s_escape of any other image records a witness, the
    spectrum's first, then the samples'. Of equal values, the first
    reached bounds the interval, as min and max keep it.
    """
    level_max = [0.0] * (depth + 1)
    low = high = None
    witnesses = []
    tagged_parabolic = False
    for entry in spectrum:
        image = entry.image
        if image is None:
            continue
        s, source, _ = image
        if s - s == 0:  # finite
            if low is None:
                low = high = s
            elif s < low:
                low = s
            elif s > high:
                high = s
            size = abs(s)
            if size > level_max[entry.depth]:
                level_max[entry.depth] = size
            if size > s_escape and source != PARABOLIC_END:
                witnesses.append(WitnessRecord(entry.word, s, source))
        if source == PARABOLIC_END:
            tagged_parabolic = True
    for entry in samples:
        image = entry.image
        if image is None:
            continue
        if image.source == PARABOLIC_END:
            tagged_parabolic = True
        elif image.finite and abs(image.s) > s_escape:
            witnesses.append(WitnessRecord(entry.word, image.s, image.source))
    growth = tuple(accumulate(level_max, max))
    if witnesses:
        verdict = UNBOUNDED_EVIDENCE_NONDISCRETE
    elif tagged_parabolic:
        verdict = PARABOLIC_ENDS_DETECTED
    elif (depth >= 2 and low is not None
          and growth[depth] - growth[depth - 2] < DEFAULT_PLATEAU):
        verdict = BOUNDED_CONSISTENT_WITH_GF
    else:
        verdict = INCONCLUSIVE
    interval = None if low is None else (low, high)
    return interval, growth, verdict, tuple(witnesses)


class ProbeReport(NamedTuple):
    """Everything the probe measured, plus the verdict derived from it."""

    depth: int
    seed: int
    s_escape: float
    spectrum: tuple[SpectrumEntry, ...]
    random_palindrome_samples: tuple[SampleEntry, ...]
    interval: tuple[float, float] | None
    growth: tuple[float, ...]
    verdict: str
    witnesses: tuple[WitnessRecord, ...]
    jorgensen: JorgensenResult

    def json_fields(self) -> dict:
        """to_json's object with the spectrum and the samples left as
        their entries, which a streamed writer formats one by one
        (SpectrumEntry.json_text): the probe command writes its report so.
        """
        return {
            "depth": self.depth,
            "seed": self.seed,
            "samples_requested": len(self.random_palindrome_samples),
            "s_escape": self.s_escape,
            "plateau_delta": DEFAULT_PLATEAU,
            "spectrum": self.spectrum,
            "random_palindrome_samples": self.random_palindrome_samples,
            "interval": list(self.interval) if self.interval is not None else None,
            "growth": list(self.growth),
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
            "jorgensen": self.jorgensen.to_json(),
        }

    def to_json(self) -> dict:
        out = self.json_fields()
        out["spectrum"] = [e.to_json() for e in self.spectrum]
        out["random_palindrome_samples"] = [
            e.to_json() for e in self.random_palindrome_samples
        ]
        return out


def probe(
    rep: Representation,
    depth: int,
    random_samples: int = 0,
    seed: int = 0,
    s_escape: float = DEFAULT_ESCAPE,
) -> ProbeReport:
    """Run the spectrum probe and classify the evidence.

    Verdict rules, in order of precedence:
    - any finite |s| beyond s_escape (spectrum or samples): UNBOUNDED
      evidence, with every escaping palindrome recorded as a witness;
    - any parabolic-end tag: PARABOLIC_ENDS_DETECTED (with cusps the
      finite positions drift logarithmically, so no plateau is demanded;
      the interval reported covers the non-parabolic entries);
    - growth of max|s| increased less than DEFAULT_PLATEAU (0.01) from
      depth-2 to depth: BOUNDED_CONSISTENT_WITH_GF;
    - otherwise INCONCLUSIVE.

    Per-entry computation failures are recorded in the report and do not
    affect the verdict beyond their absence from the statistics.

    No finite position exceeds config.CERTIFIABLE_CEILING: an entry whose
    off-diagonal entries leave a larger ratio is refused at the
    certifiable floor. An s_escape at or above that ceiling, such as the
    default DEFAULT_ESCAPE = 25, never records a witness.

    Raises ValueError for depth < 1, a negative random_samples, or an
    s_escape that is not positive (NaN included).
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if random_samples < 0:
        raise ValueError(f"random_samples must be >= 0, got {random_samples}")
    _check_positive("s_escape", s_escape)
    spectrum = tuple(pi_spectrum(rep, depth))
    samples = tuple(
        sample_palindromizations(rep, random_samples, 2 * depth, seed)
    )
    interval, growth, verdict, witnesses = _evidence(
        spectrum, samples, depth, s_escape
    )
    return ProbeReport(
        depth=depth,
        seed=seed,
        s_escape=s_escape,
        spectrum=spectrum,
        random_palindrome_samples=samples,
        interval=interval,
        growth=growth,
        verdict=verdict,
        witnesses=witnesses,
        jorgensen=jorgensen_baseline(rep),
    )


def witness_search(
    rep: Representation,
    max_conj_power: int,
    max_word_len: int,
    s_escape: float = DEFAULT_ESCAPE,
) -> WitnessRecord | None:
    """Search for an escaping palindrome among conjugate-push words.

    For words C, D up to max_word_len (ordered by length, then letters) and
    powers n up to max_conj_power, form U = C^n D C^-n and test the two
    palindromes U reverse(U) and reverse(U) U, each one positional
    pi_of_palindrome(rep, word) call; the first with finite |s| > s_escape
    is returned with its (C, D, n) data. Returns None when the grid is
    exhausted, which is always the case for an s_escape at or above
    config.CERTIFIABLE_CEILING, the default DEFAULT_ESCAPE = 25 included.
    Raises ValueError for bounds below 1 or an s_escape that is not
    positive.

    U is built from the previous power's X = C^(n-1) D C^-(n-1), starting
    from X = D, as C X C^-1. With x the last letter of C, C^-1 starts with
    the inverse of x, so the product cancels only where X starts with the
    inverse of x or ends in x; otherwise U is the text of C, X and C^-1
    joined, which is its reduced form, and where it cancels U is their
    Word product. Neither palindrome cancels at its junction, which pairs
    a letter with itself, so both are joined texts.
    """
    if max_conj_power < 1 or max_word_len < 1:
        raise ValueError("search bounds must be >= 1")
    _check_positive("s_escape", s_escape)
    vocabulary = list(reduced_words(max_word_len))
    powers = range(1, max_conj_power + 1)
    for c in vocabulary:
        c_inv = c.inverse()
        last = c[-1]
        last_inverse = c_inv[0]
        for d in vocabulary:
            u = d
            for n in powers:
                if u[0] == last_inverse or u[-1] == last:
                    u = c * u * c_inv
                else:
                    u = str.__new__(Word, c + u + c_inv)
                rev = u[::-1]
                for pal in (str.__new__(Word, u + rev), str.__new__(Word, rev + u)):
                    try:
                        image = pi_of_palindrome(rep, pal)
                    except PalcoreError:
                        continue
                    if abs(image.s) > s_escape and image.finite:
                        return WitnessRecord(
                            str(pal), image.s, image.source,
                            c=str(c), d=str(d), n=n,
                        )
    return None

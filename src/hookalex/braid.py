"""Braid words, validation, writhe, and closure components.

A braid on ``m`` strands is a sequence of nonzero letters ``g`` with
``1 <= |g| <= m - 1``; the sign is the crossing sign.  The engine only
evaluates braids whose closure is a knot (a single cycle), so links are
rejected up front.  What the engine reads of a word besides its letters, its
knot check, letter counts and writhe, is computed once per word and kept on
it: the CLI's table run evaluates one parsed word for every hook, twice.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property


# The most characters of an input, and the most digits of an integer from
# it, that an error message quotes.
EXCERPT = 40
INT_EXCERPT = 20


def excerpt(text: str) -> str:
    """``text`` quoted for an error message; a longer one as a prefix and its length.

    >>> excerpt("1 -2 1 -2")
    "'1 -2 1 -2'"
    >>> excerpt("1" * 100)
    "'1111111111111111111111111111111111111111'... (100 characters)"
    """
    if len(text) <= EXCERPT:
        return repr(text)
    return f"{text[:EXCERPT]!r}... ({len(text)} characters)"


def excerpt_int(n: int) -> str:
    """``n`` for an error message; a longer one as its leading digits and its digit count.

    No decimal string of the whole of ``n`` is built, so an integer past
    Python's limit on converting ints to strings is rendered too.

    >>> excerpt_int(-12345)
    '-12345'
    >>> excerpt_int(10 ** 5000)
    '10000000000000000000... (5001 digits)'
    """
    mag = abs(n)
    if mag < 10 ** INT_EXCERPT:
        return str(n)
    digits = int(math.log10(mag)) + 1  # the float log may be off by one either way
    if mag < 10 ** (digits - 1):
        digits -= 1
    elif mag >= 10 ** digits:
        digits += 1
    return f"{'-' if n < 0 else ''}{mag // 10 ** (digits - INT_EXCERPT)}... ({digits} digits)"


class BraidError(ValueError):
    """Base class for braid input problems."""


class MalformedTokenError(BraidError):
    """A braid-word token is not a signed integer."""


class ZeroLetterError(BraidError):
    """Braid letters must be nonzero."""


class GeneratorOutOfRangeError(BraidError):
    """A letter references a generator outside 1..strands-1."""


class NotAKnotError(BraidError):
    """The braid closure has more than one component."""


@dataclass(frozen=True)
class BraidWord:
    """A braid word on ``strands`` strands.

    ``is_knot``, ``counts`` and ``writhe`` are computed on first use and kept
    outside the fields, so equality and hashing see only the strands and
    letters.
    """

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 2:
            raise BraidError(f"a braid needs at least 2 strands, got {excerpt_int(self.strands)}")
        for g in self.letters:
            if g == 0:
                raise ZeroLetterError("braid letter 0 is not a generator")
            if abs(g) >= self.strands:
                raise GeneratorOutOfRangeError(
                    f"generator {excerpt_int(g)} out of range for "
                    f"{excerpt_int(self.strands)} strands")

    @cached_property
    def is_knot(self) -> bool:
        """True iff the closure is a single component, i.e. the strand permutation is one m-cycle.

        Each letter is a transposition, and an m-cycle is a product of at least
        ``m - 1`` of them, so a braid of fewer letters closes to a link before
        any slot per strand is allocated.
        """
        if len(self.letters) < self.strands - 1:
            return False
        perm = list(range(self.strands))
        for g in self.letters:
            i = abs(g) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        seen = 1
        j = perm[0]
        while j != 0:
            j = perm[j]
            seen += 1
        return seen == self.strands

    @cached_property
    def counts(self) -> Counter[int]:
        """Each distinct letter's number of occurrences; callers must not mutate it."""
        return Counter(self.letters)

    @cached_property
    def writhe(self) -> int:
        """The sum of the crossing signs.

        >>> parse_braid("1 -2 1 -2 -2", 3).writhe
        -1
        """
        return sum(n if g > 0 else -n for g, n in self.counts.items())

    def __str__(self) -> str:
        return render_braid(self)


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse a whitespace-separated signed-integer braid word.

    >>> parse_braid("1 -2 1 -2", 3).letters
    (1, -2, 1, -2)
    """
    letters = []
    for token in text.split():
        try:
            letters.append(int(token))
        except ValueError:
            raise MalformedTokenError(
                f"braid token {excerpt(token)} is not an integer") from None
    return BraidWord(strands, tuple(letters))


def render_braid(b: BraidWord) -> str:
    return " ".join(str(g) for g in b.letters)


def closure_is_knot(b: BraidWord) -> bool:
    """True iff the closure is a knot: :attr:`BraidWord.is_knot`, computed once per word."""
    return b.is_knot


def check_knot(b: BraidWord) -> None:
    """Raise :class:`NotAKnotError` unless the closure of ``b`` is a knot.

    The message quotes the word as :func:`excerpt` quotes its text, from the
    letters in its first EXCERPT characters.  Each letter is rendered through
    :func:`excerpt_int` and the word is never rendered whole, so a word with a
    letter past Python's limit on converting ints to strings is quoted too.
    The check is computed once per word; a link raises on every call.
    """
    if b.is_knot:
        return
    head, size = [], -1
    for g in b.letters:
        text = excerpt_int(g)
        if size < EXCERPT:
            head.append(text)
        size += 1 + len(text)
    word = " ".join(head)
    quoted = repr(word) if size <= EXCERPT else f"{word[:EXCERPT]!r}... ({size} characters)"
    raise NotAKnotError(f"closure of {quoted} on {excerpt_int(b.strands)} strands is not a knot")

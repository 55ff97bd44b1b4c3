"""Name keys, person-name filtering, and character encoding.

Two key functions exist because the neural model and the probability
tables want different things; each returns ``None`` where nothing survives:

* :func:`neural_key` -- lower-case, keep hyphens, spaces, and apostrophes
  (they appear legitimately in names), drop digits and other punctuation.
* :func:`table_key` -- the convention used when building name frequency
  tables: additionally strip generational suffixes ("JR", "III", ...) and
  delete blanks, hyphens, and apostrophes, leaving pure ``[a-z]`` keys.
"""

from __future__ import annotations

import re

import numpy as np

from .csvio import not_utf8
from .errors import EmptyAfterNormalizationError, UnknownCharacterError

#: Generational suffix tokens stripped from the end of table keys.
DEFAULT_SUFFIXES = ("jr", "sr", "ii", "iii", "iv")

#: Fixed encoding window: shorter names are right padded, longer truncated.
WINDOW = 30

#: Vocabulary size: pad plus a-z plus hyphen, apostrophe, space.
VOCAB_SIZE = 30

PAD_CODE = 0

CHAR_TO_CODE = {ch: code for code, ch in enumerate("abcdefghijklmnopqrstuvwxyz-' ", 1)}

_DISALLOWED = re.compile(r"[^a-z' \-]+")
_SPACE_RUNS = re.compile(r" {2,}")

#: Small built-in list of obvious business tokens; real runs supply a much
#: larger list via file.
DEFAULT_FILTER_WORDS = frozenset(
    {
        "llc", "inc", "incorporated", "corp", "corporation", "co", "company",
        "ltd", "limited", "llp", "lp", "pllc", "plc", "pc", "pa", "dba",
        "enterprise", "enterprises", "service", "services", "solutions",
        "group", "holdings", "partners", "associates", "ventures",
        "industries", "international", "global", "management", "consulting",
        "consultants", "marketing", "logistics", "trucking", "transport",
        "transportation", "construction", "contracting", "builders",
        "installation", "repair", "plumbing", "electric", "electrical",
        "landscaping", "cleaning", "realty", "properties", "property",
        "restaurant", "cafe", "catering", "bakery", "salon", "studio",
        "boutique", "store", "shop", "farm", "farms", "auto", "automotive",
        "motors", "fitness", "academy", "daycare", "ministries", "church",
        "foundation", "trust", "estate", "agency", "firm", "clinic",
    }
)


def normalize(name: str) -> str:
    """The neural-key normalization of a raw name.

    Raises:
        EmptyAfterNormalizationError: nothing survives the character rules.
    """
    out = _neural_clean(name)
    if not out:
        raise EmptyAfterNormalizationError(f"nothing left of {name!r} after normalization")
    return out


def normalize_table(name: str, suffixes: tuple[str, ...] = DEFAULT_SUFFIXES) -> str:
    """The table-key normalization, with a caller-supplied suffix list."""
    out = _strip_suffixes(_neural_clean(name), suffixes)
    out = out.replace(" ", "").replace("-", "").replace("'", "")
    if not out:
        raise EmptyAfterNormalizationError(f"nothing left of {name!r} after normalization")
    return out


def neural_key(raw: str) -> str | None:
    """:func:`normalize`, or None when nothing survives it."""
    try:
        return normalize(raw)
    except EmptyAfterNormalizationError:
        return None


def table_key(raw: str, suffixes: tuple[str, ...] = DEFAULT_SUFFIXES) -> str | None:
    """:func:`normalize_table`, or None when nothing survives it."""
    try:
        return normalize_table(raw, suffixes)
    except EmptyAfterNormalizationError:
        return None


def usable_keys(keys, min_length: int = 2) -> np.ndarray:
    """Which keys are not ``None`` and keep ``min_length`` characters (tables: 2)."""
    return np.array([k is not None and len(k) >= min_length for k in keys], dtype=bool)


def column_keys(values, key=None) -> tuple[list, np.ndarray]:
    """Key a column once per distinct value: ``(keys, codes)``.

    ``keys`` holds the distinct keys in order of first appearance and
    ``codes`` each value's index into it.  ``key`` is a function of one
    value (such as :func:`table_key`); without it each value is its own
    key.  Values may be any hashable; only the distinct ones are kept.
    """
    memo: dict = {}
    codes = np.fromiter((memo.setdefault(v, len(memo)) for v in values), dtype=np.intp)
    if key is None:
        return list(memo), codes
    index: dict = {}
    by_value = np.array([index.setdefault(key(v), len(index)) for v in memo], dtype=np.intp)
    return list(index), by_value[codes]


def _neural_clean(name: str) -> str:
    out = _DISALLOWED.sub("", name.lower())
    out = _SPACE_RUNS.sub(" ", out).strip()
    return out


def _strip_suffixes(name: str, suffixes) -> str:
    # Keep at least one token: stripping a lone "jr" to nothing would make
    # normalization non-idempotent ("j r" -> "jr" -> "").
    tokens = name.split()
    while len(tokens) > 1 and tokens[-1] in suffixes:
        tokens.pop()
    return " ".join(tokens)


def is_person_name(full: str, filter_words=DEFAULT_FILTER_WORDS) -> bool:
    """False iff any whitespace-delimited token matches a filter word.

    Filter words must be lower-case; the input is lower-cased before
    token comparison.
    """
    words = filter_words if isinstance(filter_words, (set, frozenset)) else set(filter_words)
    return not any(tok in words for tok in full.lower().split())


def load_filter_words(path) -> frozenset[str]:
    """Read a filter-word file: one lower-case token per line, ``#`` comments.

    Raises:
        SchemaError: the file is not UTF-8 text.
    """
    words = set()
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for line in fh:
                token = line.split("#", 1)[0].strip()
                if token:
                    words.add(token.lower())
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    return frozenset(words)


def encode_name(first: str, last: str) -> np.ndarray:
    """Encode ``first + ' ' + last`` as a fixed-length uint8 vector of codes.

    Codes: a=1 ... z=26, hyphen=27, apostrophe=28, space=29; 0 is padding.
    The result always has length :data:`WINDOW`.

    Raises:
        UnknownCharacterError: a character outside the vocabulary made it
            through normalization (which indicates a normalization bug).
    """
    return _encode_windows([f"{first} {last}"])[0]


#: ``bytes.translate`` table from an ASCII character to its code; every
#: other byte maps to ``VOCAB_SIZE``, outside the vocabulary.
_CODE_BYTES = bytes(CHAR_TO_CODE.get(chr(b), VOCAB_SIZE) for b in range(256))


def _encode_windows(texts: list[str]) -> np.ndarray:
    """``(len(texts), WINDOW)`` uint8 codes, each text truncated or right
    padded to the window, one byte per character."""
    pad = bytes([PAD_CODE])
    # "replace" turns each non-ASCII character into one "?", outside the vocabulary
    data = bytearray().join(
        text[:WINDOW].encode("ascii", "replace").translate(_CODE_BYTES).ljust(WINDOW, pad)
        for text in texts
    )
    codes = np.frombuffer(data, dtype=np.uint8).reshape(len(texts), WINDOW)
    if codes.size and codes.max() >= VOCAB_SIZE:
        row, col = np.argwhere(codes >= VOCAB_SIZE)[0]
        text = texts[row]
        raise UnknownCharacterError(f"character {text[col]!r} in {text!r} is outside the vocabulary")
    return codes


def encode_columns(firsts, lasts, min_length: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Encode columns of raw first and last names for the neural model.

    Each distinct raw name is keyed once (:func:`column_keys` with
    :func:`neural_key`), and each usable row is encoded.
    Returns ``(codes, usable)``: ``usable`` marks the rows whose first and
    last name both keep at least ``min_length`` characters, and ``codes``
    holds the encodings of those rows, in order, as a ``(rows, WINDOW)``
    uint8 array: one byte per character, which :func:`lstm.forward`
    widens a block at a time.
    """
    firsts, first_codes = column_keys(firsts, neural_key)
    lasts, last_codes = column_keys(lasts, neural_key)
    usable = usable_keys(firsts, min_length)[first_codes]
    usable &= usable_keys(lasts, min_length)[last_codes]
    rows = zip(first_codes[usable].tolist(), last_codes[usable].tolist())
    return _encode_windows([f"{firsts[f]} {lasts[l]}" for f, l in rows]), usable

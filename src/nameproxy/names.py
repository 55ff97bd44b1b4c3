"""Name normalization, person-name filtering, and character encoding.

Two normalization profiles exist because the neural model and the
probability tables want different things:

* ``neural``  -- lower-case, keep hyphens, spaces, and apostrophes (they
  appear legitimately in names), drop digits and all other punctuation.
* ``table``   -- the convention used when building name frequency tables:
  additionally strip generational suffixes ("JR", "III", ...) and delete
  blanks, hyphens, and apostrophes, leaving pure ``[a-z]`` keys.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import EmptyAfterNormalizationError, UnknownCharacterError

NEURAL = "neural"
TABLE = "table"

#: Generational suffix tokens stripped from the end of table-profile names.
DEFAULT_SUFFIXES = ("jr", "sr", "ii", "iii", "iv")

#: Fixed encoding window: shorter names are right padded, longer truncated.
WINDOW = 30

#: Vocabulary size: pad plus a-z plus hyphen, apostrophe, space.
VOCAB_SIZE = 30

PAD_CODE = 0
HYPHEN_CODE = 27
APOSTROPHE_CODE = 28
SPACE_CODE = 29

CHAR_TO_CODE = {chr(ord("a") + i): i + 1 for i in range(26)}
CHAR_TO_CODE["-"] = HYPHEN_CODE
CHAR_TO_CODE["'"] = APOSTROPHE_CODE
CHAR_TO_CODE[" "] = SPACE_CODE

CODE_TO_CHAR = {code: ch for ch, code in CHAR_TO_CODE.items()}

_NEURAL_DISALLOWED = re.compile(r"[^a-z' \-]+")
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


def normalize(name: str, profile: str = NEURAL) -> str:
    """Normalize a raw name under the given profile.

    Raises:
        EmptyAfterNormalizationError: nothing survives the character rules.
        ValueError: unknown profile id.
    """
    if profile == TABLE:
        return normalize_table(name)
    if profile != NEURAL:
        raise ValueError(f"unknown normalization profile {profile!r}")
    out = _neural_clean(name)
    if not out:
        raise EmptyAfterNormalizationError(f"nothing left of {name!r} after normalization")
    return out


def normalize_table(name: str, suffixes: tuple[str, ...] = DEFAULT_SUFFIXES) -> str:
    """Table-profile normalization with a caller-supplied suffix list."""
    out = _strip_suffixes(_neural_clean(name), suffixes)
    out = out.replace(" ", "").replace("-", "").replace("'", "")
    if not out:
        raise EmptyAfterNormalizationError(f"nothing left of {name!r} after normalization")
    return out


def table_key(raw: str, suffixes: tuple[str, ...] = DEFAULT_SUFFIXES) -> str | None:
    """:func:`normalize_table`, or None when nothing survives it."""
    return _key_or_none(raw, TABLE, suffixes)


def column_keys(
    raws, profile: str | None = TABLE, suffixes: tuple[str, ...] = DEFAULT_SUFFIXES
) -> tuple[list, np.ndarray]:
    """Normalize a column of raw strings once per distinct string.

    Returns ``(keys, codes)``: the distinct keys in order of first
    appearance, and each raw string's index into ``keys``.  Raw strings
    that normalize to one key share its index; ``None`` is the key of a
    string with nothing left after normalization.  ``profile`` is
    :data:`TABLE`, :data:`NEURAL`, or ``None`` to use the raw strings
    themselves as keys.
    """
    raws = list(raws)
    memo = dict.fromkeys(raws)
    index: dict = {}
    for raw in memo:
        key = raw if profile is None else _key_or_none(raw, profile, suffixes)
        memo[raw] = index.setdefault(key, len(index))
    codes = np.fromiter(map(memo.__getitem__, raws), dtype=np.intp, count=len(raws))
    return list(index), codes


def _key_or_none(raw: str, profile: str, suffixes) -> str | None:
    try:
        if profile == TABLE:
            return normalize_table(raw, suffixes)
        return normalize(raw, profile)
    except EmptyAfterNormalizationError:
        return None


def _neural_clean(name: str) -> str:
    out = _NEURAL_DISALLOWED.sub("", name.lower())
    out = _SPACE_RUNS.sub(" ", out).strip()
    return out


def _strip_suffixes(name: str, suffixes) -> str:
    # Keep at least one token: stripping a lone "jr" to nothing would make
    # normalization non-idempotent ("j r" -> "jr" -> "").
    tokens = name.split()
    while len(tokens) > 1 and tokens[-1] in suffixes:
        tokens.pop()
    return " ".join(tokens)


def is_valid_name(first: str, last: str) -> bool:
    """False when either part is one character or shorter.

    Expects inputs already normalized with the neural profile.
    """
    return len(first) > 1 and len(last) > 1


def is_person_name(full: str, filter_words=DEFAULT_FILTER_WORDS) -> bool:
    """False iff any whitespace-delimited token matches a filter word.

    Filter words must be lower-case; the input is lower-cased before
    token comparison.
    """
    words = filter_words if isinstance(filter_words, (set, frozenset)) else set(filter_words)
    return not any(tok in words for tok in full.lower().split())


def load_filter_words(path) -> frozenset[str]:
    """Read a filter-word file: one lower-case token per line, ``#`` comments."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            token = line.split("#", 1)[0].strip()
            if token:
                words.add(token.lower())
    return frozenset(words)


def encode_name(first: str, last: str) -> np.ndarray:
    """Encode ``first + ' ' + last`` as a fixed-length vector of codes.

    Codes: a=1 ... z=26, hyphen=27, apostrophe=28, space=29; 0 is padding.
    The result always has length :data:`WINDOW`.

    Raises:
        UnknownCharacterError: a character outside the vocabulary made it
            through normalization (which indicates a normalization bug).
    """
    full = f"{first} {last}"
    codes = np.zeros(WINDOW, dtype=np.int64)
    for i, ch in enumerate(full[:WINDOW]):
        code = CHAR_TO_CODE.get(ch)
        if code is None:
            raise UnknownCharacterError(f"character {ch!r} in {full!r} is outside the vocabulary")
        codes[i] = code
    return codes


def encode_columns(firsts, lasts, min_length: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Encode columns of raw first and last names for the neural model.

    Each distinct raw name is normalized once (:func:`column_keys` with the
    neural profile) and each distinct pair of keys encoded once.  Returns
    ``(codes, usable)``: ``usable`` marks the rows whose first and last
    name both keep at least ``min_length`` characters, and ``codes`` holds
    the encodings of those rows, in order.
    """
    firsts, first_codes = column_keys(firsts, NEURAL)
    lasts, last_codes = column_keys(lasts, NEURAL)
    usable = (
        np.array([k is not None and len(k) >= min_length for k in firsts], dtype=bool)[first_codes]
        & np.array([k is not None and len(k) >= min_length for k in lasts], dtype=bool)[last_codes]
    )
    pairs, pair_codes = np.unique(
        np.stack([first_codes[usable], last_codes[usable]], axis=1),
        axis=0,
        return_inverse=True,
    )
    if not pairs.size:
        return np.zeros((0, WINDOW), dtype=np.int64), usable
    encoded = np.stack([encode_name(firsts[f], lasts[l]) for f, l in pairs.tolist()])
    return encoded[pair_codes.ravel()], usable


def decode_codes(codes) -> str:
    """Inverse of :func:`encode_name` on the nonzero prefix (test/debug aid)."""
    out = []
    for code in np.asarray(codes).ravel():
        if code == PAD_CODE:
            break
        out.append(CODE_TO_CHAR[int(code)])
    return "".join(out)

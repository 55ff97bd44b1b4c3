"""Name keys, person-name filtering, and character encoding."""

import re
import string
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nameproxy import names
from nameproxy.errors import NameproxyError, SchemaError

name_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=40
)


class TestNormalize:
    def test_neural_keeps_hyphen_space_apostrophe(self):
        assert names.normalize("O'Brien-Smith3.") == "o'brien-smith"

    def test_table_strips_suffix_and_blanks(self):
        assert names.normalize_table("SMITH JR") == "smith"

    def test_table_deletes_hyphens(self):
        assert names.normalize_table("Al-Amin") == "alamin"

    def test_table_deletes_apostrophes(self):
        assert names.normalize_table("O'Neil") == "oneil"

    def test_repeated_suffixes_stripped(self):
        assert names.normalize_table("Davis Jr III") == "davis"

    def test_suffix_alone_is_kept(self):
        # Only trailing tokens are suffixes; a lone token is the whole name.
        assert names.normalize_table("JR") == "jr"

    def test_empty_after_normalization(self):
        assert names.normalize("123...!") is None

    def test_custom_suffix_list(self):
        assert names.normalize_table("Nguyen Esq", suffixes=("esq",)) == "nguyen"

    @settings(max_examples=400, deadline=None)
    @given(name_text)
    def test_neural_idempotent_and_clean(self, raw):
        once = names.normalize(raw)
        if once is None:
            return
        assert names.normalize(once) == once
        assert set(once) <= set("abcdefghijklmnopqrstuvwxyz' -")

    @settings(max_examples=400, deadline=None)
    @given(name_text)
    def test_table_idempotent_and_alpha(self, raw):
        once = names.normalize_table(raw)
        if once is None:
            return
        assert names.normalize_table(once) == once
        assert set(once) <= set("abcdefghijklmnopqrstuvwxyz")


def old_key(raw, table=False):
    """The key rule before non-ASCII names were folded, copied here as the
    oracle for ASCII input: lower-case, drop every character outside
    ``[a-z' -]``, collapse spaces; a table key also strips trailing
    suffixes and deletes blanks, hyphens and apostrophes."""
    out = re.sub(r"[^a-z' \-]+", "", raw.lower())
    out = re.sub(r" {2,}", " ", out).strip()
    if table:
        tokens = out.split()
        while len(tokens) > 1 and tokens[-1] in names.DEFAULT_SUFFIXES:
            tokens.pop()
        out = " ".join(tokens).replace(" ", "").replace("-", "").replace("'", "")
    return out or None


#: profile: (key function, the characters its keys may hold, is a table key)
PROFILES = {
    "neural": (names.normalize, set(string.ascii_lowercase + "' -"), False),
    "table": (names.normalize_table, set(string.ascii_lowercase), True),
}

# Latin letters with marks made both ways, the letters and punctuation the
# fold maps, other scripts, and any other text
folded_letters = "ØøŁłĐđıßẞÆæŒœÞþ\u2019\u02bc\u2010\u2011\u2013\u2014\u00a0`"
unicode_name = st.one_of(
    st.text(
        alphabet=st.one_of(
            st.characters(min_codepoint=32, max_codepoint=0x24F),
            st.characters(min_codepoint=0x300, max_codepoint=0x36F),  # combining marks
            st.sampled_from(folded_letters),
            st.sampled_from("李Иванвмحمد\u1ec5\ufb01\uff27\u2162"),
        ),
        max_size=20,
    ),
    st.text(max_size=20),
)


@pytest.mark.parametrize("profile", PROFILES)
class TestUnicodeKeys:
    @settings(max_examples=300, deadline=None)
    @given(raw=unicode_name)
    def test_every_normalization_form_keys_alike(self, profile, raw):
        key, _, _ = PROFILES[profile]
        nfc = key(unicodedata.normalize("NFC", raw))
        assert key(unicodedata.normalize("NFD", raw)) == nfc
        assert key(unicodedata.normalize("NFKC", raw)) == nfc

    @settings(max_examples=300, deadline=None)
    @given(raw=unicode_name)
    def test_keys_keep_the_alphabet_and_are_idempotent(self, profile, raw):
        key, alphabet, _ = PROFILES[profile]
        once = key(raw)
        if once is None:
            return
        assert set(once) <= alphabet
        assert key(once) == once

    @settings(max_examples=300, deadline=None)
    @given(raw=st.text(alphabet=string.printable, max_size=30))
    def test_printable_ascii_keys_as_before(self, profile, raw):
        key, _, table = PROFILES[profile]
        assert key(raw) == old_key(raw, table)

    @pytest.mark.parametrize("raw,neural,table", [
        ("García", "garcia", "garcia"),
        ("Hernández", "hernandez", "hernandez"),
        ("Nguyễn", "nguyen", "nguyen"),
        ("O\u2019Brien", "o'brien", "obrien"),
        ("李小龍", None, None),
        ("Иванов", None, None),
        ("محمد", None, None),
    ])
    def test_probes(self, profile, raw, neural, table):
        key, _, is_table = PROFILES[profile]
        want = table if is_table else neural
        spellings = [unicodedata.normalize(form, raw) for form in ("NFC", "NFD")]
        assert [key(spelling) for spelling in spellings] == [want, want]
        keys, codes = names.column_keys(spellings, key)
        assert keys == [want] and codes.tolist() == [0, 0]


def ref_encode_columns(firsts, lasts, min_length):
    """Per-row encoding: normalize both names, check their lengths, encode
    character by character."""
    rows, usable = [], []
    for first, last in zip(firsts, lasts):
        first, last = names.normalize(first), names.normalize(last)
        if first is None or last is None:
            usable.append(False)
            continue
        usable.append(len(first) >= min_length and len(last) >= min_length)
        if usable[-1]:
            codes = [names.CHAR_TO_CODE[ch] for ch in f"{first} {last}"[: names.WINDOW]]
            rows.append(codes + [names.PAD_CODE] * (names.WINDOW - len(codes)))
    return np.array(rows, dtype=np.int64).reshape(-1, names.WINDOW), usable


short_name = st.one_of(
    st.sampled_from(["", "a", "Al", "O'Neil", "!!", "x-y", "Smith Jr", " b "]),
    st.text(alphabet="abAB -'.1", max_size=6),
)
# a few distinct pairs drawn with repeats
name_pairs = st.lists(st.tuples(short_name, short_name), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=30)
)


class TestEncodeColumns:
    @settings(max_examples=300, deadline=None)
    @given(name_pairs, st.sampled_from([1, 2]))
    def test_matches_per_row_reference(self, pairs, min_length):
        firsts, lasts = [f for f, _ in pairs], [l for _, l in pairs]
        codes, usable = names.encode_columns(firsts, lasts, min_length)
        ref_codes, ref_usable = ref_encode_columns(firsts, lasts, min_length)
        assert usable.dtype == bool and usable.tolist() == ref_usable
        assert codes.dtype == np.uint8
        np.testing.assert_array_equal(codes, ref_codes)


class TestIsPersonName:
    def test_filter_word_hit(self):
        assert not names.is_person_name("acme installation llc", {"llc", "installation"})

    def test_clean_name_passes_default_list(self):
        assert names.is_person_name("maria cruz santos")

    def test_single_token_match(self):
        assert not names.is_person_name("smith llc", {"llc"})

    def test_case_insensitive(self):
        assert not names.is_person_name("SMITH LLC")

    def test_load_filter_words(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment line\nllc\ninstallation  # inline\n\nHOLDINGS\n")
        words = names.load_filter_words(path)
        assert words == {"llc", "installation", "holdings"}

    def test_filter_words_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"llc\n# comment\ngar\xeda\n")  # Latin-1
        with pytest.raises(SchemaError, match=r"words.txt: line 3: not UTF-8 text \(byte 0xed"):
            names.load_filter_words(path)


class TestEncodeName:
    def test_worked_example_prefix(self):
        codes = names.encode_name("smith", "lee")
        assert list(codes[:5]) == [19, 13, 9, 20, 8]

    def test_alphabet_space_and_padding(self):
        codes = names.encode_name("ab", "cd")
        assert list(codes) == [1, 2, 29, 3, 4] + [0] * 25

    def test_truncation_at_window(self):
        first = "a" * 20
        last = "b" * 20
        codes = names.encode_name(first, last)
        assert codes.shape == (30,)
        assert list(codes) == [1] * 20 + [29] + [2] * 9

    def test_unknown_character(self):
        message = "character '1' in 'sm1th lee' is outside the vocabulary"
        with pytest.raises(NameproxyError, match=message):
            names.encode_name("sm1th", "lee")

    def test_non_ascii_character_is_unknown(self):
        with pytest.raises(NameproxyError, match="character 'é' in 'josé lee'"):
            names.encode_name("josé", "lee")

    def test_hyphen_apostrophe_codes(self):
        codes = names.encode_name("o'b", "x-y")
        assert list(codes[:7]) == [15, 28, 2, 29, 24, 27, 25]

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz'-", min_size=2, max_size=12),
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz'-", min_size=2, max_size=12),
    )
    def test_roundtrip_short_names(self, first, last):
        codes = names.encode_name(first, last)
        assert codes.shape == (30,)
        assert codes.min() >= 0 and codes.max() <= 29
        nonzero = codes[codes != 0]
        # pad only on the right
        assert list(codes[: nonzero.size]) == list(nonzero)
        full = f"{first} {last}"
        if len(full) <= 30:
            char = {code: ch for ch, code in names.CHAR_TO_CODE.items()}
            assert "".join(char[int(code)] for code in nonzero) == full


def test_vocab_constants_consistent():
    assert names.VOCAB_SIZE == 30
    assert len(names.CHAR_TO_CODE) == 29  # 26 letters + 3 separators; 0 is pad
    assert sorted(names.CHAR_TO_CODE.values()) == list(range(1, 30))

"""Tests for the five normalization transformations."""

import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ids import PSigeneDetector
from repro.normalize import (
    DEFAULT_TRANSFORMS,
    HexDecode,
    Lowercase,
    Normalizer,
    UnicodeFold,
    UrlDecode,
    WhitespaceCanonicalize,
    normalize,
)
from repro.normalize.transforms import strip_inline_comments

#: The regex ``strip_inline_comments`` replaced, kept as its oracle.
INLINE_COMMENT = re.compile(r"/\*!?.*?\*/", re.S)


class TestLowercase:
    def test_basic(self):
        assert Lowercase()("UNION SELECT") == "union select"

    def test_idempotent(self):
        transform = Lowercase()
        assert transform(transform("MiXeD")) == transform("MiXeD")


class TestUrlDecode:
    def test_single_level(self):
        assert UrlDecode()("%27") == "'"

    def test_plus_to_space(self):
        assert UrlDecode()("union+select") == "union select"

    def test_double_encoding_unwrapped(self):
        assert UrlDecode()("%2527") == "'"

    def test_triple_encoding_unwrapped(self):
        assert UrlDecode()("%252527") == "'"

    def test_percent_u_escape(self):
        assert UrlDecode()("%u0027") == "'"

    def test_bounded_rounds(self):
        # Deeply nested encodings stop at max_rounds without hanging.
        deep = "%25" * 10 + "27"
        UrlDecode()(deep)

    def test_no_change_fast_path(self):
        assert UrlDecode()("plain") == "plain"


class TestUnicodeFold:
    def test_fullwidth_letters(self):
        assert UnicodeFold()("ｕｎｉｏｎ") == "union"

    def test_smart_quotes(self):
        assert UnicodeFold()("‘x’") == "'x'"

    def test_unmapped_dropped(self):
        assert UnicodeFold()("a☃b") == "ab"

    def test_ascii_unchanged(self):
        text = "select * from t where a='b'"
        assert UnicodeFold()(text) == text


class TestHexDecode:
    def test_printable_literal_decoded(self):
        assert HexDecode()("0x61646d696e") == "admin"

    def test_in_context(self):
        assert (
            HexDecode()("select 0x726f6f74 from t") == "select root from t"
        )

    def test_odd_length_untouched(self):
        assert HexDecode()("0x616") == "0x616"

    def test_nonprintable_untouched(self):
        assert HexDecode()("0x0001") == "0x0001"

    def test_plain_number_untouched(self):
        assert HexDecode()("id=12345") == "id=12345"


class TestWhitespaceCanonicalize:
    def test_inline_comment_to_space(self):
        assert (
            WhitespaceCanonicalize()("union/**/select") == "union select"
        )

    def test_mysql_bang_comment(self):
        assert WhitespaceCanonicalize()("/*!50000select*/") == " "

    def test_tabs_and_newlines(self):
        assert WhitespaceCanonicalize()("a\t\nb") == "a b"

    def test_run_collapse(self):
        assert WhitespaceCanonicalize()("a     b") == "a b"

    def test_null_byte(self):
        assert WhitespaceCanonicalize()("a\x00b") == "a b"


class TestStripInlineComments:
    @given(st.text(alphabet="/*!a \n", max_size=40))
    def test_equals_the_regex(self, text):
        assert strip_inline_comments(text) == INLINE_COMMENT.sub(" ", text)

    @pytest.mark.parametrize("text,expected", [
        ("a/**/b/*!x*/c", "a b c"),
        ("/**/*/", " */"),
        ("a/*b/*c", "a/*b/*c"),
        ("a/**/b/*c", "a b/*c"),
    ])
    def test_cases(self, text, expected):
        assert strip_inline_comments(text) == expected
        assert INLINE_COMMENT.sub(" ", text) == expected

    def test_text_without_an_opener_is_returned_as_is(self):
        text = "q=1 union select 2"
        assert strip_inline_comments(text) is text

    def test_unclosed_openers_cost_linear_time(self, small_signatures):
        """``q=`` + ``/*a`` x 21,000 is 63,002 B, under the line
        protocol's 64 KiB cap; the regex spent 10 s of detector CPU on
        it, rescanning to the end of the line from every opener."""
        detector = PSigeneDetector(small_signatures)
        started = time.process_time()
        detection = detector.inspect("q=" + "/*a" * 21_000)
        assert time.process_time() - started < 2.0
        assert not detection.alert


class TestNormalizer:
    def test_default_has_five_transforms(self):
        assert len(DEFAULT_TRANSFORMS) == 5

    def test_names(self):
        names = Normalizer().names()
        assert names == [
            "url-decode", "unicode-fold", "lowercase", "hex-decode",
            "whitespace",
        ]

    def test_composition_order_matters(self):
        # %2B55 decodes to +55; a pipeline without url-decode first
        # would miss it.
        assert normalize("%2B55") == "+55"

    def test_classic_evasion_flattened(self):
        evaded = "1%2527/**/UnIoN/**/SeLeCt/**/1,2"
        assert normalize(evaded) == "1' union select 1,2"

    def test_fullwidth_keyword_evasion(self):
        assert "union select" in normalize("ｕｎｉｏｎ+ｓｅｌｅｃｔ")

    def test_custom_transform_list(self):
        only_lower = Normalizer([Lowercase()])
        assert only_lower("A%27") == "a%27"

    def test_empty_input(self):
        assert normalize("") == ""

    def test_plain_benign_text_survives(self):
        assert normalize("q=course+selection") == "q=course selection"


@pytest.mark.parametrize("evaded,needle", [
    ("UNION%0ASELECT", "union select"),
    ("union%09select", "union select"),
    ("un%69on sel%65ct", "union select"),
    ("%75nion %73elect", "union select"),
    ("UNION/*x*/SELECT", "union select"),
    ("0x756e696f6e", "union"),
])
def test_known_evasions_normalize_to_canonical(evaded, needle):
    assert needle in normalize(evaded)

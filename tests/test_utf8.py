"""The block decoder and line reader against a decoder of one line at a time."""

import codecs
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from archonto import utf8

from conftest import lines_one_at_a_time


class _Fault(Exception):
    """Raised as ``_Fault(message, line)``, as the readers' errors are."""


def _read(lines) -> tuple[list, tuple | None]:
    """The lines read before the first fault, and that fault's arguments."""
    read = []
    try:
        for item in lines:
            read.append(item)
    except _Fault as exc:
        return read, exc.args
    return read, None


# Multi-byte characters of two, three and four bytes, CR, tab, the separators
# str.splitlines would break at, and a BOM character inside the text.
_CHARS = st.sampled_from(
    ["a", "b", " ", "\t", "\r", "\n", "\n", "é", "€", "\U0001F600", "\u2028", "\u0085", "\ufeff"]
)
_TEXT = st.lists(_CHARS, max_size=40).map("".join)
# A byte no UTF-8 text holds there: a stray continuation, a truncated
# sequence, an encoded surrogate and an invalid lead byte.
_BAD = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"])


@st.composite
def _inputs(draw) -> bytes | str:
    text = draw(_TEXT)
    if draw(st.booleans()):
        return text
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    for _ in range(draw(st.integers(0, 2))):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(_BAD) + data[cut:]
    return data


@settings(max_examples=400, deadline=None)
@given(data=_inputs(), size=st.integers(1, 64))
@example(data="é\r\nab\n", size=1)
@example(data=codecs.BOM_UTF8 + "a\r\n€\n\U0001F600".encode(), size=2)
@example(data=b"ab\ncd\nef\n\xff\n", size=3)
@example(data=b"ab\ncd\xc3\n", size=1)
@example(data=b"", size=1)
@example(data="", size=1)
@example(data="a\n", size=1)
def test_blocks_and_lines_match_one_line_at_a_time(data, size):
    expected = _read(lines_one_at_a_time(data, _Fault))
    with mock.patch.object(utf8, "_BLOCK", size):
        assert _read(utf8.lines(data, _Fault)) == expected
        blocks, fault = _read(utf8.blocks(data, _Fault))
    assert fault == expected[1]
    number = 1
    for first, text in blocks:
        assert first == number
        number += text.count("\n") + 1
    # Split at LF, the blocks give the lines, numbered from each block's first.
    split = [(first + i, line) for first, text in blocks for i, line in enumerate(text.split("\n"))]
    assert split == expected[0]


def test_a_large_input_is_read_in_several_blocks():
    line = "é" * 50 + "\U0001F600\n"
    data = (line * 3000).encode("utf-8")
    blocks = list(utf8.blocks(data, _Fault))
    assert len(data) > 3 * utf8._BLOCK and len(blocks) > 3
    assert all(len(text.encode("utf-8")) < utf8._BLOCK + len(line.encode()) for _, text in blocks)
    assert "\n".join(text for _, text in blocks) + "\n" == line * 3000

"""The one decoder of the line-based input files: UTF-8, split at LF only."""

from __future__ import annotations

import codecs
from collections.abc import Callable, Iterator

# Bytes (or characters) a block aims at; it ends at the first LF from there.
_BLOCK = 1 << 16

_Error = Callable[[str, int], Exception]


class LineError(ValueError):
    """A fault in a line-based input, named by its line when that is known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def blocks(data: bytes | str, error: _Error) -> Iterator[tuple[int, str]]:
    """Yield ``(number of its first line, text)`` for runs of whole lines of
    about ``_BLOCK`` bytes, cut at an LF that the text leaves out, so that
    ``text.split("\\n")`` gives the run's lines.  Only LF ends a line:
    splitlines() would also break on U+2028, U+0085 and other separators that
    may sit inside a value.  A CR is left for the reader.  A leading UTF-8
    byte order mark is not part of line 1.

    A bad byte raises ``error(message, line)`` once the lines before it have
    been yielded, so the first fault in line order wins.  A ``str`` is cut the
    same way and, like ``str.split``, ends with the text after its last LF
    even when that is empty; bytes that end in LF end there.
    """
    if isinstance(data, str):
        start, newline, stop = 0, "\n", len(data) + 1
    else:
        start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
        newline, stop = b"\n", len(data)
    number = 1
    while start < stop:
        cut = data.rfind(newline, start, start + _BLOCK)
        if cut < 0:
            cut = data.find(newline, start + _BLOCK)
            if cut < 0:
                cut = len(data)
        text = data[start:cut]
        if not isinstance(text, str):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield from _up_to_fault(text, exc.start, number, error)
        yield number, text
        number += text.count("\n") + 1
        start = cut + 1


def _up_to_fault(raw: bytes, bad: int, number: int, error: _Error) -> Iterator[tuple[int, str]]:
    """The whole lines of ``raw`` before its bad byte, then the error that
    names the byte and its line."""
    whole = raw.rfind(b"\n", 0, bad) + 1  # where the bad byte's line starts
    if whole:
        yield number, raw[: whole - 1].decode("utf-8")
    raise error(f"invalid UTF-8 byte 0x{raw[bad]:02X}", number + raw.count(b"\n", 0, whole)) from None


def lines(data: bytes | str, error: _Error) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` per line of :func:`blocks`, without its LF."""
    for first, text in blocks(data, error):
        yield from enumerate(text.split("\n"), first)

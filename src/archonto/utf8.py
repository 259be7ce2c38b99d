"""The one line reader of the line-based input files: UTF-8, split at LF only."""

from __future__ import annotations

import codecs
import io
from collections.abc import Callable, Iterator


def lines(data: bytes | str, error: Callable[[str, int], Exception]) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` per line, split at LF only and without it:
    splitlines() would also break on U+2028, U+0085 and other separators that
    may sit inside a value.  A CR is left for the reader.  A bad byte raises
    ``error(message, line)`` as its line is read: the first fault in line order.
    A leading UTF-8 byte order mark is not part of line 1."""
    if isinstance(data, str):
        yield from enumerate(data.split("\n"), start=1)
        return
    stream = io.BytesIO(data)
    if data.startswith(codecs.BOM_UTF8):
        stream.seek(len(codecs.BOM_UTF8))
    for number, raw in enumerate(stream, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"invalid UTF-8 byte 0x{raw[exc.start]:02X}", number) from None
        yield number, text.removesuffix("\n")

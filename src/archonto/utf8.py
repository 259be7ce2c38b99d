"""UTF-8 decoding of input files that names the line of an undecodable byte."""

from __future__ import annotations

from collections.abc import Callable


def decode(data: bytes | str, error: Callable[[str, int], Exception]) -> str:
    """``data`` as text; an undecodable byte raises ``error(message, line)``."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"invalid UTF-8 byte 0x{data[exc.start]:02X}", line) from None

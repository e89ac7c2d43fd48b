"""ASCII PCD serialization for colored clouds.

The dialect is fixed: ``FIELDS x y z rgb``, four-byte float coordinates,
and the color packed into one unsigned integer as ``r<<16 | g<<8 | b``.
The source frame rides along in a leading ``# frame`` comment. Colors
round-trip exactly; coordinates round-trip to float32. Files are UTF-8,
whatever the locale.

Rows are written and parsed in blocks of :data:`_BLOCK` with numpy, not
one at a time. When the block parse cannot take a file's rows (a bad
token, a failed check, comments or blank lines among the rows), the row
loop parses them instead: it accepts every layout the format allows and
raises the diagnostic that names the line.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from .errors import PcdParseError, decode_utf8
from .geometry import PointCloud

_HEADER_ORDER = ["VERSION", "FIELDS", "SIZE", "TYPE", "COUNT", "WIDTH",
                 "HEIGHT", "VIEWPOINT", "POINTS", "DATA"]

_EXPECTED = {
    "VERSION": "0.7",
    "FIELDS": "x y z rgb",
    "SIZE": "4 4 4 4",
    "TYPE": "F F F U",
    "COUNT": "1 1 1 1",
    "HEIGHT": "1",
    "DATA": "ascii",
}

#: Rows formatted or parsed per block: big enough to amortize the numpy
#: calls, small enough that a block's strings stay a few hundred kB.
_BLOCK = 1024


def _fmt32(v: np.float32) -> str:
    # shortest decimal that reparses to the same float32
    return np.format_float_positional(v, unique=True, trim="0")


def _format_rows(xyz32: np.ndarray, packed: list[int]) -> str:
    """The data lines of one block of rows.

    ``astype(str)`` gives the same shortest float32 digits as
    :func:`_fmt32`, but in scientific notation below 1e-4 and from 1e6;
    only those tokens are formatted again. Legacy print modes change
    ``astype(str)``, so they are switched off around it.
    """
    with np.printoptions(legacy=False):
        digits = xyz32.astype(str)
    tokens = digits.astype(object)
    sci = np.char.find(digits, "e") >= 0
    tokens[sci] = [_fmt32(v) for v in xyz32[sci]]
    return "".join([f"{x} {y} {z} {p}\n" for (x, y, z), p in zip(tokens.tolist(), packed)])


def write_pcd(cloud: PointCloud, path: str | Path) -> None:
    """Write a cloud to ``path`` in the ASCII dialect above, as UTF-8."""
    n = len(cloud)
    xyz32 = cloud.xyz.astype(np.float32)
    rgb = cloud.rgb.astype(np.uint32)
    packed = ((rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]).tolist()
    values = {**_EXPECTED, "WIDTH": n, "VIEWPOINT": "0 0 0 1 0 0 0", "POINTS": n}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# frame {cloud.frame}\n"
                 + "".join(f"{key} {values[key]}\n" for key in _HEADER_ORDER))
        for start in range(0, n, _BLOCK):
            fh.write(_format_rows(xyz32[start:start + _BLOCK], packed[start:start + _BLOCK]))


def _parse_blocks(data: list[str], n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Coordinates and packed colors when ``data`` is exactly ``n`` clean
    rows of four tokens; ``None`` for anything else, which
    :func:`_parse_rows` then diagnoses.

    Tokens go through ``float`` and ``int``, the parsers of the row loop
    (``np.float32(str)`` parses with ``float`` too), never through a
    numpy string array, whose ``U`` dtype drops trailing NULs.
    """
    if len(data) != n:
        return None
    xyz = np.empty(3 * n, dtype=np.float64)
    packed = np.empty(n, dtype=np.int64)
    try:
        for start in range(0, n, _BLOCK):
            rows = list(map(str.split, data[start:start + _BLOCK]))
            if not all(len(row) == 4 for row in rows):
                return None
            k = len(rows)
            tokens = list(chain.from_iterable(rows))
            packed[start:start + k] = np.fromiter(map(int, tokens[3::4]), np.int64, k)
            del tokens[3::4]
            xyz[3 * start:3 * (start + k)] = np.fromiter(map(float, tokens), np.float64, 3 * k)
    except (ValueError, OverflowError):
        return None
    with np.errstate(over="ignore"):
        xyz = xyz.astype(np.float32).astype(np.float64).reshape(n, 3)
    if not (np.isfinite(xyz).all() and ((packed >= 0) & (packed <= 0xFFFFFF)).all()):
        return None
    return xyz, packed


def _parse_rows(lines: list[str], data_start: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The row loop: parses any layout the format allows (comments and
    blank lines among the rows) and raises on the first bad line."""
    xyz = np.empty((n, 3), dtype=np.float64)
    packed = np.empty(n, dtype=np.int64)
    count = 0
    for lineno in range(data_start + 1, len(lines) + 1):
        stripped = lines[lineno - 1].strip()
        if not stripped or stripped.startswith("#"):
            continue
        if count >= n:
            raise PcdParseError(f"more than POINTS={n} data rows", lineno)
        tokens = stripped.split()
        if len(tokens) != 4:
            raise PcdParseError(f"expected 4 fields, got {len(tokens)}", lineno)
        try:
            xyz[count] = [float(np.float32(t)) for t in tokens[:3]]
        except ValueError:
            raise PcdParseError(f"bad coordinate in row: {stripped!r}", lineno) from None
        if not np.isfinite(xyz[count]).all():
            raise PcdParseError(f"non-finite coordinate in row: {stripped!r}", lineno)
        try:
            value = int(tokens[3])
        except ValueError:
            raise PcdParseError(f"bad rgb field {tokens[3]!r}", lineno) from None
        if not 0 <= value <= 0xFFFFFF:
            raise PcdParseError(f"rgb value {value} outside 24-bit range", lineno)
        packed[count] = value
        count += 1
    if count != n:
        raise PcdParseError(f"expected {n} data rows, found {count}", len(lines))
    return xyz, packed


def read_pcd(path: str | Path) -> PointCloud:
    """Parse a PCD file written by :func:`write_pcd`.

    Raises
    ------
    PcdParseError
        On bytes that are not UTF-8, or any malformed header or data line;
        the message carries the 1-based line number.
    """
    lines = decode_utf8(Path(path).read_bytes(), PcdParseError).splitlines()
    frame = "unknown"
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}
    data_start = None
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if comment.startswith("frame "):
                frame = comment[len("frame "):].strip()
            continue
        key, _, value = stripped.partition(" ")
        if key not in _HEADER_ORDER:
            raise PcdParseError(f"unexpected header field {key!r}", lineno)
        if key in header:
            raise PcdParseError(f"duplicate header field {key!r}", lineno)
        header[key] = value.strip()
        header_line[key] = lineno
        if key in _EXPECTED and header[key] != _EXPECTED[key]:
            raise PcdParseError(
                f"unsupported {key} {header[key]!r} (expected {_EXPECTED[key]!r})", lineno)
        if key == "DATA":
            data_start = lineno
            break
    if data_start is None:
        raise PcdParseError("missing DATA header", lineno or 1)
    for required in ("POINTS", "WIDTH"):
        if required not in header:
            raise PcdParseError(f"missing {required} header", data_start)
    try:
        n = int(header["POINTS"])
    except ValueError:
        raise PcdParseError(f"bad POINTS value {header['POINTS']!r}", data_start) from None
    if header["WIDTH"] != header["POINTS"]:
        raise PcdParseError("WIDTH does not match POINTS", data_start)
    # bound n before allocating: every row needs a line after DATA
    if n < 0:
        raise PcdParseError(f"negative POINTS value {n}", header_line["POINTS"])
    if n > len(lines) - data_start:
        raise PcdParseError(f"expected {n} data rows, only {len(lines) - data_start} "
                            "lines follow DATA", header_line["POINTS"])

    xyz, packed = (_parse_blocks(lines[data_start:], n)
                   or _parse_rows(lines, data_start, n))
    rgb = ((packed[:, None] >> [16, 8, 0]) & 0xFF).astype(np.uint8)
    return PointCloud(xyz, rgb, frame)

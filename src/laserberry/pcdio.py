"""ASCII PCD serialization for colored clouds.

The dialect is fixed: ``FIELDS x y z rgb``, four-byte float coordinates,
and the color packed into one unsigned integer as ``r<<16 | g<<8 | b``.
The source frame rides along in a leading ``# frame`` comment. Colors
round-trip exactly; coordinates round-trip to float32. Files are UTF-8,
whatever the locale.

Rows are written in blocks with numpy. The writer tries two digit counts per
coordinate, bracketed by its float32 spacing (Schubfach), for its shortest
round-trip digits; :func:`_fmt32` (Dragon4) formats once a block each value
the arrays cannot vouch for. Running sums of the token lengths place every
token in one byte buffer. The reader decodes only the header; numpy's C text
reader takes the rows after ``DATA`` wherever it reads them as the row loop
does, and the row loop reads every other layout the format allows (comments
and blank lines among the rows, other line ends) and names a bad line.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import numpy as np

from .errors import PcdParseError, ValidationError, decode_utf8
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

#: Rows per written block: big enough to amortize the numpy calls, small
#: enough that a block's arrays stay near 100 kB each.
_BLOCK = 4096

#: Lines that start with DATA after a \n: the header is decoded through the
#: first one (a DATA key after another line end or Unicode spaces is earlier).
_DATA = re.compile(rb"^\s*DATA", re.M)


def _fmt32(v: np.float32) -> str:
    # shortest decimal that reparses to the same float32
    return np.format_float_positional(v, unique=True, trim="0")


#: The ASCII digits of 0..9999 as little-endian uint32 words.
_n = np.arange(10000, dtype=np.uint32)
_WORDS = sum((_n // 10 ** (3 - i) % 10 + ord("0")) << 8 * i for i in range(4))
#: 10**j at index j (j = 0..17), exact. Multiplying by _UP and dividing by
#: _DOWN at k + _K scales by 10**k in one rounding (k = -17..13).
_K = 17
_P10 = np.array([10 ** j for j in range(_K + 1)], dtype=np.float64)
_UP, _DOWN = _P10[(np.arange(31) - _K).clip(0)], _P10[(_K - np.arange(31)).clip(0)]
#: By t = 2 * biased float32 exponent + last mantissa bit: whether |v| lies
#: outside [2**-14, 2**53) and falls back; f + _K, where 10**-f <= spacing <
#: 10**(1-f); and half a spacing times 10**f, an ulp more for an even
#: mantissa, whose rounding interval keeps its edges.
_e2 = np.arange(512) // 2 - 127
_OUT, _e2 = (_e2 < -14) | (_e2 > 52), _e2.clip(-14, 52)
_F = _K - ((_e2 - 23) * 78913 >> 18)                  # the shift floors log10 2**(e2-23)
_HALF = np.ldexp(_UP[_F], _e2 - 24)
_HALF[::2] = np.nextafter(_HALF[::2], np.inf)


def _digits(v32: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(whole, frac, nf, fall)``: ``|v32| == float32(whole + frac / 10**nf)``,
    the nearest decimal of the fewest digits, and the lanes left to
    :func:`_fmt32` (0.1 there). An interval one float32 spacing wide holds a
    multiple of 10**-f and at most one of 10**(1-f) (Schubfach): the nearest
    multiple of 10**(1-f) if its exact distance is under half a spacing, else
    that of 10**-f, trailing zeros stripped. Scaled by 10**f in one rounding,
    the value is exact for f >= 0 (a tie goes to the even digit, as in
    Dragon4); for f < 0 a digit that is not the nearest falls back, as do
    subnormals and powers of two (an asymmetric interval) but not zero."""
    bits = v32.view(np.uint32)
    t = ((bits >> 22 & 0x1FE) | (bits & 1)).astype(np.intp)
    fall = _OUT[t] | ((bits & 0x7FFFFF) == 0)
    a = np.abs(v32, dtype=np.float64)
    f = _F[t]
    up, down = _UP[f], _DOWN[f]
    scaled = a * up                                   # exact, as a / down is for f < 0
    s = scaled / down
    d, coarse = np.rint(s), np.rint(s / 10)
    ok = np.abs(coarse * (10 * down) - scaled) < _HALF[t]  # exact
    k = f - ok
    d += (coarse - d) * ok                            # the coarse one if it reparses; exact
    if f.min() <= _K:                                 # s rounded: is rint's digit the nearest?
        fall |= ~ok & (np.abs(d * down - scaled) * 2 > down)
    d[fall], k[fall] = 1, _K + 1
    z = np.flatnonzero(d == np.floor(d / 10) * 10)
    while z.size:                                     # only a coarse decimal ends in 0
        d[z] /= 10
        k[z] -= 1
        z = z[d[z] == np.floor(d[z] / 10) * 10]
    up, down = _UP[k], _DOWN[k]
    whole = np.floor(d / up)                          # exact: d < 2**53
    zero = bits << 1 == 0                             # 0.0 and -0.0
    return whole * down, (d - whole * up) * ~zero, np.maximum(k - _K, 1), fall & ~zero


def _format_rows(xyz32: np.ndarray, rgb: np.ndarray) -> np.ndarray:
    """The data lines of one block. A coordinate's token is the whole number of
    its digits with 0s for the '.' and separator, the rgb's ends in a 0 for the
    newline. Summed token lengths place them in one buffer, last token first
    (numpy assigns in index order), as w zero-padded bytes ending on its last
    byte: the tokens before overwrite the padding. Dots, signs, fallbacks last."""
    rows, v32 = len(rgb), xyz32.ravel()
    whole, frac, nf, fall = _digits(v32)
    neg = (v32.view(np.int32) < 0).reshape(rows, 3)
    packed = rgb @ np.array([65536.0, 256.0, 1.0])
    num = np.column_stack(((whole.astype(np.int64) * (10 ** np.arange(14))[nf + 1]
                            + frac.astype(np.int64)).reshape(rows, 3), packed.astype(np.int64)))
    # digits of whole parts and rgbs, of <= 9 significant digits: 2**-40 is
    # far more than log10's error, far less than a gap to the next power of ten
    ni = np.log10(np.concatenate((whole, packed)) * (1 + 2 ** -40) + 0.5).astype(np.intp) + 1
    size = ni[:-rows] + nf + 2                        # with the '.' and the separator
    w = (max(size.max(), ni[-rows:].max() + 1) + 3) // 4 * 4
    lens = np.column_stack((size.reshape(rows, 3) + neg, ni[-rows:] + 1))
    lanes, tokens, groups = np.flatnonzero(fall), [], []
    if lanes.size:                                    # Dragon4 once per distinct value
        # stable sorts only (return_index picks one): quicksort maps ~0.3 MB more code
        values, _, which, counts = np.unique(v32[lanes], True, True, True)
        tokens = [np.frombuffer(_fmt32(v).encode(), np.uint8) for v in values]
        cells = lanes + lanes // 3                    # each lane's place in lens and end
        np.put(lens, cells, np.array([len(t) + 1 for t in tokens])[which])
        groups = np.split(cells[np.argsort(which, kind="stable")], np.cumsum(counts)[:-1])
    end = np.cumsum(lens).reshape(rows, 4) + (w - 1)  # each token's last byte, after w spare
    u, words = np.flip(num.ravel()) * 10, np.empty((4 * rows, w // 4), np.uint32)
    for j in range(w // 4 - 1, -1, -1):               # four digits at a time, last first
        q = u // 10000
        words[:, j] = _WORDS[u - q * 10000]
        u = q
    words.view(np.uint8)[:, -1] = np.frombuffer(b"\n   " * rows, np.uint8)
    buf = np.empty(end[-1, 3] + 1, np.uint8)
    np.ndarray((len(buf) - w + 1,), f"V{w}", buf, strides=(1,))[end.ravel()[::-1] - (w - 1)] = (
        words.view(f"V{w}").ravel())
    dot = end[:, :3] - nf.reshape(rows, 3) - 1
    buf[dot] = ord(".")
    buf[(dot - ni[:-rows].reshape(rows, 3) - 1) * neg] = ord("-")  # else to spare byte 0
    for token, group in zip(tokens, groups):          # all lanes of one value at once
        buf[(end.take(group) - len(token))[:, None] + np.arange(len(token))] = token
    return buf[w:]


def write_pcd(cloud: PointCloud, path: str | Path) -> None:
    """Write a cloud to ``path`` in the ASCII dialect above, as UTF-8. A
    coordinate beyond the float32 range raises :class:`ValidationError`,
    naming its row (0-based) and value, before the file is opened."""
    with np.errstate(over="ignore"):
        xyz32 = cloud.xyz.astype(np.float32)
    for row, col in np.argwhere(~np.isfinite(xyz32))[:1]:
        raise ValidationError(f"{cloud.frame} row {row}: coordinate {float(cloud.xyz[row, col])}"
                              " is beyond the float32 range of a PCD file")
    n = len(cloud)
    values = {**_EXPECTED, "WIDTH": n, "VIEWPOINT": "0 0 0 1 0 0 0", "POINTS": n}
    with open(path, "wb") as fh:
        fh.write((f"# frame {cloud.frame}\n"
                  + "".join(f"{key} {values[key]}\n" for key in _HEADER_ORDER)).encode())
        for start in range(0, n, _BLOCK):
            fh.write(_format_rows(xyz32[start:start + _BLOCK], cloud.rgb[start:start + _BLOCK]))


#: One row as numpy reads it: the three coordinates and the packed color.
_ROW = np.dtype([("xyz", np.float32, 3), ("rgb", np.int64)])
#: Line ends of str.splitlines() that numpy reads as blanks: \v \f \x1c-\x1e, and
#: the UTF-8 lead bytes of U+0085 (0xc2) and U+2028, U+2029 (0xe2).
_BLANK_BREAKS = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\xc2", b"\xe2")


def _load_rows(path: Path, data_start: int, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``n`` rows after line ``data_start`` as numpy's C text reader parses
    them (a token as ``float``, narrowed to float32, or as ``int``), or ``None``
    where it fails, warns, or reads a count or value the row loop refuses."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")                # a blank line warns: the row loop skips it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # POINTS 0
        try:
            rows = np.loadtxt(path, _ROW, comments=None, skiprows=data_start, max_rows=n + 1,
                              encoding="utf-8", ndmin=1)
        except (ValueError, Warning):
            return None
    xyz, packed = rows["xyz"], rows["rgb"]
    if len(rows) != n or not np.isfinite(xyz).all() or not (packed >> 24 == 0).all():
        return None
    return xyz.astype(np.float64), packed


@np.errstate(over="ignore")                           # np.float32("1e39") is inf: refused below
def _parse_rows(lines: list[str], data_start: int, n: int,
                points_line: int) -> tuple[np.ndarray, np.ndarray]:
    """The row loop: parses any layout the format allows (comments and
    blank lines among the rows) and raises on the first bad line."""
    if n > len(lines) - data_start:                   # every row needs a line after DATA
        raise PcdParseError(f"expected {n} data rows, only {len(lines) - data_start} "
                            "lines follow DATA", points_line)
    xyz, packed, count = np.empty((n, 3)), np.empty(n, dtype=np.int64), 0
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
    raw = Path(path).read_bytes()
    key = _DATA.search(raw)                           # only the header is decoded
    text = decode_utf8(raw[:raw.find(b"\n", key.end()) + 1 or None] if key else raw, PcdParseError)
    frame, data_start, lineno = "unknown", None, None
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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
    if n < 0:
        raise PcdParseError(f"negative POINTS value {n}", header_line["POINTS"])
    # numpy opens a Path (no "//" to take for a URL) unless its name asks to decompress,
    # and allocates the n rows first: a row takes 8 bytes or more
    plain = (8 * n <= len(raw) and Path(path).suffix not in (".gz", ".bz2", ".xz", ".lzma")
             and not any(b in raw for b in _BLANK_BREAKS))
    del raw
    rows = _load_rows(Path(path), data_start, n) if plain else None
    xyz, packed = rows or _parse_rows(decode_utf8(Path(path).read_bytes(), PcdParseError)
                                      .splitlines(), data_start, n, header_line["POINTS"])
    rgb = packed.astype("<u4").view(np.uint8).reshape(-1, 4)[:, 2::-1]  # bytes b, g, r, 0
    return PointCloud(xyz, rgb.copy(), frame)

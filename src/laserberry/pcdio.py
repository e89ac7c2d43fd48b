"""ASCII PCD serialization for colored clouds.

The dialect is fixed: ``FIELDS x y z rgb``, four-byte float coordinates,
and the color packed into one unsigned integer as ``r<<16 | g<<8 | b``.
The source frame rides along in a leading ``# frame`` comment. Colors
round-trip exactly; coordinates round-trip to float32. Files are UTF-8,
whatever the locale.

Rows are written in blocks with numpy. Each coordinate's shortest round-trip
digits ``d * 10**e`` come from two digit counts bracketed by its float32
spacing (Schubfach), or from :func:`_fmt32` (Dragon4) once a block per
magnitude the arrays cannot vouch for. Running sums of the token lengths place
every token's digits in one byte buffer. The reader decodes only the header;
numpy's C text reader takes the rows after ``DATA`` wherever it reads them as
the row loop does, and the row loop reads every other layout the format allows
(comments and blank lines among the rows, other line ends) and names a bad line.
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


def _parse(token: str) -> tuple[int, int]:
    # a Dragon4 token "W.F" as (d, e), d without trailing zeros: "0.0" is (0, 0)
    digits = token.replace(".", "").rstrip("0") or "0"
    return int(digits), token.index(".") - len(digits)


def _digits(v32: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, e)``: ``|v32| == float32(d * 10**e)``, the nearest decimal of the
    fewest (at most 9) digits, none of them trailing zeros. An interval one
    float32 spacing wide holds a multiple of 10**-f and at most one of 10**(1-f)
    (Schubfach): the nearest multiple of 10**(1-f) if its exact distance is under
    half a spacing, else that of 10**-f. Scaled by 10**f in one rounding, the
    value is exact for f >= 0 (a tie goes to the even digit, as in Dragon4); for
    f < 0 a digit that is not the nearest falls back, as do zeros, subnormals and
    powers of two (an asymmetric interval): :func:`_fmt32` formats each magnitude
    there once."""
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
    e = _K - f + ok
    d += (coarse - d) * ok                            # the coarse one if it reparses; exact
    if f.min() <= _K:                                 # s rounded: is rint's digit the nearest?
        fall |= ~ok & (np.abs(d * down - scaled) * 2 > down)
    z = np.flatnonzero(d == np.floor(d / 10) * 10)    # only a coarse decimal ends in 0
    dz, ez = d[z], e[z]
    for p in (8, 4, 2, 1):                            # d < 10**9: at most 8 zeros
        q = np.floor(dz / 10 ** p)
        cut = q * 10 ** p == dz
        dz, ez = np.where(cut, q, dz), ez + p * cut
    d[z], e[z] = dz, ez
    lanes = np.flatnonzero(fall)
    if lanes.size:                                    # Dragon4 once per distinct magnitude
        # stable sorts only (return_index picks one): quicksort maps ~0.3 MB more code
        values, _, which = np.unique(a[lanes].astype(np.float32), True, True)
        d[lanes], e[lanes] = np.array([_parse(_fmt32(v)) for v in values]).T[:, which]
    return d, e


def _format_rows(xyz32: np.ndarray, rgb: np.ndarray) -> np.ndarray:
    """The data lines of one block, in a buffer of ASCII 0s. A token's digits,
    ``d`` with a 0 inserted -e digits from its end (its '.', or for e >= 0 the
    first 0 after them), fill a 12-byte zero-padded field ending -e bytes after
    the '.'; an rgb is a token of e = 0 whose '.' falls on its newline. Summed
    token lengths place the fields, last token first (numpy assigns in index
    order): the tokens before overwrite the padding. Then dots, signs, separators."""
    rows = len(rgb)
    d, e = (x.reshape(rows, 3) for x in _digits(xyz32.ravel()))
    d = np.column_stack((d, rgb @ np.array([65536.0, 256.0, 1.0])))
    e = np.column_stack((e, np.zeros(rows, np.intp)))
    neg = np.column_stack((xyz32.view(np.int32) < 0, np.zeros(rows, bool)))
    # digits of d (< 10**9): 2**-40 exceeds log10's error, not a gap to 10**k
    nd = np.log10(d * (1 + 2 ** -40) + 0.5).astype(np.intp) + 1
    whole, frac = np.maximum(nd + e, 1), np.maximum(-e, 1)
    frac[:, 3] = -1                                   # an rgb's '.' is its newline
    sep = np.cumsum(whole + frac + 2 + neg).reshape(rows, 4) + 10  # 11 spare bytes first
    dot = sep - frac - 1
    p = _P10[(-e).clip(0, 9)]                         # d < 10**9: no '.' past 9 digits
    u = np.flip((d + np.floor(d / p) * (9 * p)).ravel()).astype(np.int64)
    words = np.empty((4 * rows, 3), np.uint32)
    for j in (2, 1, 0):                               # four digits at a time, last first
        q = u // 10000
        words[:, j] = _WORDS[u - q * 10000]
        u = q
    buf = np.full(sep[-1, 3] + 1, ord("0"), np.uint8)
    np.ndarray((len(buf) - 11,), "V12", buf, strides=(1,))[np.flip((dot - e).ravel()) - 11] = (
        words.view("V12").ravel())
    buf[dot] = ord(".")
    buf[(dot - whole - 1) * neg] = ord("-")           # else to spare byte 0
    buf[sep] = np.frombuffer(b"   \n" * rows, np.uint8).reshape(rows, 4)
    return buf[11:]


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

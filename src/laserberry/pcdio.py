"""ASCII PCD serialization for colored clouds.

The dialect is fixed: ``FIELDS x y z rgb``, four-byte float coordinates,
and the color packed into one unsigned integer as ``r<<16 | g<<8 | b``.
The source frame rides along in a leading ``# frame`` comment. Colors
round-trip exactly; coordinates round-trip to float32. Files are UTF-8,
whatever the locale.

Rows are written and read in blocks with numpy. The writer finds each
coordinate's shortest round-trip digits with float64 arrays; :func:`_fmt32`
(Dragon4) formats the few values the arrays cannot vouch for. The reader
takes the rows after ``DATA`` from the file's bytes when they follow the
writer's grammar; the row loop reads every other layout the format allows
(tabs, CRLF, comments among the rows, exponents) and names a bad line.
"""

from __future__ import annotations

import re
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

#: Rows per written block, and a read block's bytes over 64: big enough to
#: amortize the numpy calls, small enough that a block stays near 100 kB.
_BLOCK = 1024

_EOL = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"      # what ends a line for str.splitlines()
_LINE = re.compile(rf"[^{_EOL}]+\Z|[^{_EOL}]*(?:\r\n|[{_EOL}])")


def _fmt32(v: np.float32) -> str:
    # shortest decimal that reparses to the same float32
    return np.format_float_positional(v, unique=True, trim="0")


#: The ASCII digits of 0..9999 as little-endian uint32 words, two pairs each,
#: and masks that keep the first (_FIRST) or last (_LAST) j bytes at 32 + j.
_n = np.arange(100, dtype=np.uint32)
_PAIRS = (_n // 10 + 48) | (_n % 10 + 48) << 8
_WORDS = (_PAIRS[:, None] | _PAIRS << 16).ravel()
_j = np.clip(np.arange(-32, 32), 0, 4)
_FIRST = ((1 << 8 * _j) - 1).astype(np.uint32)
_LAST = ((1 << 32) - (1 << 32 - 8 * _j)).astype(np.uint32)
#: 10**j at index j + _K (j = -17..22), exact for j >= 0. Multiplying by _UP
#: and dividing by _DOWN at k + _K scales by 10**k in one rounding (k = -17..13).
_K = 17
_P10 = np.array([10 ** j / 1 if j >= 0 else 1 / 10 ** -j for j in range(-_K, 23)])
_UP, _DOWN = _P10[np.arange(31).clip(_K)], _P10[(2 * _K - np.arange(31)).clip(_K)]


def _digits(v32: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(d, p, k, fall)``: ``|v32| == float32(d / 10**k)``, ``d`` the nearest
    decimal of the fewest digits p, and the lanes left to :func:`_fmt32`.
    p is binary-searched over 1..9: scale by 10**k, ``rint``, scale back in
    one rounding, compare as float32. For k >= 0 the scaled value is exact and
    a tie goes to the even digit, as in Dragon4; for k < 0 a fraction within
    1e-5 of .5 falls back. Up to k = 8 a decimal is a float32 midpoint (which
    goes to the even neighbour, as in Dragon4) or over a float64 ulp from one;
    beyond, one within 2 ulps falls back. So do zero, subnormals, powers of
    two (an asymmetric interval) and |v| outside [1e-4, 1e16)."""
    bits = v32.view(np.uint32)
    e2 = (bits >> 23 & 0xFF).astype(np.intp) - 127
    fall = ((bits & 0x7FFFFF) == 0) | (e2 < -14) | (e2 > 53)
    e2[fall] = 0
    a32 = np.where(fall, np.float32(1.5), np.abs(v32))
    a = a32.astype(np.float64)
    e10 = (e2 * 78913) >> 18                          # floor(e2 log10 2)
    e10 += a >= _P10[e10 + 1 + _K]                    # now floor(log10 a)
    fall |= (e10 < -4) | (e10 > 15)
    half = np.ldexp(1.0, e2 - 24)                     # half a float32 spacing

    def probe(p):
        k = p + _K - 1 - e10
        up, down = _UP[k], _DOWN[k]
        s = a * up / down
        d = np.rint(s)
        r = d * down / up
        fall[(k > _K + 8) & (np.abs(np.abs(r - a) - half) <= half * 2.0 ** -27)] = True
        return r.astype(np.float32) == a32, s, d, k

    lo, hi = np.ones_like(e10), np.full_like(e10, 9)
    for _ in range(4):
        mid = (lo + hi) >> 1
        ok = probe(mid)[0]
        hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid + 1)
    ok, s, d, k = probe(hi)
    fall |= ~ok | ((k < _K) & (np.abs(s - d) > 0.5 - 1e-5))
    carry = d == _UP[hi + _K]                         # 9.99 -> 10.0
    return np.where(carry, d / 10, d), hi, k - _K - carry, fall


def _words(x: np.ndarray, n: np.ndarray, g: int) -> np.ndarray:
    """The n-digit whole numbers ``x`` as ``g`` words of :data:`_WORDS`,
    right-aligned, leading zeros 0. Exact: ``x`` < 2**52 or ends in zeros."""
    q = np.floor(x[:, None] / _P10[_K + 4 * np.arange(g - 1, -1, -1)])
    return (_WORDS[(q - np.floor(q / 1e4) * 1e4).astype(np.intp)]
            & _LAST[32 + np.reshape(n, (-1, 1)) - 4 * np.arange(g - 1, -1, -1)])


def _format_rows(xyz32: np.ndarray, packed: np.ndarray) -> bytes:
    """The data lines of one block of rows. Each row is a row of uint32 words.
    A coordinate's whole digits are right-aligned, its separator and sign in
    the two bytes before them; its fraction, led by ``.``, is left-aligned.
    Bytes no token uses stay 0, and all are dropped at the end."""
    rows, v32 = len(packed), xyz32.ravel()
    d, p, k, fall = _digits(v32)
    up, down = _UP[k + _K], _DOWN[k + _K]
    whole = np.floor(d / up)                          # exact: d < 2**53
    ni, nf = np.maximum(p - k, 1), np.maximum(k, 1)   # digits before and after the point
    gi, gf = (ni.max() + 5) // 4, (nf.max() + 4) // 4
    left = _words(whole * down, ni, gi).reshape(rows, 3, gi)
    left[..., 0] |= (v32.view(np.uint32) >> 31).reshape(rows, 3) * 0x2D00 + np.uint32([0, 32, 32])
    # the fraction as 4 * gf - 1 digits behind a '0' turned into '.'
    right = (_words((d - whole * up) * _P10[_K + 4 * gf - 1 - nf], 4 * gf, gf)
             & _FIRST[33 + nf[:, None] - 4 * np.arange(gf)])
    right[:, 0] -= ord("0") - ord(".")
    tokens = {i: b" "[:i % 3] + _fmt32(v32[i]).encode() for i in np.flatnonzero(fall)}
    s = max([gi + gf] + [-(-len(t) // 4) for t in tokens.values()])
    mat = np.zeros((rows, 3 * s + 3), np.uint32)
    cells = mat[:, :3 * s].reshape(rows, 3, s)        # a view: it splits the last axis
    cells[..., :gi] = left
    cells[..., gi:gi + gf] = right.reshape(rows, 3, gf)
    for i, token in tokens.items():
        cells[i // 3, i % 3].view(np.uint8)[:] = np.frombuffer(token.ljust(4 * s, b"\0"), np.uint8)
    # rgb * 10, its last '0' turned into a newline and a space ahead
    mat[:, -3:] = _words(packed * 10.0, np.searchsorted(_P10[_K + 1:], packed, "right") + 2, 3)
    mat[:, -3] |= ord(" ")
    mat[:, -1] -= ord("0") - ord("\n") << 24
    out = mat.view(np.uint8)
    return out[out != 0].tobytes()


def write_pcd(cloud: PointCloud, path: str | Path) -> None:
    """Write a cloud to ``path`` in the ASCII dialect above, as UTF-8. A
    coordinate beyond the float32 range raises :class:`ValidationError`,
    naming its row (0-based) and value, before the file is opened."""
    with np.errstate(over="ignore"):
        xyz32 = cloud.xyz.astype(np.float32)
    for row, col in np.argwhere(~np.isfinite(xyz32))[:1]:
        raise ValidationError(f"{cloud.frame} row {row}: coordinate {float(cloud.xyz[row, col])}"
                              " is beyond the float32 range of a PCD file")
    rgb = cloud.rgb.astype(np.int64)
    packed = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    n = len(cloud)
    values = {**_EXPECTED, "WIDTH": n, "VIEWPOINT": "0 0 0 1 0 0 0", "POINTS": n}
    with open(path, "wb") as fh:
        fh.write((f"# frame {cloud.frame}\n"
                  + "".join(f"{key} {values[key]}\n" for key in _HEADER_ORDER)).encode())
        for start in range(0, n, _BLOCK):
            fh.write(_format_rows(xyz32[start:start + _BLOCK], packed[start:start + _BLOCK]))


#: Masks that keep the last j = 0..16 bytes of two little-endian words.
_KEEP = np.frombuffer(b"".join(bytes(16 - j) + b"\xff" * j for j in range(17)), "(2,)<u8")


@np.errstate(over="ignore")                           # a float32 overflow is refused below
def _parse_bytes(raw: bytes, at: int, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Coordinates and packed colors when ``raw[at:]`` is ``n`` rows as the
    writer lays them out, else ``None``. A token's last 16 bytes are two words
    of eight digits, '.' and '-' read as 0, summed by SWAR arithmetic (Lemire,
    "Number Parsing at a Gigabyte per Second") into S = I * 10**(k+1) + F. In
    15 bytes, M = I * 10**k + F < 2**53 and k <= 22, so M / 10**k is rounded
    once (Clinger's fast path) and equals ``float(token)``."""
    if 14 * n > len(raw) - at:                        # bound n: no row is under 14 bytes
        return None
    body, xyz, packed, s = np.frombuffer(raw, np.uint8), np.empty((n, 3)), np.empty(n, np.int64), 0
    while at < len(raw):
        end = raw.rfind(b"\n", at, at + 64 * _BLOCK) + 1  # whole rows; 0 if none fits
        c, at = body[at:end], end
        # rows: '. . . \n' among digits and a coordinate's '-'; rgb: 1-8 digits, no 0 first
        marks = np.flatnonzero((c <= 46) & (c != 45))
        r = len(marks) // 7
        if not 0 < r <= n - s or c[marks].tobytes() != b". . . \n" * r:
            return None
        marks = marks.reshape(r, 7)
        sep = marks[:, [1, 3, 5, 6]].ravel()
        start = np.concatenate(([0], sep[:-1] + 1))
        size, dots, digit, neg = sep - start, marks[:, :5:2], c >= 48, c[start] == 45
        rgb = size[3::4]
        if (c.max() > 57 or np.count_nonzero(digit) != c.size - 7 * r - np.count_nonzero(neg)
                or not (digit[dots - 1] & digit[dots + 1]).all()
                or not ((rgb >= 1) & (rgb <= 8) & (c[start[3::4]] > 47 + (rgb > 1))).all()):
            return None
        d = np.concatenate((np.zeros(16, np.uint8), (c - 48) * digit))  # digit values
        w = np.ndarray((d.size - 15,), "V16", d, strides=(1,))[sep].view("<u8").reshape(-1, 2)
        w &= _KEEP.take(np.minimum(size, 16), axis=0)
        w = w * 10 + (w >> 8)                         # pairs, then eight digits per word
        w = ((w & 0xFF000000FF) * (100 + (10 ** 6 << 32))
             + (w >> 16 & 0xFF000000FF) * (1 + (10 ** 4 << 32))) >> 32
        v = (w[:, 0] * 10 ** 8 + w[:, 1]).reshape(r, 4)
        packed[s:s + r] = v[:, 3]
        v, p = v[:, :3].astype(np.float64), _P10[_K + np.minimum(marks[:, 1:6:2] - dots - 1, 15)]
        q = np.floor(v / p)                           # 10 * I, exact as v < 10**15 < 2**53
        val = np.copysign((v - q * p + q / 10 * p) / p, 0.5 - neg.reshape(r, 4)[:, :3])
        for t in np.flatnonzero(size > 15):
            val[t // 4, t % 4] = float(c[start[t]:sep[t]].tobytes())
        xyz[s:s + r] = val.astype(np.float32)
        s += r
    ok = s == n and np.isfinite(xyz).all() and packed.max(initial=0) <= 0xFFFFFF
    return (xyz, packed) if ok else None


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
    text = decode_utf8(raw, PcdParseError)
    frame, data_start, lineno = "unknown", None, None
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}
    for lineno, line in enumerate(_LINE.finditer(text), start=1):
        stripped = line[0].strip()
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
            data_start, at = lineno, len(text[:line.end()].encode())  # bytes before the rows
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
    del text                                          # the rows are read from raw
    xyz, packed = _parse_bytes(raw, at, n) or _parse_rows(
        decode_utf8(raw, PcdParseError).splitlines(), data_start, n, header_line["POINTS"])
    rgb = packed.astype("<u4").view(np.uint8).reshape(-1, 4)[:, 2::-1]  # bytes b, g, r, 0
    return PointCloud(xyz, rgb.copy(), frame)

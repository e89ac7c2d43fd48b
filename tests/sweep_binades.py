"""Write every float32 in the given ranges, both signs, and check each token.

Each pair of arguments is a range [lo, hi) of float32 values, given as
``float.fromhex`` reads them (``0x1p3``, ``0x1p-126``, ``0``, ``inf``). Every
value in it is written with :func:`write_pcd`, 65,536 rows a file, and each
token is compared with Dragon4 (``_fmt32``). Each file is read back too: the
reader rests on numpy's float parser, so this pins its bits for the numpy
installed. Exits non-zero on any difference::

    PYTHONPATH=src python tests/sweep_binades.py 0x1p3 0x1p4
"""

import os
import sys
import tempfile

import numpy as np

from laserberry import PointCloud, read_pcd, write_pcd
from laserberry.pcdio import _fmt32

_CHUNK = 3 << 16


def sweep(lo: float, hi: float, path: str) -> tuple[int, int, int]:
    """Values written, tokens that differ from Dragon4, values read back changed."""
    start, stop = (int(b) for b in np.float32([lo, hi]).view(np.uint32))
    count = bad = misread = 0
    for sign in (0, 1 << 31):
        for first in range(start, stop, _CHUNK):
            bits = np.arange(first, min(first + _CHUNK, stop), dtype=np.uint32) | sign
            v = np.resize(bits.view(np.float32), -(-len(bits) // 3) * 3)
            rgb = np.zeros((len(v) // 3, 3), np.uint8)
            write_pcd(PointCloud(v.reshape(-1, 3).astype(np.float64), rgb, "sweep"), path)
            with open(path, encoding="utf-8") as fh:
                tokens = fh.read().split("DATA ascii\n")[1].split()
            del tokens[3::4]
            bad += sum(t != _fmt32(x) for t, x in zip(tokens, v, strict=True))
            back = read_pcd(path).xyz.astype(np.float32).ravel()
            misread += np.count_nonzero(back.view(np.uint32) != v.view(np.uint32))
            count += len(bits)
    assert count == 2 * (stop - start)
    return count, bad, misread


def main(args: list[str]) -> int:
    bounds = [float.fromhex(a) for a in args]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for lo, hi in zip(bounds[::2], bounds[1::2], strict=True):
            count, bad, misread = sweep(lo, hi, os.path.join(tmp, "binade.pcd"))
            print(f"[{lo!r}, {hi!r}): {count} values, {bad} tokens differ from Dragon4, "
                  f"{misread} read back changed", flush=True)
            failed |= bad > 0 or misread > 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

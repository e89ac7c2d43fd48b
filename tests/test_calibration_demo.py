"""The gantry calibration demo prints the bytes it printed when each of its
bisection steps still generated, localized and harvested the whole scenario.

``tests/golden/calibrate_gantry_speed.txt`` was written once by that version
of ``demos/calibrate_gantry_speed.py`` and is never regenerated: the demo now
localizes the scene once and only harvests it at each speed, so a mismatch
means a step's mean cycle, or the bisection, changed.
"""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "calibrate_gantry_speed.txt"
GOLDEN_SHA256 = "56b71c4a9cf3d684ddbb43749b21ff0c55a27fb9b697194ad958acba889fb550"


def test_calibration_demo_prints_the_golden_bytes(capsys):
    golden = GOLDEN.read_bytes()
    assert hashlib.sha256(golden).hexdigest() == GOLDEN_SHA256
    spec = importlib.util.spec_from_file_location(
        "calibrate_gantry_speed", ROOT / "demos" / "calibrate_gantry_speed.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out.encode() == golden

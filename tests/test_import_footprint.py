"""The package's import footprint: NumPy and the standard library only.

Every process pays for what ``import repro`` loads — the runner, each
test process, each forked pool worker — in start-up time and resident
memory, so a third-party import is a measured cost, not a free one.
"""

import subprocess
import sys
from pathlib import Path

_PROBE = """
import sys
before = set(sys.modules)
import repro
import repro.experiments.runner
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
third_party = {
    name for name in loaded - set(sys.stdlib_module_names) - {"repro"}
    if not (name.startswith("__") and name.endswith("__"))
}
print(",".join(sorted(third_party)))
"""


def test_repro_imports_only_numpy_beyond_the_stdlib():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.strip().split(",")) == {"numpy"}

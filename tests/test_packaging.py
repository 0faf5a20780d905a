"""``setup.py build`` ships the C kernel sources with the package.

``repro.core.sekernel`` compiles the C-set selection, the
Shrink-and-Expand loop and the Step-2 log walk from ``.c``/``.h`` files
next to the installed modules; a build that leaves them out makes every installed copy run
the numpy fallbacks without a word.  The build runs in a temporary
copy of ``setup.py`` and ``src/``, so the working tree is not touched.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_build_ships_every_c_source(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    shutil.copy2(ROOT / "setup.py", tree / "setup.py")
    shutil.copytree(
        ROOT / "src", tree / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    build = tmp_path / "build"
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base",
         str(build)],
        cwd=tree, check=True, capture_output=True, timeout=300,
    )
    sources = sorted(
        p.relative_to(ROOT / "src")
        for pattern in ("*.c", "*.h")
        for p in (ROOT / "src" / "repro").rglob(pattern)
    )
    assert sources, "no C sources found under src/repro"
    lib = build / "lib"
    missing = [str(s) for s in sources if not (lib / s).is_file()]
    assert not missing, f"build output lacks {missing}"
    assert (lib / "repro" / "core" / "sekernel.py").is_file()

"""Packaging for the ``repro`` library (sources under ``src/``).

The C sources of the three compiled loops (C-set selection,
Shrink-and-Expand row loop, Step-2 log walk) ship as package data: ``repro.core.sekernel`` compiles them on
first use in the installed copy, so a build without them would run
the numpy fallbacks silently.  ``wheel`` is optional;
``python setup.py build`` and
``pip install -e . --no-build-isolation --no-use-pep517`` both work
without it.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Voronoi-based nearest neighbor search for multi-dimensional "
        "uncertain databases (PV-index reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"": ["*.c", "*.h"]},
    install_requires=["numpy"],
    python_requires=">=3.10",
)

"""Package metadata for ``repro``.

The package lives under ``src/`` and its version is read from
``src/repro/__init__.py``, so there is one place to bump it.  Install
with ``pip install .`` (or ``pip install -e .`` for an editable
checkout); ``python setup.py --name --version`` prints the metadata
without installing anything.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Parallel-in-time Kalman smoothing using orthogonal transformations"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)

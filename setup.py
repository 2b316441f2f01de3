"""Packaging for the ``repro`` library (sources under ``src/``).

Install in editable mode with ``pip install -e .``.  Where the ``wheel``
package is missing, pip cannot build the editable install; run
``python setup.py develop`` instead, which needs only setuptools.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Deep Harmonic Finesse: signal separation in wearable systems "
        "with limited data"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)

"""Package metadata and install script.

All metadata lives here, with no ``pyproject.toml``, so that
``python setup.py develop`` and ``pip install .`` work in offline
environments without the ``wheel`` package: a ``[build-system]`` table would
make pip fetch its build requirements first.

The ``compiled`` extra pulls in numba for the optional compiled walk-kernel
backend (``pip install repro[compiled]``); without it the engine runs the
bit-identical numpy reference kernels (see DESIGN.md Contract 9).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent


def read_version() -> str:
    """``__version__`` from ``src/repro/__init__.py``, without importing it."""
    text = (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("no __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description="Efficient estimation of pairwise effective resistance (GEER and baselines)",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    extras_require={
        "compiled": ["numba>=0.57"],
    },
    entry_points={
        "console_scripts": ["repro-er = repro.cli:main"],
    },
)

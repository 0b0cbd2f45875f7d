"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import photon_router


@pytest.fixture
def package_env() -> dict:
    """Environment for a fresh interpreter that imports this photon_router,
    with one OpenBLAS thread as the benchmarks run."""
    src = str(Path(photon_router.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                OPENBLAS_NUM_THREADS="1")

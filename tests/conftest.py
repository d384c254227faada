import os
import pathlib

import pytest

from normplane import curves
from normplane.corpus import corpus_norms, double_drop_curve, drop_curve
from normplane.curves import build_natural_param, unit_sphere

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SPECS_DIR = REPO_ROOT / "specs"


@pytest.fixture(scope="session")
def corpus():
    return corpus_norms()


@pytest.fixture(scope="session")
def params(corpus):
    # natural parameterizations are pure and reusable; build each sphere once
    return {name: build_natural_param(unit_sphere(n)) for name, n in corpus.items()}


@pytest.fixture(scope="session")
def drop():
    return drop_curve()


@pytest.fixture(scope="session")
def double_drop():
    return double_drop_curve()


@pytest.fixture
def table_builds(monkeypatch):
    """A list that gains one entry for each arc-length table a curve computes."""
    built = []
    for name in ("_polygon_table", "_sphere_table"):
        def counting(curve, _orig=getattr(curves, name)):
            built.append(1)
            return _orig(curve)
        monkeypatch.setattr(curves, name, counting)
    return built


@pytest.fixture(scope="session")
def specs_dir():
    return SPECS_DIR


@pytest.fixture(scope="session")
def repo_root():
    return REPO_ROOT


@pytest.fixture(scope="session")
def child_env():
    """Return a builder of environments for a child ``python -m normplane``.

    The child's PYTHONPATH starts with this checkout's absolute ``src/``,
    followed by the parent's own PYTHONPATH, so the child imports the code
    under test from any working directory and ahead of any installed copy.
    Keyword arguments set further variables, e.g. ``PYTHONHASHSEED="1"``.
    """
    def build(**extra):
        env = dict(os.environ, **extra)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if path)
        return env
    return build

"""Shared fixtures: the canonical constant-slope model and its companions."""

import os

# the dense test oracles run on one BLAS thread: the first multithreaded
# OpenBLAS call of a process can cost about 1 s of thread start-up, more
# than the oracle itself. Set before numpy is first imported, and only
# when the caller has not chosen a count; the library makes no BLAS call
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import weakref  # noqa: E402

import pytest

from geolorenz import (
    CoordinatePotential,
    LorenzMap1D,
    RoofFunction,
    SkewProductReturnMap,
    build_horseshoe,
)
from geolorenz import symbolic


@pytest.fixture(scope="session")
def lmap():
    return LorenzMap1D(alpha=1.0, beta=1.7)


@pytest.fixture(scope="session")
def skew(lmap):
    return SkewProductReturnMap(lmap, rho=0.3, c_H=0.5)


@pytest.fixture(scope="session")
def roof():
    return RoofFunction(c0=1.0, c1=1.0, eta0=0.5)


@pytest.fixture(scope="session")
def coord():
    return CoordinatePotential()


@pytest.fixture(scope="session")
def horseshoe12(lmap):
    # the standard pruned subshift used across the suite
    return build_horseshoe(lmap, 12, 0.002)


@pytest.fixture(scope="session")
def horseshoe6(lmap):
    return build_horseshoe(lmap, 6, 0.002)


@pytest.fixture
def fresh_model_cache(monkeypatch, lmap):
    """An empty registry of model stores in `symbolic` for the test, in
    which the session map `lmap` holds a new, empty store; both are
    restored after.

    Tests that count symbolic work (SCC runs, enumerations, builds) use it,
    so objects an earlier test left in a store do not hide that work. The
    fixture's value, `renew(lm)`, gives a map a new, empty store, which
    later maps of its model share: a cold rebuild for that model.
    """
    monkeypatch.setattr(symbolic, "_MODELS", weakref.WeakValueDictionary())

    def renew(lm):
        symbolic._MODELS.pop((lm.alpha, lm.beta), None)
        monkeypatch.setattr(lm, "store",
                            symbolic.model_store(lm.alpha, lm.beta))
        return lm.store

    renew(lmap)
    return renew

"""Shared fixtures: small primitive sets used across the test modules, and
the command that starts a fresh interpreter."""
import sys

import pytest

from gpislands.feed import default_catalog, feed_primitives
from gpislands.localisation import localisation_primitives
from gpislands.trees import PrimitiveSet, Sort, arithmetic_kinds, terminal


@pytest.fixture
def geo_prims():
    """A tiny numeric vocabulary: add/sub/mul over lat, lon and constants."""
    kinds = arithmetic_kinds() + [
        terminal("lat", Sort.NUMBER),
        terminal("lon", Sort.NUMBER),
    ]
    return PrimitiveSet(
        kinds, Sort.NUMBER,
        {Sort.NUMBER: lambda rng: rng.uniform(-10.0, 10.0)},
    )


@pytest.fixture
def feed_prims():
    return feed_primitives(default_catalog())


@pytest.fixture
def loc_prims():
    return localisation_primitives()


@pytest.fixture
def python():
    """The command that starts a fresh interpreter under this one's flags:
    ``-X dev`` in development mode and each ``-W`` option, so a program the
    tests run in a subprocess meets their own warning gate."""
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    return [sys.executable, *dev, *(f"-W{option}" for option in sys.warnoptions)]

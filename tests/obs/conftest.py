"""Fixtures for the observability tests.

The flight recorder and tracer are process-wide singletons; tests that
record through them must leave them empty (the recorder stays *enabled*
-- that is its contract -- but its rings are cleared).
"""

import pytest

from repro.metrics import REGISTRY
from repro.trace import TRACER
from repro.trace import TRACER as FLIGHT


@pytest.fixture
def flight():
    FLIGHT.clear()
    yield FLIGHT
    FLIGHT.clear()


@pytest.fixture
def registry():
    REGISTRY.clear()
    REGISTRY.enable()
    yield REGISTRY
    REGISTRY.disable()
    REGISTRY.clear()


@pytest.fixture
def tracer():
    TRACER.clear()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.clear()

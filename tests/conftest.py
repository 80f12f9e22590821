"""Fixtures every test module shares."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic collector off: every later test
    would then run with different timing and memory."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic collector disabled")

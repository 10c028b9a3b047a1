"""Checks that every test of the suite gets.

The scenario decoder pauses CPython's cyclic garbage collector while it
runs and must restore it on every exit.  A test that returns with the
collector disabled fails here, so a restore that some path forgets
fails the suite wherever it runs, not only in the tests written for it.
"""

import gc

import pytest


def check_collector() -> None:
    """Fail when the cyclic collector is disabled, after enabling it again
    so that the tests after this one run as usual."""
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test returned with the cyclic garbage collector disabled",
                    pytrace=False)


@pytest.fixture(autouse=True)
def _collector_restored():
    yield
    check_collector()

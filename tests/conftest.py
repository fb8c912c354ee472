"""Shared fixtures: the paper's scenarios and small helper builders.

:func:`storage_backend` pins one storage backend for a block, so
differential suites run the same computation on the object path (the
oracle) and on the columnar path.

Also a fallback for the ``timeout`` ini option: pytest-timeout is the
preferred enforcer (declared in the ``test`` extra), but this
container-friendly shim keeps the per-test cap working when the plugin
is absent, using ``SIGALRM`` — good enough to fail a wedged
enumeration instead of hanging the suite.
"""

from __future__ import annotations

import importlib.util
import signal
import sys
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.data import instances
from repro.engine.cache import clear_registered_caches
from repro.logic.parser import parse_instance, parse_tgds
from repro.logic.tgds import Mapping
from repro.workloads import scenario

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None

#: ``COLUMNAR_MIN_FACTS`` value that pins each storage backend.
_BACKEND_THRESHOLDS = {"object": sys.maxsize, "columnar": 0}


@contextmanager
def storage_backend(backend: str) -> Iterator[None]:
    """Run the block on one storage backend, whatever the instance sizes.

    ``"object"`` keeps every instance on the object path; ``"columnar"``
    gives every instance a columnar store.  Registered caches are
    cleared on entry and exit, so a hom-set or plan computed on one
    backend is never served to the other.
    """
    threshold = _BACKEND_THRESHOLDS[backend]
    previous = instances.COLUMNAR_MIN_FACTS
    instances.COLUMNAR_MIN_FACTS = threshold
    clear_registered_caches()
    try:
        yield
    finally:
        instances.COLUMNAR_MIN_FACTS = previous
        clear_registered_caches()


def pytest_addoption(parser):
    if not _HAVE_PYTEST_TIMEOUT:
        # Claim the ini option pytest-timeout would own, so the
        # ``timeout = ...`` setting in pyproject.toml stays valid.
        parser.addini("timeout", "per-test timeout in seconds (shim)", default="0")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if _HAVE_PYTEST_TIMEOUT or not hasattr(signal, "SIGALRM"):
        return (yield)
    try:
        seconds = float(item.config.getini("timeout") or 0)
    except (TypeError, ValueError):
        seconds = 0.0
    marker = item.get_closest_marker("timeout")
    if marker and marker.args:
        seconds = float(marker.args[0])
    if seconds <= 0:
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded the {seconds:g}s timeout (shim)")

    previous = signal.signal(signal.SIGALRM, _expired)
    # Interval timer, not one-shot: hypothesis catches the TimeoutError
    # as a falsifying example and re-runs/shrinks it, so a single alarm
    # would leave every retry uncapped.  Re-arming caps each retry too.
    signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_configure(config):
    if not _HAVE_PYTEST_TIMEOUT:
        config.addinivalue_line(
            "markers", "timeout(seconds): per-test timeout (shim fallback)"
        )


@pytest.fixture
def running_example():
    """Examples 2-7: Sigma = {xi, rho, sigma}, J = {S(a,b), T(c), T(d)}."""
    return scenario("running_example")


@pytest.fixture
def intro_split():
    """Equation (1): Sigma = {R(x,y) -> S(x), P(y)}."""
    return scenario("intro_split")


@pytest.fixture
def intro_full():
    """Equation (4): full tgds with an unsound mapping-based inverse."""
    return scenario("intro_full")


@pytest.fixture
def employee_benefits():
    """Example 8: the schema-evolution case study."""
    return scenario("employee_benefits")


@pytest.fixture
def example12():
    """Example 12: the CQ sub-universal instance."""
    return scenario("example12")


def mapping_of(text: str) -> Mapping:
    """Parse a mapping from DSL text (test helper)."""
    return Mapping(parse_tgds(text))


def instance_of(text: str):
    """Parse an instance from DSL text (test helper)."""
    return parse_instance(text)

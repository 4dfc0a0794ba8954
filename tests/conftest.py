"""Validated preset networks shared by the test modules, and the set-up
that lets a failing Hypothesis test be reported like any other."""

import warnings

import pytest

from auglocal.netspec import resnet110_cifar, tinynet8, validate

pytest_plugins = ["pytester"]

# The Hypothesis plugin imports this module to write a patch for a failing
# @given test. Its import of libcst raises a DeprecationWarning (from
# mypy_extensions), which `filterwarnings = ["error"]` turns into an
# INTERNALERROR that ends the session. Imported here once, with that warning
# ignored, it is already loaded when a test fails.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # without libcst the plugin writes no patch
        pass


@pytest.fixture(scope="module")
def tiny():
    return validate(tinynet8())


@pytest.fixture(scope="module")
def r110():
    return validate(resnet110_cifar())

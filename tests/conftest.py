"""Validated preset networks shared by the test modules."""

import pytest

from auglocal.netspec import resnet110_cifar, tinynet8, validate


@pytest.fixture(scope="module")
def tiny():
    return validate(tinynet8())


@pytest.fixture(scope="module")
def r110():
    return validate(resnet110_cifar())

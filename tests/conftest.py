import pytest

from lucentnet import ExplorationLimits, all_reference_nets


def _reference(ident):
    return next(ref for ref in all_reference_nets() if ref.ident == ident)


@pytest.fixture(scope="session")
def n1():
    return _reference("n1")


@pytest.fixture(scope="session")
def n2():
    return _reference("n2")


@pytest.fixture(scope="session")
def n3():
    return _reference("n3")


@pytest.fixture(scope="session")
def n4():
    return _reference("n4")


@pytest.fixture(scope="session")
def n5():
    return _reference("n5")


@pytest.fixture(scope="session")
def limits():
    return ExplorationLimits()

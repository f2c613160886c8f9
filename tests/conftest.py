from fractions import Fraction

import pytest

from slopelab import build_tent_system, concentric_test

TARGET = (Fraction(1, 3), Fraction(1, 3))


@pytest.fixture
def counting_fractions(monkeypatch):
    """A list that grows by one for each Fraction built while the test runs; clear it before the code it counts."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    Fraction(1, 3) + Fraction(1, 3)  # the count sees a Fraction built by arithmetic
    assert built
    built.clear()
    return built


@pytest.fixture(scope="session")
def toy_test():
    return concentric_test(TARGET, scale_step=2)


@pytest.fixture(scope="session")
def toy_system5(toy_test):
    return build_tent_system(toy_test, depth=5, cutoff=0, budget=4)


@pytest.fixture(scope="session")
def toy_system8(toy_test):
    return build_tent_system(toy_test, depth=8, cutoff=0, budget=4)

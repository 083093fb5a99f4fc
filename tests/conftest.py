import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from triplepass import Mat2, build_instance, trivial_instance
from triplepass.fields import PrimeField


@pytest.fixture(scope="session")
def diag5():
    return build_instance("diagonal", 5)


@pytest.fixture(scope="session")
def diag3():
    return build_instance("diagonal", 3)


@pytest.fixture(scope="session")
def rot7():
    return build_instance("rotation", 7)


@pytest.fixture(scope="session")
def rot3():
    return build_instance("rotation", 3)


@pytest.fixture(scope="session")
def gl2f2():
    return build_instance("general-linear", 2)


@pytest.fixture(scope="session")
def gl2f3():
    return build_instance("general-linear", 3)


@pytest.fixture(scope="session")
def identity3():
    return build_instance(
        "custom", 3, generators=[Mat2.identity(PrimeField(3))], name="identity-f3"
    )


@pytest.fixture(scope="session")
def trivial5():
    return trivial_instance(5)


@pytest.fixture(scope="session")
def borel3_embedded():
    return build_instance("borel-embedded", 3)


@pytest.fixture(scope="session")
def borel5_embedded():
    return build_instance("borel-embedded", 5)


def borel_generators(p: int) -> list[Mat2]:
    fp = PrimeField(p)
    return [
        Mat2.from_values(fp, a, b, 0, d)
        for a in range(1, p)
        for b in range(p)
        for d in range(1, p)
    ]


@pytest.fixture(scope="session")
def borel3_plane():
    return build_instance(
        "custom", 3, generators=borel_generators(3), name="borel-plane-f3"
    )

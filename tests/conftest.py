import pytest


@pytest.fixture(scope="session")
def tmp_work(tmp_path_factory):
    return tmp_path_factory.mktemp("work")

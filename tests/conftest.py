import pytest
from hypothesis import settings

from helpers import churned_records as build_churned_records
from helpers import planted_lifetime_records, synthetic_records, write_fixture_csvs

# A deep run for the exactness properties that read it, chosen with
# --hypothesis-profile=thorough; the default profile is left as it is.
settings.register_profile("thorough", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def country_records():
    return synthetic_records()


@pytest.fixture(scope="session")
def planted_records():
    return planted_lifetime_records()


@pytest.fixture(scope="session")
def churned_records():
    return build_churned_records()


@pytest.fixture()
def fixture_paths(tmp_path, country_records):
    return write_fixture_csvs(country_records, tmp_path)

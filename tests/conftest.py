import pytest
from hypothesis import Phase, settings

from helpers import churned_records as build_churned_records
from helpers import planted_lifetime_records, synthetic_records, write_fixture_csvs

# A deep run for the exactness properties that read it, chosen with
# --hypothesis-profile=thorough; the default profile is left as it is.
# It does not shrink: shrinking a failing record set can take minutes, so
# a failure is reported at once with the example as first found.
settings.register_profile(
    "thorough",
    max_examples=2000,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)


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

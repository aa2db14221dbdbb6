import pytest

from losslin import partition as partition_mod


@pytest.fixture
def region_stats_calls(monkeypatch):
    """Sizes of the partition._region_stats calls made while the test runs."""
    calls = []
    region_stats = partition_mod._region_stats

    def counting(upper, **kwargs):
        calls.append(upper.size)
        return region_stats(upper, **kwargs)

    monkeypatch.setattr(partition_mod, "_region_stats", counting)
    return calls

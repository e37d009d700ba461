"""``--jobs`` below 1 is an argparse usage error on every campaign CLI."""

import argparse

import pytest

from repro.experiments import ablations, campaign, fault_matrix, recovery, runner
from repro.experiments.campaign import positive_int
from repro.search import cli as search_cli

CLIS = {
    "campaign": (campaign.main, []),
    "runner": (runner.main, []),
    "search-falsify": (search_cli.main, ["falsify", "--family", "pedestrian"]),
    "search-explore": (search_cli.main, ["explore", "--family", "pedestrian"]),
    "fault_matrix": (fault_matrix.main, []),
    "recovery": (recovery.main, []),
    "ablations": (ablations.main, []),
}


@pytest.mark.parametrize("value", ["0", "-2", "two"])
@pytest.mark.parametrize("name", sorted(CLIS))
def test_bad_jobs_exits_with_usage_error(name, value, capsys):
    main, prefix = CLIS[name]
    with pytest.raises(SystemExit) as excinfo:
        main([*prefix, "--jobs", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "argument --jobs" in err


def test_positive_int():
    assert positive_int("1") == 1
    assert positive_int("12") == 12
    for bad in ("0", "-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_int(bad)
    for malformed in ("1.5", ""):
        with pytest.raises(ValueError):
            positive_int(malformed)

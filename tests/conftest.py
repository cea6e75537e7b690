"""Fixtures shared across test modules."""

from __future__ import annotations

import functools
import inspect

import pytest

from intgraphs import cli


@pytest.fixture(scope="session")
def campaign_run():
    """Run a campaign at most once per session for each set of arguments.

    ``campaign_run(campaign_functor, bound=3)`` and the CLI's bare
    ``check functor`` name the same run once defaults are filled in, so the
    acceptance criteria and the golden reports share it.  Campaigns are
    deterministic and their results are only read, never changed.
    """
    results = {}

    def run(campaign, **kwargs):
        call = inspect.signature(campaign).bind(**kwargs)
        call.apply_defaults()
        key = (campaign, tuple(call.arguments.items()))
        if key not in results:
            results[key] = campaign(**kwargs)
        return results[key]

    return run


@pytest.fixture
def shared_campaigns(monkeypatch, campaign_run):
    """Route the CLI's campaigns through the session's shared runs."""
    for name, campaign in list(vars(cli).items()):
        if name.startswith("campaign_"):
            monkeypatch.setattr(cli, name, functools.partial(campaign_run, campaign))

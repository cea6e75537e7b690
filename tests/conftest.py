"""Fixtures shared across test modules."""

from __future__ import annotations

import inspect

import pytest


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

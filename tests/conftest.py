"""Shared test helpers."""

import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls to a linremoval callable, undone after the test.

    ``count_calls(home, name, record)`` replaces ``home.name`` and returns
    the list that collects ``record(*args, **kwargs)`` for every call.  A class
    attribute is replaced on the class; a module function is replaced in
    every linremoval module that binds it, since the modules import each
    other's functions by name.
    """

    def count(home, name, record):
        original = getattr(home, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(record(*args, **kwargs))
            return original(*args, **kwargs)

        if isinstance(home, type):
            monkeypatch.setattr(home, name, counted)
            return calls
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] != "linremoval":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
        return calls

    return count

import pytest

from sgp import cli


@pytest.fixture(autouse=True)
def unbound_engine(monkeypatch):
    # every test starts from a cli that has not loaded the engine yet, as a
    # fresh sgp process does, so a path that reads cli.core before _engine
    # binds it fails whatever order the tests run in
    monkeypatch.setattr(cli, "core", None)

"""Fixtures for the service tests."""

import asyncio
import socket
import time

import pytest


@pytest.fixture
def no_wire(monkeypatch):
    """Fail the test on any socket or wall-clock sleep: what runs on the
    simulated driver must need neither."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a simulated-driver test touched the wire "
                             "or the wall clock")

    monkeypatch.setattr(socket, "socket", forbidden)
    monkeypatch.setattr(time, "sleep", forbidden)
    monkeypatch.setattr(asyncio, "sleep", forbidden)

"""Shared fixtures for the nn test package.

``nn_backend`` hands a test the one kernel implementation every layer
calls through (:func:`repro.nn.get_backend`).  It is parametrized by
:func:`repro.nn.backend_name`, so each test id records which
implementation the layer/attention/batched-op suites ran on.
"""

import pytest

from repro import nn


@pytest.fixture(params=[nn.backend_name()])
def nn_backend(request):
    """The kernel implementation under test."""
    return nn.get_backend()

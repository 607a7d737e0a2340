"""Tests for session setup costs (§6.1.1)."""

import pytest

from repro.errors import ProtocolError
from repro.gui import TSE_SETUP, X_SETUP, session_setup


def test_tse_setup_total_matches_paper():
    """Paper: TSE session setup cost 45,328 bytes."""
    assert TSE_SETUP.total_bytes == 45_328


def test_x_setup_total_matches_paper():
    """Paper: Linux/X session setup cost 16,312 bytes."""
    assert X_SETUP.total_bytes == 16_312


def test_lookup():
    assert session_setup("nt_tse") is TSE_SETUP
    assert session_setup("linux") is X_SETUP
    with pytest.raises(ProtocolError):
        session_setup("beos")

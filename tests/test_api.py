"""The public surface: every exported name resolves."""

import nervemp


def test_every_exported_name_resolves():
    missing = [name for name in nervemp.__all__ if not hasattr(nervemp, name)]
    assert missing == []

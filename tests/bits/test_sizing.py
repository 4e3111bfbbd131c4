"""Unit tests for ``id_width``, the width of every fixed-width field."""

import pytest

from repro.bits import id_width
from repro.errors import CodecError


class TestSizingHelpers:
    def test_id_width_matches_paper_log_n(self):
        # id_width(n) = ceil(log2(n+1)); within the paper's O(log n) unit.
        assert id_width(1) == 1
        assert id_width(15) == 4
        assert id_width(16) == 5

    def test_id_width_rejects_zero(self):
        with pytest.raises(CodecError):
            id_width(0)

"""Tests for protocol opcodes and classification."""

from repro.net.protocol import (
    CACHED_WRITE_REWRITE,
    REPLY_FOR,
    Op,
    is_write,
)


class TestClassification:
    def test_get_is_read(self):
        assert not is_write(Op.GET)

    def test_put_delete_are_writes(self):
        for op in (Op.PUT, Op.DELETE, Op.PUT_CACHED, Op.DELETE_CACHED):
            assert is_write(op)


class TestRewrites:
    def test_cached_write_rewrite_covers_writes(self):
        assert CACHED_WRITE_REWRITE[Op.PUT] == Op.PUT_CACHED
        assert CACHED_WRITE_REWRITE[Op.DELETE] == Op.DELETE_CACHED

    def test_reply_for_cached_ops_matches_plain(self):
        assert REPLY_FOR[Op.PUT_CACHED] == REPLY_FOR[Op.PUT]
        assert REPLY_FOR[Op.DELETE_CACHED] == REPLY_FOR[Op.DELETE]

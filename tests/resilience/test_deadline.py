"""Tests for propagated deadlines and cooperative cancellation checkpoints."""

from __future__ import annotations

import time

import pytest

from repro.errors import DeadlineExceeded, is_transient
from repro.resilience import Deadline, current_deadline, deadline_scope
from repro.resilience.deadline import CHECK_STRIDE


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(60.0)
        assert 59.0 < deadline.remaining() <= 60.0
        assert not deadline.expired()

    def test_expired_deadline_check_raises_with_location(self):
        deadline = Deadline.after(0.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("join-loop")
        assert excinfo.value.where == "join-loop"
        assert "join-loop" in str(excinfo.value)

    def test_unexpired_check_is_silent(self):
        Deadline.after(60.0).check("anywhere")

    def test_negative_budget_clamps_to_now(self):
        assert Deadline.after(-5.0).remaining() == 0.0

    def test_union_picks_the_tighter(self):
        near = Deadline.after(1.0)
        far = Deadline.after(60.0)
        assert near.union(far) is near
        assert far.union(near) is near
        assert near.union(None) is near

    def test_deadline_exceeded_is_timeout_but_not_transient(self):
        error = DeadlineExceeded("join")
        assert isinstance(error, TimeoutError)
        assert not is_transient(error)

    def test_checker_only_reads_clock_every_stride(self):
        expired = Deadline(time.monotonic() - 1.0)
        cancel = expired.checker("loop")
        # The first stride-1 calls never consult the clock.
        for _ in range(CHECK_STRIDE - 1):
            cancel()
        with pytest.raises(DeadlineExceeded):
            cancel()

    def test_checker_custom_stride(self):
        expired = Deadline(time.monotonic() - 1.0)
        cancel = expired.checker("loop", stride=4)
        for _ in range(3):
            cancel()
        with pytest.raises(DeadlineExceeded):
            cancel()


class TestDeadlineScope:
    def test_no_ambient_deadline_by_default(self):
        assert current_deadline() is None

    def test_scope_installs_and_resets(self):
        deadline = Deadline.after(10.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_nested_scopes_tighten(self):
        outer = Deadline.after(1.0)
        inner = Deadline.after(60.0)
        with deadline_scope(outer):
            with deadline_scope(inner):
                # A generous inner timeout cannot extend the outer budget.
                assert current_deadline() is outer
            assert current_deadline() is outer

    def test_nested_tighter_scope_wins(self):
        outer = Deadline.after(60.0)
        inner = Deadline.after(1.0)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_none_scope_preserves_ambient(self):
        ambient = Deadline.after(5.0)
        with deadline_scope(ambient):
            with deadline_scope(None):
                assert current_deadline() is ambient

"""Retry helper: backoff shape, budgets, giveup classes, metrics."""

import pytest

from repro.chaos import (
    DEFAULT_RETRY,
    RetryPolicy,
    backoff_s,
    retry_call,
)
from repro.errors import ChaosError
from repro.obs.metrics import get_registry


class TestBackoff:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(base_s=0.01, cap_s=0.04)
        raws = [backoff_s(policy, n) for n in range(1, 6)]
        # jitter scales by [0.5, 1.5), so bound rather than pin
        assert 0.005 <= raws[0] < 0.015
        assert 0.01 <= raws[1] < 0.03
        assert 0.02 <= raws[2] < 0.06
        assert raws[3] < 0.06 and raws[4] < 0.06  # capped

    def test_jitter_is_deterministic(self):
        assert backoff_s(DEFAULT_RETRY, 2, "manifest.write") == \
            backoff_s(DEFAULT_RETRY, 2, "manifest.write")

    def test_jitter_decorrelates_sites_and_attempts(self):
        a = backoff_s(DEFAULT_RETRY, 2, "manifest.write")
        b = backoff_s(DEFAULT_RETRY, 2, "cache.write")
        assert a != b

    def test_bad_policies_raise(self):
        with pytest.raises(ChaosError):
            RetryPolicy(attempts=0)
        with pytest.raises(ChaosError):
            RetryPolicy(base_s=-1)


class TestRetryCall:
    def test_first_success_never_sleeps(self):
        sleeps = []
        result = retry_call(lambda: 42, site="t", sleep=sleeps.append)
        assert result == 42
        assert sleeps == []

    def test_transient_failures_retried_to_success(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        assert retry_call(flaky, site="t", sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_budget_exhaustion_propagates_last_error(self):
        policy = RetryPolicy(attempts=3, base_s=0)

        def always():
            raise OSError("still broken")

        with pytest.raises(OSError, match="still broken"):
            retry_call(always, site="t", policy=policy,
                       sleep=lambda _s: None)

    def test_giveup_classes_bypass_the_budget(self):
        policy = RetryPolicy(attempts=5, base_s=0,
                             giveup_on=(FileNotFoundError,))
        calls = {"n": 0}

        def revoked():
            calls["n"] += 1
            raise FileNotFoundError("lease revoked")

        with pytest.raises(FileNotFoundError):
            retry_call(revoked, site="t", policy=policy,
                       sleep=lambda _s: None)
        assert calls["n"] == 1  # no retries: revoked is not flaky

    def test_unlisted_exceptions_propagate_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_call(broken, site="t", sleep=lambda _s: None)
        assert calls["n"] == 1

    def test_performed_retries_are_counted(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return None

        retry_call(flaky, site="unit.test", sleep=lambda _s: None)
        metric = get_registry().counter(
            "repro_retries_total",
            "Transient failures retried, by site.",
            labels={"site": "unit.test"})
        assert metric.value == 2

"""Unit tests for repro.resilience: fault plans, retry, breakers.

The layer's contract is determinism — every fault decision and every
backoff delay is a pure function of seeds and call coordinates — so
these tests assert reproducibility as much as behavior.
"""

import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    CorruptPageError,
    RetriesExhaustedError,
    SourceTimeoutError,
    TransientSourceError,
)
from repro.resilience import (
    BreakerBoard,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    FaultKind,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    call_with_retry,
    fault_scope,
    inject,
    maybe_fault,
)

NO_WAIT = RetryPolicy(base_delay=0.0, max_delay=0.0, jitter=0.0)


# -- fault plans ----------------------------------------------------------------


class TestFaultPlanParse:
    def test_parses_every_clause(self):
        plan = FaultPlan.parse(
            "rate=0.25;fail_first=2;permanent=sy+IR;seed=9;"
            "kinds=error+timeout;sites=platform.signal")
        assert plan.rate == 0.25
        assert plan.fail_first == 2
        assert plan.permanent == ("IR", "SY")
        assert plan.seed == 9
        assert plan.kinds == (FaultKind.ERROR, FaultKind.TIMEOUT)
        assert plan.sites == ("platform.signal",)

    def test_empty_spec_is_empty_plan(self):
        assert FaultPlan.parse("").empty
        assert not FaultPlan.parse("fail_first=1").empty
        assert not FaultPlan.parse("permanent=SY").empty
        assert not FaultPlan.parse("rate=0.5").empty

    @pytest.mark.parametrize("spec", [
        "rate", "rate=", "frequency=0.5", "kinds=exploded", "rate=1.5",
        "fail_first=-1",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(spec)


class TestFaultPlanDecide:
    def test_decision_is_pure(self):
        plan = FaultPlan(rate=0.5, seed=11)
        first = [plan.decide("site", "SY", 0, i) for i in range(50)]
        again = [plan.decide("site", "SY", 0, i) for i in range(50)]
        assert first == again
        assert any(first)      # rate=0.5 over 50 draws
        assert not all(first)

    def test_fail_first_faults_exactly_first_attempts(self):
        plan = FaultPlan(fail_first=2)
        assert plan.decide("s", "SY", 0, 0) is not None
        assert plan.decide("s", "SY", 1, 0) is not None
        assert plan.decide("s", "SY", 2, 0) is None
        # Only the first call of a faulting attempt faults.
        assert plan.decide("s", "SY", 0, 1) is None

    def test_permanent_key_always_faults(self):
        plan = FaultPlan(permanent=("SY",))
        assert all(plan.decide("s", "SY", attempt, 0) is not None
                   for attempt in range(10))
        assert plan.decide("s", "IR", 0, 0) is None

    def test_sites_filter(self):
        plan = FaultPlan(fail_first=1, sites=("platform.signal",))
        assert plan.decide("platform.signal", "SY", 0, 0) is not None
        assert plan.decide("datasets.load", "SY", 0, 0) is None


class TestMaybeFault:
    def test_noop_without_plan(self):
        with fault_scope("SY"):
            maybe_fault("site")  # must not raise

    def test_raises_typed_exception_under_plan(self):
        plan = FaultPlan(fail_first=1, kinds=(FaultKind.TIMEOUT,))
        with inject(plan), fault_scope("SY", attempt=0):
            with pytest.raises(SourceTimeoutError):
                maybe_fault("site")

    def test_kind_maps_to_exception_class(self):
        for kind, exc in ((FaultKind.ERROR, TransientSourceError),
                          (FaultKind.TIMEOUT, SourceTimeoutError),
                          (FaultKind.CORRUPT, CorruptPageError)):
            plan = FaultPlan(fail_first=1, kinds=(kind,))
            with inject(plan), fault_scope("SY"):
                with pytest.raises(exc):
                    maybe_fault("site")

    def test_without_scope_uses_fallback_key(self):
        plan = FaultPlan(permanent=("FEED",))
        with inject(plan):
            maybe_fault("site")  # no scope, no key: inert
            with pytest.raises(TransientSourceError):
                maybe_fault("site", key="FEED")

    def test_injection_is_scoped(self):
        plan = FaultPlan(fail_first=5)
        with inject(plan):
            pass
        with fault_scope("SY"):
            maybe_fault("site")  # plan uninstalled: must not raise


# -- retry ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.delays("SY") == policy.delays("SY")
        assert policy.delays("SY") != policy.delays("IR")
        assert RetryPolicy(seed=8).delays("SY") != policy.delays("SY")

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_retries=6, base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0)
        delays = policy.delays("SY")
        assert delays == (0.1, 0.2, 0.4, 0.5, 0.5, 0.5)

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(max_retries=8, base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.5)
        assert all(1.0 <= d <= 1.5 for d in policy.delays("SY"))

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1}, {"base_delay": -0.1}, {"multiplier": 0.5},
        {"jitter": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestCallWithRetry:
    def test_recovers_after_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(len(attempts))
            if len(attempts) < 3:
                raise TransientSourceError("boom")
            return "ok"

        slept = []
        assert call_with_retry(flaky, policy=RetryPolicy(seed=3), key="SY",
                               site="test", sleeper=slept.append) == "ok"
        assert len(attempts) == 3
        # Slept exactly the policy's deterministic schedule prefix.
        assert tuple(slept) == RetryPolicy(seed=3).delays("SY")[:2]

    def test_exhaustion_raises_with_cause(self):
        def dead():
            raise SourceTimeoutError("down")

        with pytest.raises(RetriesExhaustedError) as info:
            call_with_retry(dead, policy=NO_WAIT, key="SY", site="test")
        assert isinstance(info.value.__cause__, SourceTimeoutError)

    def test_non_transient_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("bug, not weather")

        with pytest.raises(ValueError):
            call_with_retry(broken, policy=NO_WAIT, key="SY", site="test")
        assert len(calls) == 1

    def test_attempts_run_in_fault_scopes(self):
        # fail_first=2 is only recoverable if each attempt opens a scope
        # carrying the right attempt number.
        plan = FaultPlan(fail_first=2)

        def guarded():
            maybe_fault("test.site")
            return "ok"

        with inject(plan):
            assert call_with_retry(guarded, policy=NO_WAIT, key="SY",
                                   site="test") == "ok"


# -- breakers -------------------------------------------------------------------


class TestCircuitBreaker:
    def test_full_transition_cycle(self):
        policy = BreakerPolicy(failure_threshold=2, cooldown_calls=2,
                               half_open_successes=1)
        breaker = CircuitBreaker(policy, source="SY")
        assert breaker.state is BreakerState.CLOSED

        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

        # Open: rejects for cooldown_calls, then half-opens.
        assert not breaker.allow()
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN

        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        policy = BreakerPolicy(failure_threshold=1, cooldown_calls=1,
                               half_open_successes=1)
        breaker = CircuitBreaker(policy)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.allow()  # cooldown of 1: straight to half-open
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_successes_reset_failure_streak(self):
        policy = BreakerPolicy(failure_threshold=2)
        breaker = CircuitBreaker(policy)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_board_tracks_open_sources(self):
        board = BreakerBoard(BreakerPolicy(failure_threshold=1))
        assert board.get("SY") is board.get("SY")
        board.get("SY").record_failure()
        assert board.get("SY").state is BreakerState.OPEN

    def test_retry_respects_open_breaker(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, cooldown_calls=5),
            source="SY")
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            call_with_retry(lambda: "never", policy=NO_WAIT, key="SY",
                            site="test", breaker=breaker)


# -- config ---------------------------------------------------------------------


class TestResilienceConfig:
    def test_spec_string_is_parsed(self):
        config = ResilienceConfig(faults="fail_first=2;seed=5")
        assert isinstance(config.faults, FaultPlan)
        assert config.fault_plan is not None
        assert config.fault_plan.fail_first == 2

    def test_no_faults_means_no_plan(self):
        assert ResilienceConfig().fault_plan is None
        assert ResilienceConfig(faults="").fault_plan is None

    def test_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(faults=42)  # type: ignore[arg-type]

"""Deterministic fault injection (repro.faults)."""

import json

import pytest

from repro import faults
from repro.faults import (
    FAULT_POINTS,
    HEAVY_CHAOS,
    LIGHT_CHAOS,
    NO_FAULTS,
    FaultInjector,
    FaultProfile,
    get_injector,
    use_faults,
)
from repro.obs.metrics import get_registry
from repro.obs.tracer import Tracer, use_tracer


class TestFaultProfile:
    def test_off_by_default(self):
        profile = FaultProfile()
        assert not profile.enabled
        assert all(profile.rate(p) == 0.0 for p in FAULT_POINTS)

    def test_presets(self):
        assert not FaultProfile.named("off").enabled
        assert LIGHT_CHAOS.enabled and HEAVY_CHAOS.enabled
        for point in FAULT_POINTS:
            assert HEAVY_CHAOS.rate(point) >= LIGHT_CHAOS.rate(point)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            FaultProfile.named("apocalyptic")

    def test_unknown_point_rejected(self):
        with pytest.raises(KeyError):
            NO_FAULTS.rate("reactor.meltdown")

    def test_with_rates(self):
        profile = NO_FAULTS.with_rates(sandbox_drop=0.5)
        assert profile.rate(faults.SANDBOX_DROP) == 0.5
        assert profile.enabled
        assert not NO_FAULTS.enabled  # frozen: original untouched

    def test_from_env_preset(self):
        profile = FaultProfile.from_env({"REPRO_FAULT_PROFILE": "light"}, seed=3)
        assert profile.as_dict() == FaultProfile.named("light", seed=3).as_dict()

    def test_from_env_json_map(self):
        # names that are not fault-profile fields (here a removed fault
        # point) are ignored rather than failing the run
        env = {"REPRO_FAULT_PROFILE": json.dumps(
            {"checkpoint_corrupt": 0.25, "storage_bit_flip": 0.5})}
        profile = FaultProfile.from_env(env)
        assert profile.rate(faults.CHECKPOINT_CORRUPT) == 0.25
        assert profile.rate(faults.SANDBOX_DROP) == 0.0

    def test_from_env_garbage_degrades_to_off(self):
        for value in ("{not json", "explode", "{\"sandbox_drop\": \"NaNcy\"}"):
            assert not FaultProfile.from_env({"REPRO_FAULT_PROFILE": value}).enabled

    def test_from_env_unset_is_off(self):
        assert not FaultProfile.from_env({}).enabled


class TestFaultInjector:
    def test_zero_rate_never_fires_and_draws_nothing(self):
        injector = FaultInjector(NO_FAULTS)
        for _ in range(50):
            assert not injector.fire(faults.SANDBOX_DROP)
        assert injector._streams == {}  # short-circuited before any RNG
        assert injector.schedule() == {}

    def test_rate_one_always_fires(self):
        injector = FaultInjector(NO_FAULTS.with_rates(sandbox_5xx=1.0))
        assert all(injector.fire(faults.SANDBOX_5XX) for _ in range(10))
        assert injector.schedule() == {faults.SANDBOX_5XX: 10}

    def test_same_profile_same_schedule(self):
        profile = FaultProfile.named("light", seed=11)
        a = [FaultInjector(profile).fire(faults.CHECKPOINT_CORRUPT) for _ in range(1)]
        run = lambda: [
            inj.fire(point)
            for inj in [FaultInjector(profile)]
            for point in FAULT_POINTS * 40
        ]
        assert run() == run()

    def test_different_seed_different_schedule(self):
        draws = lambda seed: [
            FaultInjector(FaultProfile.named("light", seed=seed))._stream(
                faults.SANDBOX_DROP
            ).uniform()
            for _ in range(1)
        ]
        assert draws(1) != draws(2)

    def test_per_point_streams_independent(self):
        """Exercising one point never perturbs another's schedule."""
        profile = FaultProfile.named("heavy", seed=5)
        a = FaultInjector(profile)
        b = FaultInjector(profile)
        for _ in range(100):  # a burns lots of draws on an unrelated point
            a.fire(faults.SANDBOX_DROP)
        seq_a = [a.fire(faults.CHECKPOINT_CORRUPT) for _ in range(50)]
        seq_b = [b.fire(faults.CHECKPOINT_CORRUPT) for _ in range(50)]
        assert seq_a == seq_b

    def test_fire_counts_into_registry(self):
        registry = get_registry()
        before = registry.snapshot()["counters"].get("faults.injected", 0)
        injector = FaultInjector(NO_FAULTS.with_rates(sandbox_drop=1.0))
        injector.fire(faults.SANDBOX_DROP)
        after = registry.snapshot()["counters"]
        assert after["faults.injected"] == before + 1
        assert after[f"faults.{faults.SANDBOX_DROP}"] >= 1

    def test_fire_stamps_current_span(self):
        injector = FaultInjector(NO_FAULTS.with_rates(sandbox_garbage=1.0))
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("outer"):
            injector.fire(faults.SANDBOX_GARBAGE)
            injector.fire(faults.SANDBOX_GARBAGE)
        span = tracer.span_dicts()[0]
        assert span["attributes"]["faults"] == 2
        assert span["attributes"][f"fault.{faults.SANDBOX_GARBAGE}"] == 2


class TestCorruptionHelpers:
    def test_flip_bit_changes_exactly_one_bit(self):
        injector = FaultInjector(FaultProfile(seed=9))
        data = bytes(range(64))
        flipped = injector.flip_bit(faults.CHECKPOINT_CORRUPT, data)
        assert len(flipped) == len(data)
        diff = [i for i, (x, y) in enumerate(zip(data, flipped)) if x != y]
        assert len(diff) == 1
        assert bin(data[diff[0]] ^ flipped[diff[0]]).count("1") == 1

    def test_flip_bit_deterministic(self):
        data = b"hello checkpoint blob"
        one = FaultInjector(FaultProfile(seed=4)).flip_bit(faults.CHECKPOINT_CORRUPT, data)
        two = FaultInjector(FaultProfile(seed=4)).flip_bit(faults.CHECKPOINT_CORRUPT, data)
        assert one == two != data

    def test_truncate_strictly_shorter(self):
        injector = FaultInjector(FaultProfile(seed=2))
        data = bytes(100)
        torn = injector.truncate(faults.STORAGE_TORN_WRITE, data)
        assert len(torn) < len(data)
        assert data.startswith(torn)

    def test_empty_payloads_pass_through(self):
        injector = FaultInjector(FaultProfile(seed=2))
        assert injector.flip_bit(faults.CHECKPOINT_CORRUPT, b"") == b""
        assert injector.truncate(faults.STORAGE_TORN_WRITE, b"") == b""


class TestAmbientInjector:
    def test_default_is_inert(self):
        assert get_injector() is faults.NULL_INJECTOR
        assert not get_injector().enabled

    def test_use_faults_scopes_activation(self):
        injector = FaultInjector(LIGHT_CHAOS)
        with use_faults(injector) as active:
            assert active is injector
            assert get_injector() is injector
        assert get_injector() is faults.NULL_INJECTOR

    def test_nesting_restores_outer(self):
        outer, inner = FaultInjector(LIGHT_CHAOS), FaultInjector(HEAVY_CHAOS)
        with use_faults(outer):
            with use_faults(inner):
                assert get_injector() is inner
            assert get_injector() is outer

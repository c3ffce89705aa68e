"""Tests for the seeded disk-fault plan and the bitrot injector."""

import pytest

from repro.errors import ConfigError
from repro.faults.storage import (
    InjectedStorageFaults,
    SimulatedCrash,
    StorageFaultPlan,
    flip_bits,
)


class TestPlanValidation:
    @pytest.mark.parametrize("field", ["eio_rate", "fsync_lie_rate"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rates_bounded(self, field, value):
        with pytest.raises(ConfigError):
            StorageFaultPlan(**{field: value})

    @pytest.mark.parametrize(
        "field", ["enospc_at", "torn_write_at", "crash_at"]
    )
    def test_point_faults_non_negative(self, field):
        with pytest.raises(ConfigError):
            StorageFaultPlan(**{field: -1})

    def test_negative_budgets_rejected(self):
        with pytest.raises(ConfigError):
            StorageFaultPlan(max_eio_per_path=-1)
        with pytest.raises(ConfigError):
            StorageFaultPlan(bitrot_flips=-1)

    def test_any_faults(self):
        assert not StorageFaultPlan.none().any_faults
        assert StorageFaultPlan.chaos().any_faults
        assert StorageFaultPlan(crash_at=0).any_faults
        assert StorageFaultPlan(bitrot_flips=1).any_faults

    def test_describe_mentions_active_faults(self):
        text = StorageFaultPlan(seed=9, eio_rate=0.5, crash_at=3).describe()
        assert "seed=9" in text
        assert "eio_rate=0.5" in text
        assert "crash_at=3" in text
        assert "no faults" in StorageFaultPlan.none().describe()


class TestDeterminism:
    def test_eio_decisions_replay(self):
        plan = StorageFaultPlan(seed=4, eio_rate=0.3)
        draws = [plan.transient_eio("write", i) for i in range(200)]
        again = [plan.transient_eio("write", i) for i in range(200)]
        assert draws == again
        assert any(draws) and not all(draws)

    def test_eio_depends_on_operation_and_seed(self):
        plan = StorageFaultPlan(seed=4, eio_rate=0.3)
        other_op = [plan.transient_eio("fsync", i) for i in range(200)]
        other_seed = [
            StorageFaultPlan(seed=5, eio_rate=0.3).transient_eio("write", i)
            for i in range(200)
        ]
        base = [plan.transient_eio("write", i) for i in range(200)]
        assert base != other_op
        assert base != other_seed

    def test_fsync_lie_replays(self):
        plan = StorageFaultPlan(seed=4, fsync_lie_rate=0.5)
        draws = [plan.fsync_lie(i) for i in range(100)]
        assert draws == [plan.fsync_lie(i) for i in range(100)]
        assert any(draws) and not all(draws)

    def test_zero_rates_never_fire(self):
        plan = StorageFaultPlan.none()
        assert not any(plan.transient_eio("write", i) for i in range(50))
        assert not any(plan.fsync_lie(i) for i in range(50))

    def test_negative_index_rejected(self):
        plan = StorageFaultPlan(eio_rate=0.5, fsync_lie_rate=0.5)
        with pytest.raises(ConfigError):
            plan.transient_eio("write", -1)
        with pytest.raises(ConfigError):
            plan.fsync_lie(-1)

    def test_torn_length_is_strict_prefix(self):
        plan = StorageFaultPlan(seed=11)
        for length in (1, 2, 64, 1000):
            keep = plan.torn_length(3, length)
            assert 0 <= keep < length
            assert keep == plan.torn_length(3, length)
        assert plan.torn_length(3, 0) == 0


class TestSimulatedCrash:
    def test_is_not_an_exception(self):
        # `except Exception` recovery code must not swallow power loss.
        assert issubclass(SimulatedCrash, BaseException)
        assert not issubclass(SimulatedCrash, Exception)


class TestFlipBits:
    def test_deterministic_and_reported(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        content = b'{"r": 0}\n{"r": 1}\n{"r": 2}\n'
        a.write_bytes(content)
        b.write_bytes(content)
        offsets_a = flip_bits(str(a), seed=7, flips=3)
        offsets_b = flip_bits(str(b), seed=7, flips=3)
        assert offsets_a == offsets_b
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != content
        assert len(offsets_a) == 3
        assert offsets_a == tuple(sorted(offsets_a))

    def test_preserves_record_framing(self, tmp_path):
        path = tmp_path / "f.jsonl"
        content = b'{"r": 0}\n{"r": 1}\n{"r": 2}\n'
        path.write_bytes(content)
        flip_bits(str(path), seed=1, flips=8)
        damaged = path.read_bytes()
        assert damaged.count(b"\n") == content.count(b"\n")
        assert len(damaged) == len(content)

    def test_zero_flips_noop(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b"data\n")
        assert flip_bits(str(path), seed=1, flips=0) == ()
        assert path.read_bytes() == b"data\n"

    def test_negative_flips_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b"data\n")
        with pytest.raises(ConfigError):
            flip_bits(str(path), seed=1, flips=-1)

    def test_small_file_caps_flips(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b"ab\n")
        offsets = flip_bits(str(path), seed=1, flips=50)
        assert len(offsets) <= 2  # newline byte is never touched


def test_injected_counters_render():
    injected = InjectedStorageFaults(eio=2, crashes=1)
    rows = dict(injected.as_rows())
    assert rows["transient EIO injected"] == "2"
    assert rows["crashes injected"] == "1"

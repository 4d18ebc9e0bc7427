"""FaultSpec validation, timing helpers and JSON round trip."""

import math
from pathlib import Path

import pytest

from repro.analysis import lint_shard_source
from repro.errors import FaultError, FaultSpecError, ReproError
from repro.faults import MAGNITUDE_WINDOWS, FaultKind, FaultSpec


def spec(**kw):
    defaults = dict(
        kind=FaultKind.CAVITY_FAILURE, magnitude=0.5, onset_time=1.0e-3
    )
    defaults.update(kw)
    return FaultSpec(**defaults)


class TestValidation:
    def test_valid_spec_constructs(self):
        s = spec(duration=2e-3, target=3, seed=7, label="sweep-a")
        assert s.kind is FaultKind.CAVITY_FAILURE
        assert s.is_transient()

    def test_error_hierarchy(self):
        assert issubclass(FaultSpecError, FaultError)
        assert issubclass(FaultError, ReproError)

    def test_kind_must_be_enum(self):
        with pytest.raises(FaultSpecError):
            spec(kind="cavity_failure")

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf])
    def test_magnitude_must_be_finite(self, magnitude):
        with pytest.raises(FaultSpecError):
            spec(magnitude=magnitude)

    def test_magnitude_window_per_kind(self):
        with pytest.raises(FaultSpecError):
            spec(kind=FaultKind.CAVITY_FAILURE, magnitude=1.5)
        with pytest.raises(FaultSpecError):
            spec(kind=FaultKind.DAC_CLIPPING, magnitude=-0.1)
        with pytest.raises(FaultSpecError):
            spec(kind=FaultKind.DDS_PHASE_GLITCH, magnitude=4.0)

    def test_integral_magnitudes(self):
        assert spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=13.0).magnitude == 13.0
        with pytest.raises(FaultSpecError):
            spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=3.5)
        with pytest.raises(FaultSpecError):
            spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=40.0)

    def test_timing_validation(self):
        with pytest.raises(FaultSpecError):
            spec(onset_time=-1.0)
        with pytest.raises(FaultSpecError):
            spec(onset_time=math.inf)
        with pytest.raises(FaultSpecError):
            spec(duration=0.0)
        with pytest.raises(FaultSpecError):
            spec(duration=-2.0)

    def test_target_and_seed_validation(self):
        with pytest.raises(FaultSpecError):
            spec(target=-1)
        with pytest.raises(FaultSpecError):
            spec(target=1.5)
        with pytest.raises(FaultSpecError):
            spec(seed=-3)

    def test_every_kind_has_a_window(self):
        assert set(MAGNITUDE_WINDOWS) == set(FaultKind)


class TestBehaviour:
    def test_active_window(self):
        s = spec(onset_time=1.0, duration=0.5)
        assert not s.active_at(0.99)
        assert s.active_at(1.0)
        assert s.active_at(1.49)
        assert not s.active_at(1.5)

    def test_permanent_fault_active_forever(self):
        s = spec(onset_time=1.0, duration=None)
        assert not s.is_transient()
        assert s.active_at(1e9)

    def test_frozen(self):
        with pytest.raises(Exception):
            spec().magnitude = 0.9  # type: ignore[misc]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_json_round_trip_every_kind(self, kind):
        low, high, integral = MAGNITUDE_WINDOWS[kind]
        magnitude = 1.0 if integral else min(max(low, 0.25), high)
        s = FaultSpec(kind=kind, magnitude=magnitude, onset_time=2e-3,
                      duration=1e-3, target=1, seed=11, label="rt")
        assert FaultSpec.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_fields(self):
        payload = spec().to_dict()
        payload["surprise"] = 1
        with pytest.raises(FaultSpecError):
            FaultSpec.from_dict(payload)

    def test_from_dict_rejects_unknown_kind(self):
        payload = spec().to_dict()
        payload["kind"] = "gremlins"
        with pytest.raises(FaultSpecError):
            FaultSpec.from_dict(payload)

    @pytest.mark.parametrize("field", ["kind", "magnitude", "onset_time"])
    def test_from_dict_rejects_missing_fields(self, field):
        payload = spec().to_dict()
        del payload[field]
        with pytest.raises(FaultSpecError, match=f"missing FaultSpec fields: \\['{field}'\\]"):
            FaultSpec.from_dict(payload)

    def test_from_dict_revalidates(self):
        payload = spec().to_dict()
        payload["magnitude"] = 99.0
        with pytest.raises(FaultSpecError):
            FaultSpec.from_dict(payload)


class TestShardSafety:
    def test_faults_package_passes_shardlint(self):
        """The second real shardlint consumer must itself be clean."""
        import repro.faults

        root = Path(repro.faults.__file__).parent
        for path in sorted(root.glob("*.py")):
            report = lint_shard_source(path.read_text(), str(path))
            assert len(report) == 0, (
                f"{path} flagged: " + "; ".join(d.render() for d in report)
            )

    def test_spec_pickles(self):
        import pickle

        s = spec(seed=5)
        assert pickle.loads(pickle.dumps(s)) == s

"""Run-cache behaviour: hit/miss, invalidation, escape hatches."""

import dataclasses
import pickle

import pytest

from repro.experiments import runcache
from repro.sim.knobs import KnobSet

CALLS = []

#: per KnobSet field: the environment knob and a value that flips the
#: field away from its default
KNOB_FLIPS = {
    "kernel": ("REPRO_KERNEL", "off"),
    "uncore": ("REPRO_UNCORE", "off"),
    "ddio": ("REPRO_DDIO", "1"),
    "bank_reg": ("REPRO_BANK_REG", "1"),
    "validate": ("REPRO_VALIDATE", "1"),
}


def _expensive(x, y=1):
    """Module-level (picklable) stand-in for a simulation run."""
    CALLS.append((x, y))
    return {"value": x * y}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    CALLS.clear()
    yield tmp_path


class TestKeying:
    def test_key_is_deterministic(self):
        assert runcache.key_for(_expensive, (3,), {"y": 2}) == runcache.key_for(
            _expensive, (3,), {"y": 2}
        )

    def test_key_changes_with_args(self):
        base = runcache.key_for(_expensive, (3,), {})
        assert runcache.key_for(_expensive, (4,), {}) != base
        assert runcache.key_for(_expensive, (3,), {"y": 5}) != base

    def test_key_changes_with_code_version(self, monkeypatch):
        base = runcache.key_for(_expensive, (3,), {})
        monkeypatch.setattr(runcache, "_code_fingerprint", "different-version")
        assert runcache.key_for(_expensive, (3,), {}) != base

    def test_unpicklable_spec_returns_none(self):
        assert runcache.key_for(lambda: None) is None

    def test_disabled_returns_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert runcache.key_for(_expensive, (3,), {}) is None

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(KnobSet)])
    def test_every_knob_hashed_into_key(self, field, monkeypatch):
        """Results under different knobs must never replay each
        other's cache entries, including the float-identical kernels
        (a cached result must not mask a divergence)."""
        for env, _ in KNOB_FLIPS.values():
            monkeypatch.delenv(env, raising=False)
        default = KnobSet.resolve()
        base = runcache.key_for(len, ("workload",))
        env, value = KNOB_FLIPS[field]
        monkeypatch.setenv(env, value)
        assert getattr(KnobSet.resolve(), field) != getattr(default, field)
        flipped = runcache.key_for(len, ("workload",))
        assert flipped is not None and flipped != base
        monkeypatch.delenv(env)
        assert runcache.key_for(len, ("workload",)) == base


class TestRoundTrip:
    def test_miss_then_hit(self):
        key = runcache.key_for(_expensive, (3,), {"y": 2})
        hit, _ = runcache.get(key)
        assert not hit
        runcache.put(key, {"value": 6})
        hit, value = runcache.get(key)
        assert hit and value == {"value": 6}

    def test_cached_call_executes_once(self):
        first = runcache.cached_call(_expensive, 3, y=2)
        second = runcache.cached_call(_expensive, 3, y=2)
        assert first == second == {"value": 6}
        assert CALLS == [(3, 2)]

    def test_parameter_change_is_a_miss(self):
        runcache.cached_call(_expensive, 3, y=2)
        runcache.cached_call(_expensive, 3, y=4)
        assert CALLS == [(3, 2), (3, 4)]

    def test_disabled_cache_always_executes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        runcache.cached_call(_expensive, 3, y=2)
        runcache.cached_call(_expensive, 3, y=2)
        assert CALLS == [(3, 2), (3, 2)]

    def test_corrupt_entry_is_a_miss_and_removed(self, isolated_cache):
        key = runcache.key_for(_expensive, (3,), {})
        runcache.put(key, {"value": 3})
        path = runcache._path_for(key)
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning):
            hit, _ = runcache.get(key)
        assert not hit
        assert not path.exists()

    def test_entries_land_under_cache_dir(self, isolated_cache):
        runcache.cached_call(_expensive, 3, y=2)
        entries = [
            p for p in isolated_cache.rglob("*.pkl")
            if "quarantine" not in p.parts
        ]
        assert len(entries) == 1
        ok, value = runcache.decode_blob(entries[0].read_bytes())
        assert ok and value == {"value": 6}


class TestIntegrity:
    def test_blob_round_trip(self):
        blob = runcache.encode_blob({"value": 6})
        assert runcache.decode_blob(blob) == (True, {"value": 6})

    def test_decode_rejects_bad_magic_and_checksum(self):
        blob = runcache.encode_blob([1, 2, 3])
        assert runcache.decode_blob(b"XXXX" + blob[4:]) == (False, None)
        flipped = bytearray(blob)
        flipped[-1] ^= 0xFF
        assert runcache.decode_blob(bytes(flipped)) == (False, None)
        assert runcache.decode_blob(b"") == (False, None)
        assert runcache.decode_blob(blob[:10]) == (False, None)

    def test_truncated_entry_is_quarantined_and_recomputed(self, isolated_cache):
        """Bit rot / torn writes: the checksum catches the damage, the
        evidence moves to quarantine/ (not silently deleted), and the
        run is recomputed and re-cached."""
        runcache.cached_call(_expensive, 3, y=2)
        key = runcache.key_for(_expensive, (3,), {"y": 2})
        path = runcache._path_for(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.warns(RuntimeWarning, match="quarantine"):
            value = runcache.cached_call(_expensive, 3, y=2)
        assert value == {"value": 6}
        assert CALLS == [(3, 2), (3, 2)]  # recomputed exactly once
        quarantined = list((isolated_cache / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [path.name]
        # The recompute re-populated the cache with a healthy entry.
        hit, value = runcache.get(key)
        assert hit and value == {"value": 6}

    def test_legacy_unchecksummed_entry_is_quarantined(self, isolated_cache):
        key = runcache.key_for(_expensive, (4,), {})
        path = runcache._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"value": 4}))  # pre-RRC1 format
        with pytest.warns(RuntimeWarning, match="corrupt"):
            hit, _ = runcache.get(key)
        assert not hit
        assert (isolated_cache / "quarantine" / path.name).exists()

"""Property tests for the persistent artifact cache.

Two families of guarantees (docs/performance.md):

* **Key purity** — a cache key is a pure function of its inputs: equal
  inputs give equal keys, and changing ANY single input (source text,
  pass spec, optimize flag, dataset, effective limits, repro version)
  changes the key.  This is what makes "cache hit" mean "provably the
  same computation".
* **Integrity** — an entry read back from disk is either byte-perfect or
  treated as a miss: truncation, bit flips, garbage, stale
  schema/version, and key/kind mismatches are all detected, evicted, and
  recomputed.  A corrupted cache can cost time, never correctness.
"""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.cache import (
    ArtifactCache, CACHE_SCHEMA, _MAGIC, compile_key, run_key, sequence_key,
)

# -- strategies ---------------------------------------------------------------

names = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                min_size=1, max_size=20)
sources = st.text(max_size=200)
pass_specs = st.lists(names, max_size=4).map(tuple)
inputs_vectors = st.lists(st.integers(-2**31, 2**31 - 1), max_size=8).map(tuple)
fuel_budgets = st.integers(1, 10**12)
prediction_maps = st.dictionaries(
    st.sampled_from(["Loop+Rand", "Heuristic", "Perfect"]),
    st.dictionaries(st.integers(0, 2**32 - 1), st.booleans(),
                    min_size=1, max_size=8),
    min_size=1)
memory_caps = st.one_of(st.none(), st.integers(4096, 2**40))
payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=30)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12)


# -- key purity ---------------------------------------------------------------

@given(benchmark=names, source=sources, optimize=st.booleans(),
       spec=pass_specs)
def test_compile_key_is_deterministic(benchmark, source, optimize, spec):
    k1 = compile_key(benchmark, source, optimize, pass_spec=spec)
    k2 = compile_key(benchmark, source, optimize, pass_spec=spec)
    assert k1 == k2
    assert len(k1) == 64 and all(c in "0123456789abcdef" for c in k1)


@given(benchmark=names, source=sources, other=sources, spec=pass_specs)
def test_compile_key_depends_on_source(benchmark, source, other, spec):
    if source == other:
        return
    assert (compile_key(benchmark, source, True, pass_spec=spec)
            != compile_key(benchmark, other, True, pass_spec=spec))


@given(benchmark=names, source=sources, spec=pass_specs,
       other_spec=pass_specs)
def test_compile_key_depends_on_pass_spec(benchmark, source, spec,
                                          other_spec):
    if spec == other_spec:
        return
    assert (compile_key(benchmark, source, True, pass_spec=spec)
            != compile_key(benchmark, source, True, pass_spec=other_spec))


@given(benchmark=names, source=sources, spec=pass_specs)
def test_compile_key_depends_on_version(benchmark, source, spec):
    assert (compile_key(benchmark, source, True, pass_spec=spec,
                        version="1.0.0")
            != compile_key(benchmark, source, True, pass_spec=spec,
                           version="1.0.1"))


@given(dataset=names, inputs=inputs_vectors, fuel=fuel_budgets,
       memory=memory_caps, retry=st.integers(1, 10))
def test_run_key_is_deterministic(dataset, inputs, fuel, memory, retry):
    k1 = run_key("c" * 64, dataset, inputs, fuel, memory, retry)
    k2 = run_key("c" * 64, dataset, inputs, fuel, memory, retry)
    assert k1 == k2


@given(dataset=names, inputs=inputs_vectors, fuel=fuel_budgets,
       fuel2=fuel_budgets, memory=memory_caps)
def test_run_key_depends_on_fuel_budget(dataset, inputs, fuel, fuel2,
                                        memory):
    if fuel == fuel2:
        return
    assert (run_key("c" * 64, dataset, inputs, fuel, memory, 1)
            != run_key("c" * 64, dataset, inputs, fuel2, memory, 1))


@given(dataset=names, inputs=inputs_vectors, other=inputs_vectors,
       fuel=fuel_budgets)
def test_run_key_depends_on_inputs(dataset, inputs, other, fuel):
    if inputs == other:
        return
    assert (run_key("c" * 64, dataset, inputs, fuel, None, 1)
            != run_key("c" * 64, dataset, other, fuel, None, 1))


def test_run_key_depends_on_every_scalar_field():
    base = dict(compile_digest="c" * 64, dataset="ref", inputs=(1, 2),
                fuel_budget=1000, max_memory_bytes=None,
                retry_fuel_factor=1)
    k0 = run_key(**base)
    for field, value in [("compile_digest", "d" * 64), ("dataset", "small"),
                         ("inputs", (1, 2, 3)), ("fuel_budget", 1001),
                         ("max_memory_bytes", 4096),
                         ("retry_fuel_factor", 4), ("engine", "tier0")]:
        assert run_key(**{**base, field: value}) != k0, field


@given(predictions=prediction_maps)
def test_sequence_key_is_deterministic(predictions):
    """Only the content of the maps counts, not their insertion order."""
    shuffled = {label: dict(reversed(preds.items()))
                for label, preds in reversed(predictions.items())}
    assert (sequence_key("r" * 64, predictions)
            == sequence_key("r" * 64, shuffled))


@given(predictions=prediction_maps, data=st.data())
def test_sequence_key_depends_on_every_prediction_bit(predictions, data):
    label = data.draw(st.sampled_from(sorted(predictions)))
    address = data.draw(st.sampled_from(sorted(predictions[label])))
    preds = predictions[label]
    flipped = {**predictions,
               label: {**preds, address: not preds[address]}}
    assert (sequence_key("r" * 64, flipped)
            != sequence_key("r" * 64, predictions))


def test_sequence_key_depends_on_the_run_key():
    """Engine, effective inputs, and every other run-key field carry
    over through the run key."""
    base = dict(compile_digest="c" * 64, dataset="ref", inputs=(1, 2),
                fuel_budget=1000, max_memory_bytes=None,
                retry_fuel_factor=1)
    preds = {"Perfect": {0x400000: True}}
    k0 = sequence_key(run_key(**base), preds)
    for field, value in [("engine", "tier0"), ("inputs", (1,)),
                         ("fuel_budget", 1001), ("max_memory_bytes", 4096)]:
        assert sequence_key(run_key(**{**base, field: value}), preds) \
            != k0, field
    assert sequence_key(run_key(**base), preds, version="0.0.0") != k0
    assert k0 != run_key(**base)


# -- integrity ----------------------------------------------------------------

@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def test_roundtrip(cache):
    key = compile_key("queens", "src", True, pass_spec=("a",))
    payload = {"ok": True, "data": [1, 2, 3]}
    assert cache.put(key, "compile", payload)
    assert cache.get(key, "compile") == payload
    assert cache.stats()["hits"] == 1


@settings(max_examples=25, deadline=None)
@given(payload=payloads)
def test_roundtrip_arbitrary_payloads(tmp_path_factory, payload):
    cache = ArtifactCache(tmp_path_factory.mktemp("c"))
    key = run_key("c" * 64, "ref", (), 1, None, 1)
    assert cache.put(key, "run", payload)
    assert cache.get(key, "run") == payload


def test_miss_on_absent_key(cache):
    assert cache.get("0" * 64, "run") is None
    assert cache.stats() == {"hits": 0, "misses": 1, "corrupt": 0,
                             "stores": 0, "store_skipped": 0,
                             "tmp_swept": 0, "leases_swept": 0,
                             "entries": 0}


def _entry_path(cache, key):
    path = cache.path_for(key)
    assert path.is_file()
    return path


def _stored(cache, payload={"ok": True, "n": 7}):
    key = run_key("c" * 64, "ref", (1,), 100, None, 1)
    assert cache.put(key, "run", payload)
    return key, _entry_path(cache, key)


@settings(max_examples=30, deadline=None)
@given(cut=st.integers(0, 200))
def test_truncation_is_a_miss_and_evicts(tmp_path_factory, cut):
    cache = ArtifactCache(tmp_path_factory.mktemp("c"))
    key, path = _stored(cache)
    blob = path.read_bytes()
    path.write_bytes(blob[:min(cut, len(blob) - 1)])
    assert cache.get(key, "run") is None
    assert not path.exists(), "corrupt entry must be evicted"
    assert cache.corrupt == 1


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_single_bit_flip_is_a_miss(tmp_path_factory, data):
    cache = ArtifactCache(tmp_path_factory.mktemp("c"))
    key, path = _stored(cache)
    blob = bytearray(path.read_bytes())
    pos = data.draw(st.integers(0, len(blob) - 1))
    bit = data.draw(st.integers(0, 7))
    blob[pos] ^= 1 << bit
    path.write_bytes(bytes(blob))
    assert cache.get(key, "run") is None, \
        f"bit flip at byte {pos} bit {bit} must not be trusted"
    assert not path.exists()


@settings(max_examples=25, deadline=None)
@given(garbage=st.binary(max_size=256))
def test_garbage_file_is_a_miss(tmp_path_factory, garbage):
    cache = ArtifactCache(tmp_path_factory.mktemp("c"))
    key, path = _stored(cache)
    path.write_bytes(garbage)
    assert cache.get(key, "run") is None
    assert not path.exists()


def _forge(cache, key, envelope):
    """Write a well-formed (magic + digest) entry with a forged envelope."""
    import hashlib
    body = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_MAGIC + hashlib.sha256(body).digest() + body)


@pytest.mark.parametrize("mutation", [
    {"schema": CACHE_SCHEMA + 1},            # future schema
    {"version": "0.0.0-prehistoric"},        # stale repro version
    {"key": "f" * 64},                       # entry for a different key
    {"kind": "compile"},                     # wrong artifact kind
])
def test_stale_or_mismatched_envelope_is_a_miss(cache, mutation):
    key = run_key("c" * 64, "ref", (1,), 100, None, 1)
    envelope = {"schema": CACHE_SCHEMA, "version": cache.version,
                "key": key, "kind": "run", "payload": {"ok": True}}
    envelope.update(mutation)
    _forge(cache, key, envelope)
    assert cache.get(key, "run") is None
    assert not cache.path_for(key).exists()


def test_non_dict_envelope_is_a_miss(cache):
    key = run_key("c" * 64, "ref", (1,), 100, None, 1)
    _forge(cache, key, ["not", "a", "dict"])
    assert cache.get(key, "run") is None


def test_recompute_after_corruption(cache):
    """Eviction leaves the slot writable: a fresh put+get round-trips."""
    key, path = _stored(cache, payload={"ok": True, "v": 1})
    path.write_bytes(b"junk")
    assert cache.get(key, "run") is None
    assert cache.put(key, "run", {"ok": True, "v": 2})
    assert cache.get(key, "run") == {"ok": True, "v": 2}


def test_put_is_atomic_no_temp_litter(cache):
    key, path = _stored(cache)
    leftovers = [p for p in path.parent.iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []


def test_unpicklable_payload_is_swallowed(cache):
    key = run_key("c" * 64, "ref", (1,), 100, None, 1)
    assert cache.put(key, "run", lambda: None) is False  # not picklable
    assert cache.get(key, "run") is None
    assert cache.stats()["stores"] == 0


def test_clear_removes_everything(cache):
    for n in range(3):
        cache.put(run_key("c" * 64, "ref", (n,), 100, None, 1),
                  "run", {"n": n})
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_wrong_kind_read_does_not_serve_entry(cache):
    """A run read against a compile entry misses (and vice versa)."""
    key = compile_key("queens", "src", True, pass_spec=())
    cache.put(key, "compile", {"ok": True})
    assert cache.get(key, "run") is None


def test_entry_layout_is_sharded(cache):
    key = run_key("c" * 64, "ref", (1,), 100, None, 1)
    cache.put(key, "run", {})
    rel = cache.path_for(key).relative_to(cache.root)
    assert rel.parts[0] == "objects"
    assert rel.parts[1] == key[:2]
    assert rel.parts[2] == key[2:] + ".pkl"
    assert os.sep not in key

"""Unit tests for packed traces (flat-column trace compilation).

The packed form is a pure compilation: same requests, same digest, same
replay semantics. These tests pin the structural contracts —

* digest stability: ``packed.digest()`` equals the source trace's
  content digest, so the on-disk sweep cache keys survive compilation;
* column correctness and lazy materialization (``materialize`` /
  ``materialize_all`` reproduce ``fresh_requests`` exactly);
* function-name interning (one shared ``str`` per function);
* validation errors.
"""

from array import array
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.parallel import trace_digest
from repro.traces.packed import PackedTrace, pack_trace, packed_digest
from repro.traces.synth import synth_trace


@pytest.fixture(scope="module")
def trace():
    return synth_trace("packed-unit", np.random.default_rng(17),
                       n_functions=6, total_requests=400,
                       duration_ms=60_000.0)


def test_digest_matches_trace_digest(trace):
    packed = trace.packed()
    assert packed.digest() == trace_digest(trace)
    # trace_digest accepts the packed form directly (sweep-cache seam).
    assert trace_digest(packed) == trace_digest(trace)


def test_digest_computed_from_columns_alone(trace):
    """packed_digest hashes the same byte stream as trace_digest."""
    packed = trace.packed()
    assert packed_digest(packed) == trace_digest(trace)


def test_packed_is_cached_on_trace(trace):
    assert trace.packed() is trace.packed()


def test_columns_match_requests(trace):
    packed = trace.packed()
    assert packed.num_requests == trace.num_requests
    assert packed.num_functions == trace.num_functions
    assert packed.duration_ms == trace.duration_ms
    for i, req in enumerate(trace.requests):
        assert packed.arrival_ms[i] == req.arrival_ms
        assert packed.exec_ms[i] == req.exec_ms
        assert packed.func_names[packed.func_idx[i]] == req.func


def test_materialize_matches_fresh_requests(trace):
    packed = trace.packed()
    fresh = trace.fresh_requests()
    for i, want in enumerate(fresh):
        got = packed.materialize(i)
        assert (got.req_id, got.func, got.arrival_ms, got.exec_ms) \
            == (want.req_id, want.func, want.arrival_ms, want.exec_ms)
    got_all = packed.materialize_all()
    assert [(r.req_id, r.func, r.arrival_ms, r.exec_ms)
            for r in got_all] \
        == [(r.req_id, r.func, r.arrival_ms, r.exec_ms) for r in fresh]


def test_function_names_interned(trace):
    """Materialized requests share one str per function, not one per row."""
    packed = trace.packed()
    for i in range(packed.num_requests):
        req = packed.materialize(i)
        assert req.func is packed.func_names[packed.func_idx[i]]


def test_typecode_widens_past_65535_functions():
    funcs = [SimpleNamespace(name=f"f{i}", memory_mb=1.0)
             for i in range(0x10000)]
    small = SimpleNamespace(name="small", functions=funcs[:4], requests=[])
    large = SimpleNamespace(name="large", functions=funcs, requests=[])
    assert pack_trace(small).func_idx.typecode == "H"
    assert pack_trace(large).func_idx.typecode == "I"


def test_empty_trace_duration_zero():
    packed = pack_trace(SimpleNamespace(name="empty", functions=[],
                                        requests=[]))
    assert packed.num_requests == 0
    assert packed.duration_ms == 0.0


def test_unequal_columns_rejected():
    with pytest.raises(ValueError, match="equal length"):
        PackedTrace("bad", [], array("d", [1.0, 2.0]), array("d", [1.0]),
                    array("H", [0]))


def test_non_monotonic_arrivals_rejected():
    func = SimpleNamespace(name="f", memory_mb=1.0)
    reqs = [SimpleNamespace(func="f", arrival_ms=10.0, exec_ms=1.0),
            SimpleNamespace(func="f", arrival_ms=5.0, exec_ms=1.0)]
    with pytest.raises(ValueError, match="non-decreasing"):
        pack_trace(SimpleNamespace(name="bad", functions=[func],
                                   requests=reqs))


def test_decreasing_arrival_names_both_rows():
    func = SimpleNamespace(name="f", memory_mb=1.0)
    reqs = [SimpleNamespace(func="f", arrival_ms=t, exec_ms=1.0)
            for t in (1.0, 10.0, 10.0, 5.0)]
    with pytest.raises(ValueError,
                       match=r"trace 'bad': arrivals must be non-decreasing, "
                             r"but row 3 arrives at 5\.0 ms, before row 2 "
                             r"at 10\.0 ms"):
        pack_trace(SimpleNamespace(name="bad", functions=[func],
                                   requests=reqs))


def test_unknown_function_names_row():
    """Was a bare ``KeyError`` (a trace mutated after construction)."""
    func = SimpleNamespace(name="f", memory_mb=1.0)
    reqs = [SimpleNamespace(func=name, arrival_ms=float(i), exec_ms=1.0)
            for i, name in enumerate(("f", "f", "ghost", "f"))]
    with pytest.raises(ValueError,
                       match="trace 'bad': row 2 targets unknown function "
                             "'ghost'"):
        pack_trace(SimpleNamespace(name="bad", functions=[func],
                                   requests=reqs))

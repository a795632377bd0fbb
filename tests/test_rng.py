import warnings

import numpy as np

from condflow import rng
from condflow.stats import ks_two_sample


def test_draws_are_pure_functions_of_keys():
    ids = np.arange(1000, dtype=np.int64)
    keys = rng.path_keys(42, ids)
    a = rng.normals(keys, 7)
    b = rng.normals(rng.path_keys(42, ids), 7)
    np.testing.assert_array_equal(a, b)


def test_chunking_does_not_change_draws():
    ids = np.arange(256, dtype=np.int64)
    keys = rng.path_keys(9, ids)
    whole = rng.normals(keys, 3)
    parts = np.concatenate([
        rng.normals(rng.path_keys(9, ids[:100]), 3),
        rng.normals(rng.path_keys(9, ids[100:]), 3),
    ])
    np.testing.assert_array_equal(whole, parts)


def test_int_counter_mix_matches_numpy_formula():
    steps = (0, 1, 2**32, 2**63 - 1, 2**64 - 1)
    streams = (0, 1, 3, 17, 64, 2**20)
    keys = rng.path_keys(8, np.arange(64, dtype=np.int64))
    with np.errstate(over="ignore"):
        for step in steps:
            for stream in streams:
                c = rng._mix64(np.uint64(step) * rng._GAMMA + np.uint64(stream))
                assert rng._counter(step, stream) == int(c)
                np.testing.assert_array_equal(rng._raw(keys, step, stream), rng._mix64(keys + c))


def test_streams_and_steps_decorrelate():
    keys = rng.path_keys(5, np.arange(4096, dtype=np.int64))
    a = rng.normals(keys, 0, stream=0)
    b = rng.normals(keys, 0, stream=1)
    c = rng.normals(keys, 1, stream=0)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.05


def test_seed_changes_draws():
    ids = np.arange(64, dtype=np.int64)
    a = rng.normals(rng.path_keys(1, ids), 0)
    b = rng.normals(rng.path_keys(2, ids), 0)
    assert not np.array_equal(a, b)


def test_uniforms_in_open_interval():
    keys = rng.path_keys(11, np.arange(100_000, dtype=np.int64))
    u = rng.uniforms(keys, 0, stream=2)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.005


def test_two_streams_look_standard_normal():
    keys = rng.path_keys(123, np.arange(10_000, dtype=np.int64))
    xs = rng.normals(keys, 0)
    ys = rng.normals(keys, 1)
    result = ks_two_sample(xs, ys)
    assert result.passed
    assert abs(xs.mean()) < 4.0 / np.sqrt(xs.size)
    assert abs(xs.std() - 1.0) < 0.03


def test_block_of_steps_equals_one_step_calls():
    keys = rng.path_keys(17, np.arange(50, dtype=np.int64))
    for first in (0, 41, 2**63 - 2, 2**64 - 3):  # the last block wraps past 2**64 - 1
        for stream in (rng.STREAM_STEP_NORMAL, rng.STREAM_WATCH + 2):
            block = rng.normals(keys, range(first, first + 6), stream)
            assert block.shape == (6, keys.size)
            for j in range(6):
                one = rng.normals(keys, first + j, stream)
                assert block[j].tobytes() == one.tobytes()


def test_draws_raise_no_warning():
    keys = rng.path_keys(2**64 - 1, np.arange(1000, dtype=np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for steps in (0, 2**64 - 1, range(2**64 - 2, 2**64 + 2)):
            rng.uniforms(keys, steps, rng.STREAM_BRIDGE_UPPER)
            rng.normals(keys, steps)


def test_a_step_index_per_key_equals_one_step_calls():
    # a block's bridge uniforms: key i drawn at step steps[i], on every stream
    # the step kernel uses, with step indices up to 2**40
    keys = rng.path_keys(23, np.arange(48, dtype=np.int64))
    steps = np.array([0, 1, 7, 2**14, 2**32 - 1, 2**32, 2**40 - 1, 2**40] * 6, dtype=np.intp)
    streams = (rng.STREAM_STEP_NORMAL, rng.STREAM_BRIDGE_LOWER, rng.STREAM_BRIDGE_UPPER,
               *(rng.STREAM_WATCH + j for j in range(4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stream in streams:
            raw = rng._raw(keys, steps, stream)
            u = rng.uniforms(keys, steps, stream)
            assert raw.shape == u.shape == keys.shape
            for i, step in enumerate(steps.tolist()):
                assert raw[i] == rng._raw(keys[i:i + 1], step, stream)[0]
                assert u[i:i + 1].tobytes() == rng.uniforms(keys[i:i + 1], step, stream).tobytes()

import hashlib
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcil import diffmath as dm
from avcil import model as mdl
from avcil import objectives as obj
from avcil.errors import ContractError, FormatError


def make_batch(rng, n, l, s, d):
    return rng.normal(size=(n, d)), rng.normal(size=(n, l, s, d))


def reference_forward(audio, visual, p):
    """Plain-numpy mirror of the audiovisual pathway, no graph machinery."""
    score_a = np.tanh(audio @ p.w_audio.data)
    score_v = np.tanh(visual @ p.w_visual.data)
    prod = score_a[:, None, None, :] * score_v
    e = np.exp(prod - prod.max(axis=2, keepdims=True))
    w_spa = e / e.sum(axis=2, keepdims=True)
    frame = (w_spa * score_v).sum(axis=2)
    e2 = np.exp(frame - frame.max(axis=1, keepdims=True))
    w_tem = e2 / e2.sum(axis=1, keepdims=True)
    pooled = (w_tem * (visual * w_spa).sum(axis=2)).sum(axis=1)
    fused = np.tanh(audio @ p.u_audio.data) + np.tanh(pooled @ p.u_visual.data)
    logits = fused @ p.cls_weight.data.T + p.cls_bias.data
    return w_spa, w_tem, pooled, fused, logits


def test_init_params_deterministic_and_bounded():
    a = mdl.init_params(8, 5, seed=3)
    b = mdl.init_params(8, 5, seed=3)
    c = mdl.init_params(8, 5, seed=4)
    for x, y in zip(a.parameters(), b.parameters()):
        assert np.array_equal(x.data, y.data)
    assert not np.array_equal(a.w_audio.data, c.w_audio.data)
    bound = 1.0 / np.sqrt(8)
    for t in a.parameters()[:-1]:
        assert np.all(np.abs(t.data) <= bound)
    assert np.array_equal(a.cls_bias.data, np.zeros(5))
    assert a.d == 8 and a.num_classes == 5


def test_spatial_weights_are_distributions():
    rng = np.random.default_rng(0)
    p = mdl.init_params(6, 3, seed=0)
    batch = make_batch(rng, 4, 3, 5, 6)
    trace = mdl.forward(p, *batch)
    spa, tem = trace.maps
    assert np.allclose(spa.sum(axis=2), 1.0, atol=1e-12)
    assert np.allclose(tem.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(spa > 0.0) and np.all(tem > 0.0)


def test_zero_audio_gives_uniform_spatial_weights():
    rng = np.random.default_rng(1)
    p = mdl.init_params(4, 2, seed=1)
    trace = mdl.forward(p, np.zeros((2, 4)), rng.normal(size=(2, 3, 5, 4)))
    assert np.allclose(trace.maps[0], 1.0 / 5.0, atol=1e-12)


def test_single_frame_temporal_weight_is_one():
    rng = np.random.default_rng(2)
    p = mdl.init_params(4, 2, seed=2)
    batch = make_batch(rng, 3, 1, 4, 4)
    trace = mdl.forward(p, *batch)
    assert np.allclose(trace.maps[1], 1.0, atol=1e-12)


def test_identical_frames_give_uniform_temporal_weights():
    rng = np.random.default_rng(3)
    p = mdl.init_params(4, 2, seed=3)
    frame = rng.normal(size=(4, 4))
    batch = rng.normal(size=(1, 4)), np.stack([frame] * 3)[None]
    trace = mdl.forward(p, *batch)
    assert np.allclose(trace.maps[1], 1.0 / 3.0, atol=1e-12)


def test_pool_with_uniform_maps_is_plain_mean():
    # zero visual weights score every cell 0, so both maps are uniform
    rng = np.random.default_rng(4)
    f_v = rng.normal(size=(2, 3, 4, 5))
    pooled, (spatial, temporal), _ = dm.attend(dm.constant(rng.normal(size=(2, 5))), f_v,
                                               dm.constant(np.zeros((5, 5))))
    assert np.allclose(spatial, 0.25, atol=1e-12)
    assert np.allclose(temporal, 1.0 / 3.0, atol=1e-12)
    assert np.allclose(pooled.data, f_v.mean(axis=(1, 2)), atol=1e-12)


def test_pool_with_one_hot_maps_selects_a_cell():
    # cell 1 scores tanh(5) in every channel and the others tanh(-5); an
    # audio score of 1e6 makes the spatial map exactly one-hot on it
    f_v = np.full((1, 1, 3, 4), -5.0)
    f_v[0, 0, 1] = 5.0
    pooled, (spatial, temporal), _ = dm.attend(dm.constant(np.full((1, 4), 1e6)), f_v,
                                               dm.constant(np.eye(4)))
    assert np.array_equal(spatial[0, 0, :, 0], [0.0, 1.0, 0.0])
    assert np.array_equal(temporal, np.ones((1, 1, 4)))
    assert np.array_equal(pooled.data, f_v[0, 0, 1][None, :])


def _attention_backward_peak(k):
    """Traced bytes of backward over one avcil batch of attention_large's
    shape with `k` replay rows, read in place from a larger grid, and the
    batch's visual bytes."""
    n, ell, cells, d = 32, 8, 49, 128
    rng = np.random.default_rng(0)
    audio = rng.normal(size=(n + 8, d))
    visual = rng.normal(size=(n + 8, ell, cells, d)).astype(np.float32)
    batch = rng.permutation(n + 8)[:n]
    params = mdl.expand_classifier(mdl.init_params(d, 4, seed=1), 4, seed=2)
    rows = np.sort(rng.choice(n, k, replace=False))
    cached = mdl.forward(mdl.snapshot(mdl.init_params(d, 4, seed=3)), audio, visual,
                         "audiovisual", rows, batch)
    weights = obj.LossWeights()
    tracemalloc.start()
    try:
        trace = mdl.forward(params, audio, visual, "audiovisual", rows, batch,
                            (cached.maps, np.arange(k), weights.lambda_vad))
        loss = obj.total_loss(trace, cached.logits.data, rng.integers(0, 8, size=n),
                              obj.TaskLayout((4, 4)), weights)
        tracemalloc.reset_peak()
        dm.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, n * visual[0].nbytes


def test_attention_backward_peak_stays_below_one_and_a_half_visual_batches():
    # no full-size map outlives forward, and neither a copy of the batch, a
    # full-size score gradient nor a map gradient of the replay rows ever
    # exists, so backward's traced peak, with what forward and the loss
    # hold, stays under 1.5x the batch's visual bytes, and does not grow
    # with the number of replay rows
    peak, batch_bytes = _attention_backward_peak(12)
    assert peak < 1.5 * batch_bytes
    few, many = _attention_backward_peak(4)[0], _attention_backward_peak(24)[0]
    assert abs(many - few) <= 0.25 * 2**20


@pytest.mark.parametrize("shape", [(32, 4, 4, 16), (6, 8, 49, 128)])
def test_fused_vad_equals_kl_rows_on_the_map_arrays_bitwise(shape):
    # desk's shape runs as one chunk, attention_large's one row per chunk
    n, ell, cells, d = shape
    rng = np.random.default_rng(31)
    audio = rng.normal(size=(n, d))
    visual = rng.normal(size=(n, ell, cells, d)).astype(np.float32)
    params = mdl.init_params(d, 4, seed=1)
    teacher_maps = mdl.forward(mdl.snapshot(mdl.init_params(d, 4, seed=2)), audio, visual).maps
    rows, teacher_rows = np.array([1, 2, 4, n - 1]), np.array([n - 1, 0, 0, 3])
    spatial, temporal = mdl.forward(mdl.snapshot(params), audio, visual, map_rows=rows).maps
    expected = dm.kl_rows(((dm.constant(spatial), teacher_maps[0], 2),
                           (dm.constant(temporal), teacher_maps[1], 1)), (0.3, 0.7), teacher_rows)
    fused = mdl.forward(params, audio, visual, map_rows=rows,
                        distill=(teacher_maps, teacher_rows, 0.3))
    assert fused.maps is None
    assert fused.vad.data.tobytes() == expected.data.tobytes()


def test_zero_features_classify_to_bias():
    p = mdl.init_params(4, 3, seed=5)
    fused, logits = mdl.fuse_and_classify(dm.constant(np.zeros((2, 4))),
                                          dm.constant(np.zeros((2, 4))), p)
    assert np.array_equal(fused.data, np.zeros((2, 4)))
    assert np.allclose(logits.data, np.tile(p.cls_bias.data, (2, 1)), atol=1e-15)


def test_forward_matches_numpy_reference():
    rng = np.random.default_rng(6)
    p = mdl.init_params(3, 4, seed=6)
    batch = make_batch(rng, 2, 2, 2, 3)
    trace = mdl.forward(p, *batch)
    audio, visual = batch
    w_spa, w_tem, pooled, fused, logits = reference_forward(audio, visual, p)
    assert np.allclose(trace.maps[0], w_spa, atol=1e-12)
    assert np.allclose(trace.maps[1], w_tem, atol=1e-12)
    assert np.allclose(trace.attended_visual.data, pooled, atol=1e-12)
    assert np.allclose(trace.fused.data, fused, atol=1e-12)
    assert np.allclose(trace.logits.data, logits, atol=1e-12)


def test_forward_is_bit_deterministic():
    rng = np.random.default_rng(7)
    p = mdl.init_params(5, 3, seed=7)
    batch = make_batch(rng, 3, 2, 3, 5)
    a = mdl.forward(p, *batch)
    b = mdl.forward(p, *batch)
    assert np.array_equal(a.logits.data, b.logits.data)
    assert np.array_equal(a.maps[0], b.maps[0])


def test_audio_only_path():
    rng = np.random.default_rng(8)
    p = mdl.init_params(4, 3, seed=8)
    batch = make_batch(rng, 2, 2, 2, 4)
    trace = mdl.forward(p, *batch, modality="audio")
    audio, _ = batch
    expected = np.tanh(audio @ p.u_audio.data) @ p.cls_weight.data.T + p.cls_bias.data
    assert np.allclose(trace.logits.data, expected, atol=1e-12)
    assert trace.maps is None and trace.attended_visual is None


def test_visual_only_path_uses_uniform_pooling():
    rng = np.random.default_rng(9)
    p = mdl.init_params(4, 3, seed=9)
    batch = make_batch(rng, 2, 3, 2, 4)
    trace = mdl.forward(p, *batch, modality="visual")
    _, visual = batch
    pooled = visual.mean(axis=(1, 2))
    expected = np.tanh(pooled @ p.u_visual.data) @ p.cls_weight.data.T + p.cls_bias.data
    assert np.allclose(trace.logits.data, expected, atol=1e-12)
    assert trace.maps is None


def test_forward_rejects_unknown_modality_and_empty_batch():
    p = mdl.init_params(4, 3, seed=0)
    with pytest.raises(ContractError):
        mdl.forward(p, np.zeros((0, 4)), np.zeros((0, 2, 2, 4)), modality="audiovisual")
    with pytest.raises(ContractError):
        mdl.forward(p, *make_batch(np.random.default_rng(0), 1, 2, 2, 4), modality="both")


def test_end_to_end_gradients_pass_finite_differences():
    rng = np.random.default_rng(10)
    p = mdl.init_params(3, 4, seed=10)
    batch = make_batch(rng, 2, 2, 2, 3)
    minus_target = dm.constant(-rng.normal(size=(2, 4)))

    def loss_for(name):
        def f(t):
            setattr(p, name, t)
            error = mdl.forward(p, *batch).logits + minus_target
            return (error * error).sum()
        return f

    for name in ("w_audio", "w_visual", "u_audio", "u_visual", "cls_weight", "cls_bias"):
        original = getattr(p, name)
        err = dm.grad_check(loss_for(name), dm.constant(original.data.copy()), h=1e-5)
        setattr(p, name, original)
        assert err < 1e-6, (name, err)


def test_expand_classifier_preserves_old_logits_bitwise():
    rng = np.random.default_rng(11)
    p = mdl.init_params(4, 3, seed=11)
    batch = make_batch(rng, 3, 2, 2, 4)
    before = mdl.forward(p, *batch).logits.data
    grown = mdl.expand_classifier(p, 2, seed=99)
    after = mdl.forward(grown, *batch).logits.data
    assert grown.num_classes == 5
    assert np.array_equal(after[:, :3], before)
    assert np.array_equal(grown.cls_weight.data[:3], p.cls_weight.data)
    g2 = mdl.expand_classifier(p, 2, seed=99)
    assert np.array_equal(grown.cls_weight.data, g2.cls_weight.data)
    g3 = mdl.expand_classifier(p, 2, seed=100)
    assert not np.array_equal(grown.cls_weight.data[3:], g3.cls_weight.data[3:])


def test_expand_classifier_shares_projections():
    p = mdl.init_params(4, 3, seed=12)
    before = p.flat.copy()
    grown = mdl.expand_classifier(p, 1, seed=0)
    assert np.array_equal(grown.w_audio.data, p.w_audio.data)
    assert np.array_equal(grown.u_visual.data, p.u_visual.data)
    assert np.array_equal(p.flat, before)


def test_snapshot_is_frozen_and_detached():
    p = mdl.init_params(4, 3, seed=13)
    frozen = mdl.snapshot(p)
    for t in frozen.parameters():
        assert not t.requires_grad
    p.w_audio.data += 1.0
    assert not np.array_equal(frozen.w_audio.data, p.w_audio.data)


def test_checkpoint_round_trip_is_exact(tmp_path):
    p = mdl.init_params(5, 4, seed=14)
    path = tmp_path / "model.avcp"
    mdl.save_checkpoint(p, path)
    loaded = mdl.load_checkpoint(path)
    for a, b in zip(p.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)
    mdl.save_checkpoint(loaded, tmp_path / "again.avcp")
    assert (tmp_path / "model.avcp").read_bytes() == (tmp_path / "again.avcp").read_bytes()


def test_checkpoint_rejects_bad_magic_and_truncation(tmp_path):
    p = mdl.init_params(3, 2, seed=15)
    path = tmp_path / "model.avcp"
    mdl.save_checkpoint(p, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    bad = tmp_path / "bad.avcp"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        mdl.load_checkpoint(bad)
    short = tmp_path / "short.avcp"
    short.write_bytes(path.read_bytes()[:40])
    with pytest.raises(FormatError):
        mdl.load_checkpoint(short)


# the six fields in checkpoint order, the order they take in `flat`
FIELDS = ("w_audio", "w_visual", "u_audio", "u_visual", "cls_weight", "cls_bias")


def _assert_views_of_the_vector(params, trainable):
    """Each field is a view of `flat` at its place in field order, and a
    trainable model's gradients are the matching views of `grad`."""
    assert params.flat.dtype == np.float64 and params.flat.ndim == 1
    assert (params.grad is not None) == trainable
    start = 0
    for name in FIELDS:
        t = getattr(params, name)
        assert t.data.base is params.flat
        assert t.data.ctypes.data == params.flat.ctypes.data + 8 * start
        assert t.requires_grad == trainable
        if trainable:
            assert t.grad.base is params.grad and t.grad.shape == t.data.shape
            assert t.grad.ctypes.data == params.grad.ctypes.data + 8 * start
        else:
            assert t.grad is None
        start += t.data.size
    assert start == params.flat.size


def test_every_field_is_a_view_of_the_flat_vector(tmp_path):
    p = mdl.init_params(4, 3, seed=16)
    _assert_views_of_the_vector(p, trainable=True)
    grown = mdl.expand_classifier(p, 2, seed=1)
    _assert_views_of_the_vector(grown, trainable=True)
    assert grown.num_classes == 5
    retrained = mdl.reinit_classifier(grown, 5, seed=2)
    _assert_views_of_the_vector(retrained, trainable=True)
    mdl.save_checkpoint(retrained, tmp_path / "m.avcp")
    loaded = mdl.load_checkpoint(tmp_path / "m.avcp")
    _assert_views_of_the_vector(loaded, trainable=True)
    assert np.array_equal(loaded.flat, retrained.flat)
    frozen = mdl.snapshot(loaded)
    _assert_views_of_the_vector(frozen, trainable=False)
    assert not np.shares_memory(frozen.flat, loaded.flat)


def test_backward_accumulates_into_the_gradient_vector():
    params = mdl.init_params(4, 4, seed=17)
    teacher = mdl.snapshot(mdl.init_params(4, 2, seed=18))
    batch = make_batch(np.random.default_rng(23), 5, 2, 3, 4)
    dm.backward(_loss_on(params, teacher, *batch)[1])
    once = params.grad.copy()
    assert np.any(once != 0.0)
    dm.backward(_loss_on(params, teacher, *batch)[1])     # no zeroing in between
    # each leaf may take several terms, so the sum is equal up to rounding
    assert np.allclose(params.grad, 2.0 * once, rtol=1e-12, atol=1e-15)
    for name in FIELDS:
        assert getattr(params, name).grad.base is params.grad
    assert teacher.grad is None


def test_checkpoint_bytes_are_the_header_and_the_vector(tmp_path):
    # the checkpoint format: bytes every saved checkpoint depends on
    mdl.save_checkpoint(mdl.init_params(5, 4, seed=14), tmp_path / "m.avcp")
    blob = (tmp_path / "m.avcp").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == \
        "f611b77c3acc50876a9728483f9ece85c7580df68f7392a9a497d6f0b1a88fd7"
    assert blob[16:] == mdl.init_params(5, 4, seed=14).flat.astype("<f8").tobytes()


# a d=3, two-class checkpoint is 16 + 8 * 44 = 368 bytes
@pytest.mark.parametrize("edit, message", [
    (lambda b: b + bytes(8), "checkpoint has trailing bytes at offset 368"),
    (lambda b: b[:-1], "checkpoint truncated at offset 367"),
])
def test_checkpoint_rejects_any_length_but_the_exact_one(tmp_path, edit, message):
    mdl.save_checkpoint(mdl.init_params(3, 2, seed=15), tmp_path / "m.avcp")
    (tmp_path / "bad.avcp").write_bytes(edit((tmp_path / "m.avcp").read_bytes()))
    with pytest.raises(FormatError, match=message):
        mdl.load_checkpoint(tmp_path / "bad.avcp")


def _checkpoint_source() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.avcp"
        mdl.save_checkpoint(mdl.init_params(3, 2, seed=15), path)
        return path.read_bytes()


CHECKPOINT_SOURCE = _checkpoint_source()
# half the writes land in the 16-byte header, where d and num_classes live
CHECKPOINT_POSITIONS = st.one_of(st.integers(0, 15),
                                 st.integers(0, len(CHECKPOINT_SOURCE) - 1))


@settings(max_examples=300, deadline=None)
@given(writes=st.lists(st.tuples(CHECKPOINT_POSITIONS, st.integers(0, 255)), max_size=4),
       keep=st.none() | st.integers(0, len(CHECKPOINT_SOURCE)))
def test_corrupted_checkpoint_loads_or_raises_format_error(writes, keep):
    blob = bytearray(CHECKPOINT_SOURCE)
    for pos, value in writes:
        blob[pos] = value
    if keep is not None:
        del blob[keep:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.avcp"
        path.write_bytes(bytes(blob))
        try:
            params = mdl.load_checkpoint(path)
        except FormatError:
            return
    assert np.isfinite(params.flat).all()
    assert params.d >= 1 and params.num_classes >= 1
    _assert_views_of_the_vector(params, trainable=True)


# --- dtype policy: the attention block runs in the features' float32 --------


def _graph_nodes(loss):
    """Tracked nodes reachable from `loss`, each once."""
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            if node.requires_grad:
                nodes.append(node)
    return nodes


def _loss_on(params, teacher, audio, visual):
    replay = np.array([0, 1])
    weights = obj.LossWeights()
    cached = mdl.forward(teacher, audio, visual)
    trace = mdl.forward(params, audio, visual, map_rows=replay,
                        distill=(cached.maps, replay, weights.lambda_vad))
    loss = obj.total_loss(trace, cached.logits.data, np.array([0, 1, 2, 3, 2]),
                          obj.TaskLayout((2, 2)), weights)
    return trace, loss


def _float32_batch(seed, n=5, l=2, s=3, d=4):
    audio, visual = make_batch(np.random.default_rng(seed), n, l, s, d)
    return audio.astype(np.float32), visual.astype(np.float32)


def test_float32_features_keep_the_attention_maps_float32_and_all_else_float64():
    params = mdl.init_params(4, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(4, 2, seed=4))
    batch = _float32_batch(21)
    trace, loss = _loss_on(params, teacher, *batch)
    assert all(m.dtype == np.float32 for m in mdl.forward(params, *batch).maps)
    for t in (trace.audio, trace.attended_visual, trace.fused, trace.logits, trace.vad, loss):
        assert t.data.dtype == np.float64
    dm.backward(loss)
    opt = dm.AdamState(params.flat.size)
    dm.adam_step(params.flat, params.grad, opt)
    for p in params.parameters():
        assert p.grad.dtype == np.float64 and p.data.dtype == np.float64
    assert opt.m.dtype == np.float64 and opt.v.dtype == np.float64


def test_float32_and_float64_paths_agree_on_parameter_gradients():
    # float32 rounding (about 6e-8 relative) over reductions of at most a few
    # hundred terms; the tolerance is 1e-4 of the largest gradient entry
    audio, visual = _float32_batch(22, n=5, l=4, s=9, d=8)
    grads = []
    for dtype in (np.float32, np.float64):
        params = mdl.init_params(8, 4, seed=5)
        teacher = mdl.snapshot(mdl.init_params(8, 2, seed=6))
        _, loss = _loss_on(params, teacher, audio.astype(dtype), visual.astype(dtype))
        dm.backward(loss)
        grads.append([p.grad for p in params.parameters()])
    for g32, g64 in zip(*grads):
        assert np.abs(g32 - g64).max() <= 1e-4 * np.abs(g64).max()
        assert not np.array_equal(g32, g64)     # the float32 path did run


def test_float64_graph_is_unchanged_and_float32_adds_no_node():
    params = mdl.init_params(4, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(4, 2, seed=4))
    audio, visual = _float32_batch(23)
    nodes64 = _graph_nodes(_loss_on(params, teacher, audio.astype(np.float64),
                                    visual.astype(np.float64))[1])
    nodes32 = _graph_nodes(_loss_on(params, teacher, audio, visual)[1])
    # the count may fall as nodes fuse but must not rise, and float32
    # inputs add no cast node: the attention node keeps its float32 grids
    # inside, so every node of either graph is float64
    assert len(nodes32) == len(nodes64) <= 91
    assert all(t.data.dtype == np.float64 for t in nodes64 + nodes32)
    assert sum(t.data.nbytes for t in nodes64) == sum(t.data.nbytes for t in nodes32)

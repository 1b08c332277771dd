import numpy as np
import pytest

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
    spa = trace.maps.spatial.data
    tem = trace.maps.temporal.data
    assert np.allclose(spa.sum(axis=2), 1.0, atol=1e-12)
    assert np.allclose(tem.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(spa > 0.0) and np.all(tem > 0.0)


def test_zero_audio_gives_uniform_spatial_weights():
    rng = np.random.default_rng(1)
    p = mdl.init_params(4, 2, seed=1)
    f_a = dm.constant(np.zeros((2, 4)))
    f_v = dm.constant(rng.normal(size=(2, 3, 5, 4)))
    w_spa, _ = mdl.spatial_attention(f_a, f_v, p)
    assert np.allclose(w_spa.data, 1.0 / 5.0, atol=1e-12)


def test_single_frame_temporal_weight_is_one():
    rng = np.random.default_rng(2)
    p = mdl.init_params(4, 2, seed=2)
    batch = make_batch(rng, 3, 1, 4, 4)
    trace = mdl.forward(p, *batch)
    assert np.allclose(trace.maps.temporal.data, 1.0, atol=1e-12)


def test_identical_frames_give_uniform_temporal_weights():
    rng = np.random.default_rng(3)
    p = mdl.init_params(4, 2, seed=3)
    frame = rng.normal(size=(4, 4))
    batch = rng.normal(size=(1, 4)), np.stack([frame] * 3)[None]
    trace = mdl.forward(p, *batch)
    assert np.allclose(trace.maps.temporal.data, 1.0 / 3.0, atol=1e-12)


def test_pool_with_uniform_maps_is_plain_mean():
    rng = np.random.default_rng(4)
    f_v = dm.constant(rng.normal(size=(2, 3, 4, 5)))
    maps = mdl.AttentionMaps(
        spatial=dm.constant(np.full((2, 3, 4, 5), 0.25)),
        temporal=dm.constant(np.full((2, 3, 5), 1.0 / 3.0)))
    pooled = mdl.pool_visual(f_v, maps)
    assert np.allclose(pooled.data, f_v.data.mean(axis=(1, 2)), atol=1e-12)


def test_pool_with_one_hot_maps_selects_a_cell():
    f_v = dm.constant(np.arange(2 * 3 * 4.0).reshape(1, 2, 3, 4))
    spa = np.zeros((1, 2, 3, 4))
    spa[0, :, 1, :] = 1.0
    tem = np.zeros((1, 2, 4))
    tem[0, 0, :] = 1.0
    pooled = mdl.pool_visual(f_v, mdl.AttentionMaps(dm.constant(spa), dm.constant(tem)))
    assert np.array_equal(pooled.data, f_v.data[0, 0, 1][None, :])


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
    assert np.allclose(trace.maps.spatial.data, w_spa, atol=1e-12)
    assert np.allclose(trace.maps.temporal.data, w_tem, atol=1e-12)
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
    assert np.array_equal(a.maps.spatial.data, b.maps.spatial.data)


def test_forward_takes_arrays_or_constant_tensors():
    rng = np.random.default_rng(16)
    p = mdl.init_params(4, 3, seed=16)
    audio, visual = make_batch(rng, 3, 2, 2, 4)
    tensors = dm.constant(audio), dm.constant(visual)
    from_tensors = mdl.forward(p, *tensors)
    assert from_tensors.audio is tensors[0]
    assert np.array_equal(from_tensors.logits.data, mdl.forward(p, audio, visual).logits.data)


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
    target = dm.constant(rng.normal(size=(2, 4)))

    def loss_for(name):
        def f(t):
            setattr(p, name, t)
            trace = mdl.forward(p, *batch)
            return ((trace.logits - target) * (trace.logits - target)).sum()
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
    grown = mdl.expand_classifier(p, 1, seed=0)
    assert grown.w_audio is p.w_audio
    assert grown.u_visual is p.u_visual


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
    audio, visual = dm.constant(audio), dm.constant(visual)
    trace = mdl.forward(params, audio, visual)
    loss = obj.total_loss(trace, mdl.forward(teacher, audio, visual),
                          np.array([0, 1, 2, 3, 2]),
                          np.array([True, True, False, False, False]),
                          obj.TaskLayout((2, 2)), obj.LossWeights())
    return trace, loss


def _float32_batch(seed, n=5, l=2, s=3, d=4):
    audio, visual = make_batch(np.random.default_rng(seed), n, l, s, d)
    return audio.astype(np.float32), visual.astype(np.float32)


def test_float32_features_keep_the_attention_maps_float32_and_all_else_float64():
    params = mdl.init_params(4, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(4, 2, seed=4))
    trace, loss = _loss_on(params, teacher, *_float32_batch(21))
    assert trace.maps.spatial.data.dtype == np.float32
    assert trace.maps.temporal.data.dtype == np.float32
    for t in (trace.audio, trace.attended_visual, trace.fused, trace.logits, loss):
        assert t.data.dtype == np.float64
    dm.backward(loss)
    opt = dm.AdamState.for_params(params.parameters())
    dm.adam_step(params.parameters(), opt)
    for p, m, v in zip(params.parameters(), opt.m, opt.v):
        assert p.grad.dtype == np.float64 and p.data.dtype == np.float64
        assert m.dtype == np.float64 and v.dtype == np.float64


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
    # inputs add no cast node
    assert len(nodes32) == len(nodes64) <= 91
    assert all(t.data.dtype == np.float64 for t in nodes64)
    grids = [t for t in nodes32 if t.data.dtype == np.float32]
    assert grids and all(t.ndim > 2 for t in grids)
    assert sum(t.data.nbytes for t in nodes64) == (sum(t.data.nbytes for t in nodes32)
                                                   + sum(t.data.nbytes for t in grids))

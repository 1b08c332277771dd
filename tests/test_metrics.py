import numpy as np
import pytest

from avcil import metrics as mx
from avcil import model as mdl
from avcil.errors import ContractError, NumericDomainError
from avcil.objectives import TaskLayout


def make_samples(rng, n, d=4, l=2, s=2):
    return rng.normal(size=(n, d)), rng.normal(size=(n, l, s, d))


def test_mean_accuracy_reference_row():
    assert abs(mx.mean_accuracy([79.81, 77.14, 71.43, 67.77]) - 74.04) <= 0.005


def test_mean_accuracy_accepts_matrix_and_rejects_empty():
    m = mx.AccuracyMatrix.from_rows([[50.0], [40.0, 60.0]], [50.0, 50.0])
    assert mx.mean_accuracy(m) == 50.0
    with pytest.raises(ContractError):
        mx.mean_accuracy([])


def test_average_forgetting_reference_matrix():
    m = mx.AccuracyMatrix.from_rows([[90.0], [80.0, 85.0], [70.0, 75.0, 99.0]],
                                    [90.0, 82.0, 75.0])
    assert mx.average_forgetting(m) == 12.5


def test_average_forgetting_single_step_is_undefined():
    m = mx.AccuracyMatrix.from_rows([[88.0]], [88.0])
    assert mx.average_forgetting(m) is None


def test_average_forgetting_can_be_negative():
    m = mx.AccuracyMatrix.from_rows([[50.0], [70.0, 60.0]], [50.0, 65.0])
    assert mx.average_forgetting(m) == -20.0


def test_accuracy_matrix_shape_contract():
    with pytest.raises(ContractError):
        mx.AccuracyMatrix.from_rows([[1.0, 2.0]], [1.0])


def test_evaluate_perfect_and_constant_predictors():
    rng = np.random.default_rng(0)
    params = mdl.init_params(4, 3, seed=0)
    samples = make_samples(rng, 12)
    layout = TaskLayout((2, 1))
    logits_labels = mx._predict_head(mdl.snapshot(params), *samples, "audiovisual")
    overall, per_task = mx.evaluate(params, *samples, logits_labels, layout)
    assert overall == 100.0 and per_task[0] == 100.0 and per_task[1] == 100.0
    wrong = (logits_labels + 1) % 3
    overall_w, _ = mx.evaluate(params, *samples, wrong, layout)
    assert overall_w == 0.0


def test_evaluate_overall_is_sample_weighted():
    rng = np.random.default_rng(1)
    params = mdl.init_params(4, 4, seed=1)
    samples = make_samples(rng, 10)
    layout = TaskLayout((2, 2))
    preds = mx._predict_head(mdl.snapshot(params), *samples, "audiovisual")
    labels = preds.copy()
    labels[:3] = (labels[:3] + 1) % 4  # break three samples
    overall, per_task = mx.evaluate(params, *samples, labels, layout)
    ends = np.cumsum(layout.boundaries)
    tasks = np.array([next(t for t, end in enumerate(ends) if y < end) for y in labels])
    counts = [(tasks == t).sum() for t in range(2)]
    recomposed = sum(a * n for a, n in zip(per_task, counts)) / sum(counts)
    assert abs(overall - recomposed) < 1e-9


def test_evaluate_rejects_label_outside_layout():
    rng = np.random.default_rng(2)
    params = mdl.init_params(4, 2, seed=2)
    samples = make_samples(rng, 3)
    with pytest.raises(ContractError):
        mx.evaluate(params, *samples, [0, 1, 2], TaskLayout((2,)))


@pytest.mark.parametrize("modality", ["audio", "visual"])
@pytest.mark.parametrize("nme", [False, True])
def test_evaluate_rejects_non_finite_parameters_a_softmax_never_meets(modality, nme):
    # these modalities run no attention softmax, so NaN would reach the ranking
    rng = np.random.default_rng(8)
    params = mdl.init_params(4, 2, seed=8)
    params.cls_weight.data[0, 0] = np.nan                   # the head's logits
    if nme:                                                 # the fused features
        params.u_audio.data[0, 0] = params.u_visual.data[0, 0] = np.nan
    samples = make_samples(rng, 4)
    exemplars = (*make_samples(rng, 2), [0, 1]) if nme else None
    with pytest.raises(NumericDomainError, match="non-finite"):
        mx.evaluate(params, *samples, [0, 1, 0, 1], TaskLayout((2,)), modality, exemplars)


def test_nme_zero_distance_exemplar_wins():
    rng = np.random.default_rng(3)
    params = mdl.init_params(4, 2, seed=3)
    queries = make_samples(rng, 2)
    # one exemplar per class, each literally a query: distance to its own mean is 0
    preds = mx.nme_classify(params, *queries, [0, 1], *queries, num_classes=2)
    assert np.array_equal(preds, [0, 1])


def test_nme_requires_every_class():
    rng = np.random.default_rng(4)
    params = mdl.init_params(4, 3, seed=4)
    ex = make_samples(rng, 2)
    with pytest.raises(ContractError, match="class 2"):
        mx.nme_classify(params, *ex, [0, 1], *make_samples(rng, 1), num_classes=3)


def test_nme_is_deterministic():
    rng = np.random.default_rng(5)
    params = mdl.init_params(4, 3, seed=5)
    ex = make_samples(rng, 9)
    ex_labels = [0, 1, 2] * 3
    queries = make_samples(rng, 6)
    a = mx.nme_classify(params, *ex, ex_labels, *queries, num_classes=3)
    b = mx.nme_classify(params, *ex, ex_labels, *queries, num_classes=3)
    assert np.array_equal(a, b)


def test_nme_in_chunks_matches_one_piece_distances():
    rng = np.random.default_rng(8)
    params = mdl.init_params(4, 5, seed=8)
    ex = make_samples(rng, 15)
    ex_labels = np.arange(15) % 5
    audio, visual = make_samples(rng, mx.EVAL_CHUNK + 45)
    frozen = mdl.snapshot(params)
    feats = mx._forward_rows(frozen, *ex, "audiovisual", "fused")
    means = np.stack([feats[ex_labels == c].mean(axis=0) for c in range(5)])
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    q = mx._forward_rows(frozen, audio, visual, "audiovisual", "fused")
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    whole = np.argmin(np.linalg.norm(q[:, None, :] - means[None, :, :], axis=2), axis=1)
    assert len(set(whole.tolist())) > 1
    preds = mx.nme_classify(params, *ex, ex_labels, audio, visual, num_classes=5)
    assert np.array_equal(preds, whole)


def test_evaluate_with_nme_path():
    rng = np.random.default_rng(6)
    params = mdl.init_params(4, 3, seed=6)
    layout = TaskLayout((2, 1))
    queries = make_samples(rng, 6)
    ex = make_samples(rng, 6)
    ex_labels = [0, 0, 1, 1, 2, 2]
    preds = mx.nme_classify(params, *ex, ex_labels, *queries, num_classes=3)
    overall, _ = mx.evaluate(params, *queries, preds, layout,
                             nme_exemplars=(*ex, ex_labels))
    assert overall == 100.0


def test_chunked_evaluation_matches_one_forward(monkeypatch):
    rng = np.random.default_rng(7)
    params = mdl.init_params(4, 3, seed=7)
    audio, visual = make_samples(rng, 7)
    whole = np.argmax(mdl.forward(params, audio, visual).logits.data, axis=1)
    monkeypatch.setattr(mx, "EVAL_CHUNK", 3)
    assert np.array_equal(mx._predict_head(params, audio, visual, "audiovisual"), whole)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcil import metrics as mx
from avcil import model as mdl
from avcil.errors import ContractError, NumericDomainError
from avcil.objectives import TaskLayout


def make_samples(rng, n, d=4, l=2, s=2):
    return rng.normal(size=(n, d)), rng.normal(size=(n, l, s, d))


def stacked(*sets):
    """The (audio, visual) sample sets `sets` as one pair of arrays, and
    the rows each set holds in it."""
    arrays = tuple(np.concatenate(parts) for parts in zip(*sets))
    ends = np.cumsum([len(audio) for audio, _ in sets])
    return arrays, [np.arange(end - len(audio), end) for (audio, _), end in zip(sets, ends)]


def test_mean_accuracy_reference_row():
    assert abs(mx.mean_accuracy([79.81, 77.14, 71.43, 67.77]) - 74.04) <= 0.005


def test_mean_accuracy_of_the_overall_list_and_rejects_empty():
    assert mx.mean_accuracy([50.0, 50.0]) == 50.0
    with pytest.raises(ContractError):
        mx.mean_accuracy([])


def test_average_forgetting_reference_matrix():
    assert mx.average_forgetting([[90.0], [80.0, 85.0], [70.0, 75.0, 99.0]]) == 12.5


def test_average_forgetting_single_step_is_undefined():
    assert mx.average_forgetting([[88.0]]) is None


def test_average_forgetting_can_be_negative():
    assert mx.average_forgetting([[50.0], [70.0, 60.0]]) == -20.0


def _square_forgetting(rows):
    """Forgetting over the triangle padded into a NaN-filled square: the
    formula `average_forgetting` had before it read the rows directly."""
    t_total = len(rows)
    if t_total < 2:
        return None
    per_task = np.full((t_total, t_total), np.nan)
    for i, row in enumerate(rows):
        per_task[i, : i + 1] = row
    per_step = []
    for t in range(1, t_total):
        drops = [np.max(per_task[i:t, i]) - per_task[t, i] for i in range(t)]
        per_step.append(float(np.mean(drops)))
    return float(np.mean(per_step))


ACCURACY = st.floats(0.0, 100.0)


@st.composite
def triangles(draw):
    steps = draw(st.integers(1, 12))
    rows = [draw(st.lists(ACCURACY, min_size=t + 1, max_size=t + 1)) for t in range(steps)]
    return rows, draw(st.lists(ACCURACY, min_size=steps, max_size=steps))


def _bits(value):
    return None if value is None else np.float64(value).tobytes()


@settings(max_examples=200, deadline=None)
@given(triangles())
def test_triangle_formulas_match_the_nan_square_reference(case):
    rows, overall = case
    assert _bits(mx.average_forgetting(rows)) == _bits(_square_forgetting(rows))
    assert _bits(mx.mean_accuracy(overall)) == \
        _bits(float(np.mean(np.asarray(overall, dtype=np.float64))))


def test_evaluate_perfect_and_constant_predictors():
    rng = np.random.default_rng(0)
    params = mdl.init_params(4, 3, seed=0)
    samples, rows = make_samples(rng, 12), np.arange(12)
    layout = TaskLayout((2, 1))
    logits_labels = mx._predict_head(mdl.snapshot(params), rows, *samples, "audiovisual")
    overall, per_task = mx.evaluate(params, rows, *samples, logits_labels, layout)
    assert overall == 100.0 and per_task[0] == 100.0 and per_task[1] == 100.0
    wrong = (logits_labels + 1) % 3
    overall_w, _ = mx.evaluate(params, rows, *samples, wrong, layout)
    assert overall_w == 0.0


def test_evaluate_overall_is_sample_weighted():
    rng = np.random.default_rng(1)
    params = mdl.init_params(4, 4, seed=1)
    samples, rows = make_samples(rng, 10), np.arange(10)
    layout = TaskLayout((2, 2))
    preds = mx._predict_head(mdl.snapshot(params), rows, *samples, "audiovisual")
    labels = preds.copy()
    labels[:3] = (labels[:3] + 1) % 4  # break three samples
    overall, per_task = mx.evaluate(params, rows, *samples, labels, layout)
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
        mx.evaluate(params, np.arange(3), *samples, [0, 1, 2], TaskLayout((2,)))


@pytest.mark.parametrize("modality", ["audio", "visual"])
@pytest.mark.parametrize("nme", [False, True])
def test_evaluate_rejects_non_finite_parameters_a_softmax_never_meets(modality, nme):
    # these modalities run no attention softmax, so NaN would reach the ranking
    rng = np.random.default_rng(8)
    params = mdl.init_params(4, 2, seed=8)
    params.cls_weight.data[0, 0] = np.nan                   # the head's logits
    if nme:                                                 # the fused features
        params.u_audio.data[0, 0] = params.u_visual.data[0, 0] = np.nan
    samples, (rows, ex_rows) = stacked(make_samples(rng, 4), make_samples(rng, 2))
    exemplars = (ex_rows, [0, 1]) if nme else None
    with pytest.raises(NumericDomainError, match="non-finite"):
        mx.evaluate(params, rows, *samples, [0, 1, 0, 1], TaskLayout((2,)), modality, exemplars)


def test_nme_zero_distance_exemplar_wins():
    rng = np.random.default_rng(3)
    params = mdl.init_params(4, 2, seed=3)
    queries, rows = make_samples(rng, 2), np.arange(2)
    # one exemplar per class, each literally a query: distance to its own mean is 0
    preds = mx.nme_classify(params, rows, [0, 1], rows, *queries, num_classes=2)
    assert np.array_equal(preds, [0, 1])


def test_nme_requires_every_class():
    rng = np.random.default_rng(4)
    params = mdl.init_params(4, 3, seed=4)
    samples, (ex_rows, rows) = stacked(make_samples(rng, 2), make_samples(rng, 1))
    with pytest.raises(ContractError, match="class 2"):
        mx.nme_classify(params, ex_rows, [0, 1], rows, *samples, num_classes=3)


def test_nme_is_deterministic():
    rng = np.random.default_rng(5)
    params = mdl.init_params(4, 3, seed=5)
    ex = make_samples(rng, 9)
    ex_labels = [0, 1, 2] * 3
    samples, (ex_rows, rows) = stacked(ex, make_samples(rng, 6))
    a = mx.nme_classify(params, ex_rows, ex_labels, rows, *samples, num_classes=3)
    b = mx.nme_classify(params, ex_rows, ex_labels, rows, *samples, num_classes=3)
    assert np.array_equal(a, b)


def test_nme_in_chunks_matches_one_piece_distances():
    rng = np.random.default_rng(8)
    params = mdl.init_params(4, 5, seed=8)
    ex = make_samples(rng, 15)
    ex_labels = np.arange(15) % 5
    samples, (ex_rows, rows) = stacked(ex, make_samples(rng, mx.EVAL_CHUNK + 45))
    frozen = mdl.snapshot(params)
    feats = mx._forward_rows(frozen, ex_rows, *samples, "audiovisual", "fused")
    means = np.stack([feats[ex_labels == c].mean(axis=0) for c in range(5)])
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    q = mx._forward_rows(frozen, rows, *samples, "audiovisual", "fused")
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    whole = np.argmin(np.linalg.norm(q[:, None, :] - means[None, :, :], axis=2), axis=1)
    assert len(set(whole.tolist())) > 1
    preds = mx.nme_classify(params, ex_rows, ex_labels, rows, *samples, num_classes=5)
    assert np.array_equal(preds, whole)


def test_evaluate_with_nme_path():
    rng = np.random.default_rng(6)
    params = mdl.init_params(4, 3, seed=6)
    layout = TaskLayout((2, 1))
    samples, (rows, ex_rows) = stacked(make_samples(rng, 6), make_samples(rng, 6))
    ex_labels = [0, 0, 1, 1, 2, 2]
    preds = mx.nme_classify(params, ex_rows, ex_labels, rows, *samples, num_classes=3)
    overall, _ = mx.evaluate(params, rows, *samples, preds, layout,
                             nme_exemplars=(ex_rows, ex_labels))
    assert overall == 100.0


def test_chunked_evaluation_matches_one_forward(monkeypatch):
    rng = np.random.default_rng(7)
    params = mdl.init_params(4, 3, seed=7)
    audio, visual = make_samples(rng, 7)
    whole = np.argmax(mdl.forward(params, audio, visual).logits.data, axis=1)
    monkeypatch.setattr(mx, "EVAL_CHUNK", 3)
    for rows in (np.arange(7), rng.permutation(7)[:5]):     # every row, or some in any order
        assert np.array_equal(mx._predict_head(params, rows, audio, visual, "audiovisual"),
                              whole[rows])

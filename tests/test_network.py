import tracemalloc

import numpy as np
import pytest

from josnc.diffmath import DiffMathError, Tensor, ema_update
from josnc.harness import load_checkpoint, save_checkpoint
from josnc.network import Model, ModelConfig, forward_arrays

from oracles import tape_forward, tape_params


def make_model(rng, input_dim=6, n_classes=4, hidden=(16, 16), embed=8):
    return Model(ModelConfig(input_dim, n_classes, hidden, embed), rng)


def test_forward_shapes_and_probs(rng):
    m = make_model(rng)
    x = rng.normal(size=(5, 6))
    h, probs, emb = m.forward(x)
    assert h.data.shape == (5, 16)
    assert probs.data.shape == (5, 4)
    np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(5), atol=1e-12)
    assert np.all(probs.data > 0)
    norms = np.sqrt((emb.data ** 2).sum(axis=1))
    np.testing.assert_allclose(norms, np.ones(5), atol=1e-9)


def test_zero_classifier_gives_uniform(rng):
    m = make_model(rng)
    m.params["classifier.W"].data[:] = 0.0
    m.params["classifier.b"].data[:] = 0.0
    _, probs, _ = m.forward(rng.normal(size=(3, 6)))
    np.testing.assert_allclose(probs.data, np.full((3, 4), 0.25), atol=1e-12)


def test_forward_rejects_wrong_dim(rng):
    # the forward pass checks no shape: fit checks its inputs' width once,
    # and a direct caller's wrong width fails at the first matmul
    m = make_model(rng)
    with pytest.raises(ValueError, match="matmul"):
        m.forward(rng.normal(size=(3, 7)))
    with pytest.raises(ValueError, match="matmul"):
        forward_arrays(m.arrays, m.config, rng.normal(size=(3, 7)))


def test_forward_arrays_matches_tape_forward(rng):
    # the one forward pass, as arrays and as graph nodes, has the bits of
    # the generic tape's op-by-op forward
    m = make_model(rng)
    x = rng.normal(size=(7, 6))
    _, probs_n, emb_n = m.forward(x)
    _, probs_t, emb_t = tape_forward(tape_params(m.snapshot()), m.config, x)
    probs_a, emb_a = forward_arrays(m.arrays, m.config, x)
    for got in (probs_a, probs_n.data):
        assert np.array_equal(got, probs_t.data)
    for got in (emb_a, emb_n.data):
        assert np.array_equal(got, emb_t.data)
    # a dead projection pins every embedding to the first basis vector
    m.params["projection.W"].data[:] = 0.0
    m.params["projection.b"].data[:] = 0.0
    _, emb_a = forward_arrays(m.arrays, m.config, x)
    assert np.array_equal(emb_a, np.eye(8)[[0] * 7])
    assert np.array_equal(emb_a, m.forward(x)[2].data)


def test_a_head_left_out_is_none_and_moves_no_bit_of_the_other(rng):
    m = make_model(rng)
    x = rng.normal(size=(7, 6))
    probs, emb = forward_arrays(m.arrays, m.config, x)
    assert forward_arrays(m.arrays, m.config, x, projection=False)[1] is None
    assert forward_arrays(m.arrays, m.config, x, classifier=False)[0] is None
    assert forward_arrays(m.arrays, m.config, x,
                          projection=False)[0].tobytes() == probs.tobytes()
    assert forward_arrays(m.arrays, m.config, x,
                          classifier=False)[1].tobytes() == emb.tobytes()
    _, p_node, none = m.forward(x, projection=False)
    assert none is None and p_node.data.tobytes() == probs.tobytes()


def test_projection_without_classifier_rejects_nonfinite_norms(rng):
    # without the softmax's check, the projection's own catches an overflow
    m = make_model(rng)
    x = rng.normal(size=(7, 6))
    huge = {k: a * 1e200 for k, a in m.arrays.items()}
    nan = {k: a.copy() for k, a in m.arrays.items()}
    nan["projection.b"][3] = np.nan
    for params in (huge, nan):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DiffMathError, match="projection row norms"):
            forward_arrays(params, m.config, x, classifier=False)


def test_evaluation_forward_holds_under_three_activations(rng):
    # each layer is computed in one array, and only layer inputs are kept,
    # so an 800-row evaluation forward through (64, 64) peaks below three
    # hidden activations
    m = make_model(rng, input_dim=32, n_classes=8, hidden=(64, 64), embed=32)
    x = rng.normal(size=(800, 32))
    tracemalloc.start()
    try:
        forward_arrays(m.arrays, m.config, x, projection=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 800 * 64 * 8


def test_forward_arrays_builds_no_graph(rng, monkeypatch):
    m = make_model(rng)
    built = []
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    forward_arrays(m.arrays, m.config, rng.normal(size=(7, 6)))
    assert built == []
    assert len(m.forward(rng.normal(size=(7, 6)))) == len(built) == 3


def test_teacher_snapshot_is_off_tape(rng):
    m = make_model(rng)
    teacher = m.snapshot()
    for name, arr in teacher.items():
        assert isinstance(arr, np.ndarray)
        assert arr is not m.params[name].data
        np.testing.assert_array_equal(arr, m.params[name].data)


def test_params_are_views_of_two_flat_buffers(tmp_path, rng):
    m = make_model(rng)
    assert list(m.params) == list(m.layout) == sorted(m.layout)
    assert m.flat.size == m.grad.size == sum(
        t.data.size for t in m.params.values())
    for name, t in m.params.items():
        assert t.data.shape == t.grad.shape == m.layout[name]
        assert np.shares_memory(t.data, m.flat)
        assert np.shares_memory(t.grad, m.grad)
    assert not m.grad.any()
    # name_at maps each element of the layout to its parameter
    assert [m.name_at(i) for i in range(m.flat.size)] == [
        name for name, t in m.params.items() for _ in range(t.data.size)]
    with pytest.raises(IndexError):
        m.name_at(m.flat.size)
    # the layout is checkpoint.bin's order: its members are the student's
    # parameters, then the teacher's, each in layout order, and their arrays
    # in member order are the student buffer, then the teacher's
    path = str(tmp_path / "ckpt.bin")
    teacher = m.flat + 1.0
    save_checkpoint(path, m.arrays, m.views(teacher))
    with np.load(path) as npz:
        assert npz.files == [f"{part}.{name}" for part in ("student", "teacher")
                             for name in m.layout]
        members = b"".join(npz[key].tobytes() for key in npz.files)
    assert members == m.flat.tobytes() + teacher.tobytes()


# EMA --------------------------------------------------------------------------

def test_ema_fixed_point_when_equal(rng):
    m = make_model(rng)
    flat = m.flat.copy()
    before = m.views(flat.copy())
    ema_update(flat, m.flat, 0.99)
    teacher = m.views(flat)
    for k in teacher:
        np.testing.assert_allclose(teacher[k], before[k], atol=1e-15)


def test_ema_omega_zero_copies_student(rng):
    m = make_model(rng)
    flat = np.zeros_like(m.flat)
    ema_update(flat, m.flat, 0.0)
    teacher = m.views(flat)
    for k in teacher:
        np.testing.assert_array_equal(teacher[k], m.params[k].data)


def test_ema_geometric_convergence(rng):
    # constant student: gap after t steps is omega^t * initial gap
    m = make_model(rng)
    omega = 0.9
    flat = m.flat + 1.0
    for _ in range(10):
        ema_update(flat, m.flat, omega)
    teacher = m.views(flat)
    for k in teacher:
        gap = teacher[k] - m.params[k].data
        np.testing.assert_allclose(gap, np.full_like(gap, omega ** 10), atol=1e-12)


# checkpoints --------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, rng):
    m = make_model(rng)
    student = m.snapshot()
    teacher = {k: v + rng.normal(size=v.shape) for k, v in student.items()}
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, student, teacher)
    s2, t2 = load_checkpoint(path)
    assert set(s2) == set(student) and set(t2) == set(teacher)
    for k in student:
        np.testing.assert_array_equal(s2[k], student[k])
        np.testing.assert_array_equal(t2[k], teacher[k])


def test_checkpoint_bytes_deterministic(tmp_path, rng):
    m = make_model(rng)
    student = m.snapshot()
    teacher = m.snapshot()
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(p1, student, teacher)
    save_checkpoint(p2, student, teacher)
    assert open(p1, "rb").read() == open(p2, "rb").read()

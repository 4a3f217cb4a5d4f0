import numpy as np
import pytest

from refvos.autodiff import DimensionError, Tensor, grad_check, linear
from refvos.encoder import FrameFeatures, TextEmbeddings
from refvos.fusion import (cross_modal_project, dense_attention,
                           hierarchical_dense_attention)
from refvos.model import Model, ModelConfig


def make_text(rng, length=3, width=64):
    words = Tensor(rng.normal(size=(length, width)))
    return TextEmbeddings(words=words, sentence=words.mean(axis=0))


def random_params(rng, *layers):
    """Random weights and biases for each (name, n_in, n_out) layer."""
    params = {}
    for name, n_in, n_out in layers:
        params[name + ".weight"] = Tensor(rng.normal(size=(n_in, n_out)) / np.sqrt(n_in),
                                          requires_grad=True)
        params[name + ".bias"] = Tensor(rng.normal(0.0, 0.1, n_out), requires_grad=True)
    return params


def cmm_params(rng, c_e, hidden, c_v):
    return random_params(rng, ("cmm.fc1", c_e, hidden), ("cmm.fc2", hidden, c_v))


def hda_params(rng, c_v, c_mid):
    """Four dense-attention branches and the three mid-map reductions."""
    return random_params(rng, *[(f"hda.da{i}.conv", 2 * c_v, c_v) for i in range(4)],
                         *[(f"hda.reduce{i}", c_mid, c_v) for i in range(1, 4)])


def make_sparse(rng, length, c_v):
    return TextEmbeddings(words=Tensor(rng.normal(size=(length, c_v))),
                          sentence=Tensor(rng.normal(size=c_v)))


def brute_force_dense(feat, sentence, words, W, b):
    """Triple-nested-loop oracle over pixels, tokens, channels; feat is
    (pixels, C_v) rows."""
    n_pix, c_v = feat.shape
    tokens = np.concatenate([sentence[None], words], axis=0)
    n_tok = tokens.shape[0]
    attended = np.zeros((n_pix, c_v))
    attn = np.zeros((n_pix, n_tok))
    for p in range(n_pix):
        pix = feat[p]
        scores = np.array([sum(pix[c] * tokens[j, c] for c in range(c_v)) / np.sqrt(c_v)
                           for j in range(n_tok)])
        e = np.exp(scores - scores.max())
        attn[p] = e / e.sum()
        for c in range(c_v):
            attended[p, c] = sum(attn[p, j] * tokens[j, c] for j in range(n_tok))
    dense = np.zeros((n_pix, c_v))
    for p in range(n_pix):
        stacked = list(attended[p]) + list(feat[p])
        for co in range(c_v):
            dense[p, co] = b[co] + sum(stacked[ci] * W[ci, co] for ci in range(2 * c_v))
    return dense, attn


def test_cross_modal_shapes():
    rng = np.random.default_rng(0)
    params = cmm_params(rng, 64, 256, 256)
    sp = cross_modal_project(make_text(rng, length=3, width=64), params)
    assert sp.words.shape == (3, 256)
    assert sp.sentence.shape == (256,)


def test_cross_modal_zero_input_zero_biases():
    params = Model(ModelConfig(text_width=8, hidden=8, channels=8, blocks=2,
                               token_width=8, adapter_width=4, vocab_size=8), seed=1).params
    text = TextEmbeddings(words=Tensor(np.zeros((2, 8))), sentence=Tensor(np.zeros(8)))
    sp = cross_modal_project(text, params)
    assert np.allclose(sp.words.data, 0)
    assert np.allclose(sp.sentence.data, 0)


def test_cross_modal_matches_mlp_oracle():
    rng = np.random.default_rng(2)
    params = cmm_params(rng, 2, 2, 2)
    text = make_text(rng, length=1, width=2)
    sp = cross_modal_project(text, params)
    h = np.maximum(text.words.data @ params["cmm.fc1.weight"].data
                   + params["cmm.fc1.bias"].data, 0)
    expect = h @ params["cmm.fc2.weight"].data + params["cmm.fc2.bias"].data
    assert np.allclose(sp.words.data, expect)


@pytest.mark.parametrize("mlp", [True, False], ids=["mlp", "single_projection"])
def test_cross_modal_width_mismatch(mlp):
    # the words are 9 wide where the first weight takes 8: its `linear` raises
    rng = np.random.default_rng(3)
    params = cmm_params(rng, 8, 8, 8) if mlp else random_params(rng, ("cmm.proj", 8, 8))
    with pytest.raises(DimensionError):
        cross_modal_project(make_text(rng, width=9), params)


def test_dense_attention_symmetric_single_pixel():
    rng = np.random.default_rng(4)
    c_v = 4
    vec = rng.normal(size=c_v)
    sparse = TextEmbeddings(words=Tensor(vec[None]), sentence=Tensor(vec.copy()))
    params = hda_params(rng, c_v, c_v)
    _, attn = dense_attention(Tensor(rng.normal(size=(1, c_v))), sparse, params)
    assert np.allclose(attn.data, [[0.5, 0.5]])


def test_dense_attention_rows_sum_to_one():
    rng = np.random.default_rng(5)
    c_v = 8
    params = hda_params(rng, c_v, c_v)
    for _ in range(30):
        sparse = make_sparse(rng, int(rng.integers(1, 4)), c_v)
        feat = Tensor(rng.normal(size=(6, c_v)))
        _, attn = dense_attention(feat, sparse, params)
        assert np.all(attn.data >= 0)
        assert np.allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)


def test_dense_attention_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c_v = int(rng.integers(1, 9))
        h0, w0 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        length = int(rng.integers(1, 4))
        feat = rng.normal(size=(h0 * w0, c_v))
        sparse = make_sparse(rng, length, c_v)
        params = hda_params(rng, c_v, c_v)
        out, attn = dense_attention(Tensor(feat), sparse, params)
        expect, expect_attn = brute_force_dense(feat, sparse.sentence.data, sparse.words.data,
                                         params["hda.da0.conv.weight"].data,
                                         params["hda.da0.conv.bias"].data)
        assert np.allclose(out.data, expect, atol=1e-9)
        assert np.allclose(attn.data, expect_attn, atol=1e-9)


def test_dense_attention_channel_mismatch():
    rng = np.random.default_rng(8)
    params = hda_params(rng, 4, 4)
    with pytest.raises(DimensionError):
        dense_attention(Tensor(rng.normal(size=(4, 4))), make_sparse(rng, 2, 6), params)


def test_word_permutation_permutes_attention_columns():
    rng = np.random.default_rng(9)
    c_v = 6
    params = hda_params(rng, c_v, c_v)
    sparse = make_sparse(rng, 3, c_v)
    feat = Tensor(rng.normal(size=(6, c_v)))
    perm = [2, 0, 1]
    permuted = TextEmbeddings(words=Tensor(sparse.words.data[perm]),
                              sentence=Tensor(sparse.sentence.data.copy()))
    out_a, attn_a = dense_attention(feat, sparse, params)
    out_b, attn_b = dense_attention(feat, permuted, params)
    assert np.allclose(attn_b.data[:, 1:], attn_a.data[:, 1:][:, perm])
    assert np.allclose(attn_b.data[:, 0], attn_a.data[:, 0])
    assert np.allclose(out_b.data, out_a.data, atol=1e-12)


def test_hda_equals_sum_of_branches():
    rng = np.random.default_rng(10)
    c_v, c_mid = 8, 4
    params = hda_params(rng, c_v, c_mid)
    sparse = make_sparse(rng, 2, c_v)
    ff = FrameFeatures(final=Tensor(rng.normal(size=(9, c_v))),
                       mids=[Tensor(rng.normal(size=(9, c_mid))) for _ in range(3)], grid=(3, 3))
    total = hierarchical_dense_attention(ff, sparse, params)
    assert total.shape == (9, c_v)

    acc = dense_attention(ff.final, sparse, params, prefix="hda.da0.")[0].data
    for i, mid in enumerate(ff.mids, start=1):
        red = linear(mid, params[f"hda.reduce{i}.weight"], params[f"hda.reduce{i}.bias"])
        acc = acc + dense_attention(red, sparse, params, prefix=f"hda.da{i}.")[0].data
    assert np.array_equal(total.data, acc)


def test_hda_stack_equals_per_frame_calls():
    rng = np.random.default_rng(12)
    c_v, c_mid, frames = 8, 4, 5
    params = hda_params(rng, c_v, c_mid)
    sparse = make_sparse(rng, 3, c_v)
    ff = FrameFeatures(final=Tensor(rng.normal(size=(frames, 6, c_v))),
                       mids=[Tensor(rng.normal(size=(frames, 6, c_mid))) for _ in range(3)],
                       grid=(3, 2))
    total = hierarchical_dense_attention(ff, sparse, params)
    out, attn = dense_attention(ff.final, sparse, params)
    assert total.shape == (frames, 6, c_v)
    for t in range(frames):
        one_ff = FrameFeatures(final=ff.final[t], mids=[m[t] for m in ff.mids], grid=ff.grid)
        assert np.array_equal(total[t].data,
                              hierarchical_dense_attention(one_ff, sparse, params).data)
        one, one_attn = dense_attention(ff.final[t], sparse, params)
        assert np.array_equal(out[t].data, one.data)
        assert np.array_equal(attn.data[t], one_attn.data)


def test_grad_check_through_projection_and_attention():
    rng = np.random.default_rng(11)
    c_e, c_v = 4, 4
    cmm = cmm_params(rng, c_e, 4, c_v)
    hda = hda_params(rng, c_v, c_v)
    feat = rng.normal(size=(4, c_v))
    words = rng.normal(size=(2, c_e))

    def f(x):
        text = TextEmbeddings(words=x.reshape(2, c_e),
                              sentence=x.reshape(2, c_e).mean(axis=0))
        sp = cross_modal_project(text, cmm)
        out, _ = dense_attention(Tensor(feat), sp, hda)
        return out.sum()

    assert grad_check(f, Tensor(words.reshape(-1))) < 1e-4

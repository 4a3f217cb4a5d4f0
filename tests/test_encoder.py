from dataclasses import replace

import numpy as np
import pytest

from refvos.autodiff import DimensionError, Tensor, layer_norm, linear
from refvos.encoder import (ConfigurationError, ReferringExpression,
                            adapter_forward, encode_frame, encode_text,
                            pool_sentence)
from refvos.model import Model, ModelConfig

SMALL_TEXT = dict(text_width=8, vocab_size=8, hidden=8)


def toy_cfg(**kw):
    base = dict(patch_size=8, blocks=2, token_width=32, channels=32,
                adapter_width=4, **SMALL_TEXT)
    base.update(kw)
    return ModelConfig(**base)


def toy_params(cfg, seed=0):
    """The parameters of a fresh model with config `cfg`; its encoder draws
    from the stream seeded with seed + 1."""
    return Model(cfg, seed=seed).params


def rand_frame(rng, h=64, w=64):
    return rng.random((3, h, w))


def test_config_validation():
    with pytest.raises(ConfigurationError, match="model.blocks must be even"):
        toy_cfg(blocks=3)
    with pytest.raises(ConfigurationError, match="model.adapter_width must be <"):
        toy_cfg(token_width=8, adapter_width=8)


def test_tap_indices_derive_from_block_count():
    assert ModelConfig(blocks=2).tap_indices == (0, 0, 1)
    assert ModelConfig(blocks=4).tap_indices == (1, 2, 3)
    assert ModelConfig(blocks=8).tap_indices == (2, 4, 6)
    with pytest.raises(AttributeError):
        ModelConfig().tap_indices = (0, 1, 2)


def test_adapter_blocks_are_latter_half():
    assert tuple(ModelConfig(blocks=4).adapter_blocks) == (2, 3)
    assert tuple(toy_cfg().adapter_blocks) == (1,)


def test_encode_frame_shapes():
    cfg = toy_cfg()
    params = toy_params(cfg)
    ff = encode_frame(np.random.default_rng(0).random((3, 64, 64)), cfg, params)
    assert ff.final.shape == (32, 8, 8)
    assert len(ff.mids) == 3
    assert all(m.shape == (cfg.token_width, 8, 8) for m in ff.mids)


def test_encode_frame_default_out_channels_256():
    cfg = ModelConfig(patch_size=8, blocks=2, token_width=32, adapter_width=4,
                      **SMALL_TEXT)
    params = toy_params(cfg)
    ff = encode_frame(np.random.default_rng(1).random((3, 64, 64)), cfg, params)
    assert ff.final.shape == (256, 8, 8)


def test_encode_frame_rejects_indivisible_dims():
    cfg = toy_cfg()
    with pytest.raises(Exception):
        encode_frame(np.zeros((3, 60, 64)), cfg, toy_params(cfg))


def test_encode_frame_stack_equals_per_frame_calls():
    cfg = toy_cfg()
    params = toy_params(cfg)
    rng = np.random.default_rng(9)
    for p in params.values():     # nonzero adapters, so every branch counts
        p.data = p.data + rng.normal(0.0, 0.1, p.data.shape)
    frames = rng.random((2, 3, 3, 64, 32))
    stacked = encode_frame(frames, cfg, params)
    listed = encode_frame(list(frames[1]), cfg, params)
    assert stacked.final.shape == (2, 3, 32, 8, 4)
    assert np.array_equal(listed.final.data, stacked.final.data[1])
    for i in range(2):
        for t in range(3):
            one = encode_frame(frames[i, t], cfg, params)
            assert np.array_equal(stacked[i][t].final.data, one.final.data)
            for a, b in zip(stacked[i][t].mids, one.mids, strict=True):
                assert np.array_equal(a.data, b.data)


def test_encode_frame_rejects_mixed_sizes():
    cfg = toy_cfg()
    rng = np.random.default_rng(10)
    with pytest.raises(DimensionError, match="share one size"):
        encode_frame([rand_frame(rng), rand_frame(rng, w=32)], cfg, toy_params(cfg))


def test_encode_frame_deterministic():
    cfg = toy_cfg()
    params = toy_params(cfg)
    frame = np.random.default_rng(2).random((3, 64, 64))
    a = encode_frame(frame, cfg, params)
    b = encode_frame(frame, cfg, params)
    assert np.array_equal(a.final.data, b.final.data)
    for ma, mb in zip(a.mids, b.mids):
        assert np.array_equal(ma.data, mb.data)


def test_encode_frame_golden_regression():
    cfg = toy_cfg()
    params = toy_params(cfg, seed=10)
    frame = (np.arange(3 * 64 * 64).reshape(3, 64, 64) % 97) / 97.0
    ff = encode_frame(frame, cfg, params)
    # frozen from the first verified run of this configuration
    assert abs(float(np.abs(ff.final.data).sum()) - 1678.6541285072958) < 1e-8
    assert abs(float(np.abs(ff.mids[0].data).sum()) - 2780.3647828993967) < 1e-8


def test_adapter_zero_init_is_identity():
    cfg = toy_cfg()
    params = toy_params(cfg)
    rng = np.random.default_rng(3)
    tokens = Tensor(rng.normal(size=(10, 32)))
    out = adapter_forward(tokens, params, "encoder.block1.adapter1.")
    assert np.array_equal(out.data, tokens.data)


def test_adapter_zero_init_encoder_transparency():
    cfg = toy_cfg()
    params = toy_params(cfg)
    frame = np.random.default_rng(4).random((3, 64, 64))
    with_ad = encode_frame(frame, cfg, params)
    without = encode_frame(frame, replace(cfg, adapter=False), params)
    assert np.array_equal(with_ad.final.data, without.final.data)


def test_adapter_bias_only_path():
    rng = np.random.default_rng(5)
    d, r = 6, 2
    params = {
        "a.down.weight": Tensor(np.zeros((d, r))),
        "a.down.bias": Tensor(rng.normal(size=r)),
        "a.up.weight": Tensor(rng.normal(size=(r, d))),
        "a.up.bias": Tensor(np.zeros(d)),
    }
    tokens = Tensor(rng.normal(size=(4, d)))
    out = adapter_forward(tokens, params, "a.")
    shift = np.maximum(params["a.down.bias"].data, 0) @ params["a.up.weight"].data
    assert np.allclose(out.data, tokens.data + shift)


def test_adapter_matches_composed_ops():
    rng = np.random.default_rng(6)
    d, r = 2, 1
    params = {
        "a.down.weight": Tensor(rng.normal(size=(d, r))),
        "a.down.bias": Tensor(rng.normal(size=r)),
        "a.up.weight": Tensor(rng.normal(size=(r, d))),
        "a.up.bias": Tensor(rng.normal(size=d)),
    }
    tokens = Tensor(rng.normal(size=(3, d)))
    out = adapter_forward(tokens, params, "a.")
    oracle = tokens + linear(
        linear(tokens, params["a.down.weight"], params["a.down.bias"]).relu(),
        params["a.up.weight"], params["a.up.bias"])
    assert np.allclose(out.data, oracle.data)


# ---- text -----------------------------------------------------------------

def test_expression_validation():
    with pytest.raises(ValueError):
        ReferringExpression(words=[])
    with pytest.raises(ValueError):
        ReferringExpression(words=["The"])
    with pytest.raises(ValueError):
        ReferringExpression(words=["a"] * 40)


def text_table(seed, width=16, vocab_size=4096):
    model = Model(ModelConfig(blocks=2, token_width=8, adapter_width=4, channels=8, hidden=8,
                              text_width=width, vocab_size=vocab_size), seed=seed)
    return model.params["text.table"]


def test_toy_text_identical_tokens_identical_rows():
    emb = encode_text(ReferringExpression(words=["cat", "cat"]), text_table(seed=0))
    assert np.array_equal(emb.words.data[0], emb.words.data[1])


def test_single_word_sentence_equals_word():
    emb = encode_text(ReferringExpression(words=["dog"]), text_table(seed=0))
    assert np.allclose(emb.sentence.data, emb.words.data[0])


def test_sentence_is_mean_of_words():
    emb = encode_text(ReferringExpression(words=["red", "square"]), text_table(seed=0))
    assert np.allclose(emb.sentence.data, emb.words.data.mean(axis=0))


def test_pool_sentence_cases():
    assert np.allclose(pool_sentence(Tensor([[1.0, 3.0]])).data, [1.0, 3.0])
    assert np.allclose(pool_sentence(Tensor([[1.0, 2.0], [-1.0, -2.0]])).data, [0.0, 0.0])
    assert np.allclose(pool_sentence(Tensor([[1.0, 3.0], [3.0, 5.0]])).data, [2.0, 4.0])


def test_text_encoding_deterministic():
    a = encode_text(ReferringExpression(words=["blue", "circle"]), text_table(seed=9))
    b = encode_text(ReferringExpression(words=["blue", "circle"]), text_table(seed=9))
    assert np.array_equal(a.words.data, b.words.data)


# ---- freezing -------------------------------------------------------------

def test_freeze_partition_laws():
    model = Model(ModelConfig(**dict(SMALL_TEXT, patch_size=8, blocks=2, token_width=32,
                                     channels=32, adapter_width=4)))
    frozen, trainable = model.partition()
    assert frozen | trainable == set(model.params)
    assert not (frozen & trainable)
    assert "encoder.block1.adapter1.down.weight" in trainable
    assert "encoder.patch.weight" in frozen
    assert "text.table" in frozen
    assert {"cmm.fc1.weight", "decoder.token.main",
            "hda.da0.conv.weight", "itm.fc1.weight"} <= trainable
    assert all(model.params[n].requires_grad == (n in trainable) for n in model.params)

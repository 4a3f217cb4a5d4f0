"""Plain-numpy references the benchmark checks the program against.

Nothing here imports refvos: the forward pass, the J/F scores and the
AdamW first step are written again from their definitions, so a fault in
the program's autodiff, model, metrics or optimizer code shows as a
disagreement instead of being copied into the expected output.
"""

import hashlib

import numpy as np

LN_EPS = 1e-6


def _ln(x, w, pre):
    xc = x - x.mean(-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(-1, keepdims=True) + LN_EPS) * w[pre + "gamma"] + w[pre + "beta"]


def _lin(x, w, pre):
    return x @ w[pre + "weight"] + w[pre + "bias"]


def _relu(x):
    return np.maximum(x, 0.0)


def _softmax(x):
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def _attend(q_in, kv_in, w, pre):
    q = _lin(q_in, w, pre + "wq.")
    k = _lin(kv_in, w, pre + "wk.")
    v = _lin(kv_in, w, pre + "wv.")
    return _lin(_softmax(q @ k.T / np.sqrt(q.shape[-1])) @ v, w, pre + "wo.")


def _positions(width, h, w):
    """(h*w, width) table: sin and cos of the row, then of the column."""
    quarter = width // 4
    freq = 10000.0 ** (-np.arange(quarter) / quarter)
    rows, cols = np.divmod(np.arange(h * w), w)
    rows, cols = rows[:, None] * freq, cols[:, None] * freq
    return np.concatenate([np.sin(rows), np.cos(rows), np.sin(cols), np.cos(cols)], axis=1)


def _to_map(tokens, h, w):
    return tokens.T.reshape(tokens.shape[1], h, w)


def _to_tokens(fmap):
    return fmap.reshape(fmap.shape[0], -1).T


def _encode(frame, w, arch):
    ps, blocks = arch["patch_size"], arch["blocks"]
    _, h, wd = frame.shape
    h0, w0 = h // ps, wd // ps
    patches = frame.reshape(3, h0, ps, w0, ps).transpose(1, 3, 0, 2, 4).reshape(h0 * w0, -1)
    x = _lin(patches, w, "encoder.patch.")
    x = x + _positions(x.shape[1], h0, w0)
    outputs = []
    for i in range(blocks):
        pre = f"encoder.block{i}."
        adapted = i >= blocks // 2          # the latter half carries adapters
        y = _ln(x, w, pre + "ln1.")
        x = x + _attend(y, y, w, pre + "attn.")
        if adapted:
            x = x + _lin(_relu(_lin(x, w, pre + "adapter1.down.")), w, pre + "adapter1.up.")
        x = x + _lin(_relu(_lin(_ln(x, w, pre + "ln2."), w, pre + "mlp.fc1.")), w, pre + "mlp.fc2.")
        if adapted:
            x = x + _lin(_relu(_lin(x, w, pre + "adapter2.down.")), w, pre + "adapter2.up.")
        outputs.append(x)
    mids = [_to_map(outputs[i], h0, w0) for i in arch["taps"]]
    final = _to_map(_ln(_lin(x, w, "encoder.neck.proj."), w, "encoder.neck.ln."), h0, w0)
    return final, mids


def _bucket(word, vocab):
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % vocab


def _prompts(words, w):
    table = w["text.table"]
    rows = table[[_bucket(word, table.shape[0]) for word in words]]
    project = lambda x: _lin(_relu(_lin(x, w, "cmm.fc1.")), w, "cmm.fc2.")
    return project(rows), project(rows.mean(axis=0))


def _dense_attention(feat, words, sentence, w, pre):
    c, h0, w0 = feat.shape
    tokens = np.vstack([sentence, words])
    pixels = _to_tokens(feat)
    attended = _softmax(pixels @ tokens.T / np.sqrt(c)) @ tokens
    fused = np.concatenate([attended, pixels], axis=1)            # per pixel [attended; visual]
    return _to_map(_lin(fused, w, pre + "conv."), h0, w0)


def _hda(final, mids, words, sentence, w):
    total = _dense_attention(final, words, sentence, w, "hda.da0.")
    for i, mid in enumerate(mids, start=1):
        reduced = _to_map(_lin(_to_tokens(mid), w, f"hda.reduce{i}."), *mid.shape[1:])
        total = total + _dense_attention(reduced, words, sentence, w, f"hda.da{i}.")
    return total


def _upscale(fmap, w, pre):
    """Stride-2 transposed convolution with a 2x2 kernel, then ReLU."""
    kernel, bias = w[pre + "weight"], w[pre + "bias"]            # (C_in, C_out, 2, 2)
    _, h, wd = fmap.shape
    out = np.tensordot(fmap, kernel, axes=([0], [0]))            # (h, w, C_out, 2, 2)
    out = out.transpose(2, 0, 3, 1, 4).reshape(kernel.shape[1], 2 * h, 2 * wd)
    return _relu(out + bias[:, None, None])


def _decode(final, dense, track, words, sentence, w):
    c, h0, w0 = final.shape
    emb = final + dense + _to_map(_positions(c, h0, w0), h0, w0)
    rows = [w["decoder.token.iou"], w["decoder.token.main"]]
    rows += [w[f"decoder.token.scale{i}"] for i in range(3)]
    if track is not None:
        rows.append(track)
    tokens = np.vstack(rows + [sentence, words])
    image = _to_tokens(emb)
    for layer in range(2):
        pre = f"decoder.layer{layer}."
        tokens = _ln(tokens + _attend(tokens, tokens, w, pre + "self."), w, pre + "ln_self.")
        tokens = _ln(tokens + _attend(tokens, image, w, pre + "t2i."), w, pre + "ln_t2i.")
        image = image + _attend(image, tokens, w, pre + "i2t.")
    tokens = _ln(tokens + _attend(tokens, image, w, "decoder.final_attn."), w, "decoder.final_ln.")
    up = _upscale(_upscale(_to_map(image, h0, w0), w, "decoder.up1."), w, "decoder.up2.")
    logits = []
    for i in range(4):
        pre = f"decoder.hyper{i}."
        k = _relu(_lin(_relu(_lin(tokens[1 + i], w, pre + "fc1.")), w, pre + "fc2."))
        logits.append(np.tensordot(_lin(k, w, pre + "fc3."), up, axes=1))
    iou = _lin(_relu(_lin(tokens[0], w, "decoder.iou_head.fc1.")), w, "decoder.iou_head.fc2.")
    return np.stack(logits), 1.0 / (1.0 + np.exp(-iou)), tokens[1]


def _resize_axis(n_out, n_in):
    src = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(int)
    return lo, np.minimum(lo + 1, n_in - 1), src - lo


def resize(maps, h, w):
    """Bilinear resize of (N, h_in, w_in) maps, half-pixel centres, edges clamped."""
    lo, hi, f = _resize_axis(h, maps.shape[1])
    maps = maps[:, lo] * (1.0 - f)[:, None] + maps[:, hi] * f[:, None]
    lo, hi, f = _resize_axis(w, maps.shape[2])
    return maps[:, :, lo] * (1.0 - f) + maps[:, :, hi] * f


def segment(weights, arch, frames, words):
    """Online segmentation of a clip. Returns, per frame, the four mask
    logit maps resized to the frame and the four predicted quality scores."""
    w = {name: np.asarray(arr, dtype=np.float64) for name, arr in weights.items()}
    word_prompts, sentence = _prompts(words, w)
    track = None
    out = []
    for frame in frames:
        final, mids = _encode(np.asarray(frame, dtype=np.float64), w, arch)
        dense = _hda(final, mids, word_prompts, sentence, w)
        logits, iou, main = _decode(final, dense, track, word_prompts, sentence, w)
        out.append((resize(logits, *frame.shape[1:]), iou))
        track = _ln(main + _lin(_relu(_lin(main, w, "itm.fc1.")), w, "itm.fc2."), w, "itm.ln.")
    return out


# ---- J and F by brute force -----------------------------------------------

def _boundary(mask):
    h, w = mask.shape
    pts = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            if y in (0, h - 1) or x in (0, w - 1) or not (
                    mask[y - 1, x] and mask[y + 1, x] and mask[y, x - 1] and mask[y, x + 1]):
                pts.append((y, x))
    return np.array(pts, dtype=float).reshape(-1, 2)


def _matched(src, dst, tol):
    d = np.sqrt(((src[:, None, :] - dst[None, :, :]) ** 2).sum(-1))
    return float((d.min(axis=1) <= tol).mean())


def jf(preds, gts):
    """Frame-averaged J (IoU) and F (boundary F-measure at the DAVIS
    tolerance of 0.8% of the diagonal, rounded up)."""
    js, fs = [], []
    for p, g in zip(preds, gts):
        p, g = np.asarray(p).astype(bool), np.asarray(g).astype(bool)
        union = int((p | g).sum())
        js.append(1.0 if union == 0 else int((p & g).sum()) / union)
        tol = float(np.ceil(0.008 * np.hypot(*p.shape)))
        pb, gb = _boundary(p), _boundary(g)
        if len(pb) == 0 and len(gb) == 0:
            fs.append(1.0)
        elif len(pb) == 0 or len(gb) == 0:
            fs.append(0.0)
        else:
            precision, recall = _matched(pb, gb, tol), _matched(gb, pb, tol)
            fs.append(0.0 if precision + recall == 0 else
                      2 * precision * recall / (precision + recall))
    return float(np.mean(js)), float(np.mean(fs))


# ---- AdamW ------------------------------------------------------------------

def adamw_first_step(param, grad, lr, weight_decay, eps=1e-8):
    """After one step from zero moments the bias-corrected moments are g and
    g^2, so the update is g / (|g| + eps) plus decoupled weight decay."""
    return param - lr * (grad / (np.abs(grad) + eps) + weight_decay * param)

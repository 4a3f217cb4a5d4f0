"""Output checks run after every timed window, and their self-test.

    PYTHONPATH=src python3 perfbench/checks.py

runs the self-test: every check passes on the program as it is and fails
once one weight of the program's model is perturbed. Each check returns a
list of failure messages; an empty list means it passed.
"""

import sys

import numpy as np

import reference
from refvos import tracking
from refvos.optim import AdamW

# A mask pixel is only compared where the reference logit is further than
# this from zero; both sides compute in float64 and agree to ~1e-12.
LOGIT_TOL = 1e-6
# Quality scores closer than this make the mask choice a tie: either mask passes.
IOU_TIE = 1e-9
JF_TOL = 1e-9
# Central differences: step, and the allowed |analytic - numeric| = ATOL + RTOL * |numeric|.
FD_EPS = 1e-6
FD_ATOL = 1e-7
FD_RTOL = 1e-4
# AdamW first step: allowed |program - reference| per element.
ADAMW_TOL = 1e-12
GROUPS = ("cmm", "hda", "decoder", "adapter", "itm")
PROBES_PER_GROUP = 2


def compare_with_reference(masks, ref):
    """Compare program masks with reference outputs frame by frame.

    Returns (failures, resolved): resolved holds the reference masks with
    the within-tolerance pixels taken from the program, for scoring J/F."""
    failures, resolved = [], []
    for t, (mask, (logits, iou)) in enumerate(zip(masks, ref)):
        order = np.argsort(iou)[::-1]
        choices = [order[0]] + ([order[1]] if iou[order[0]] - iou[order[1]] <= IOU_TIE else [])
        best = None
        for c in choices:
            sure = np.abs(logits[c]) > LOGIT_TOL
            wrong = int((sure & (mask.astype(bool) != (logits[c] > 0))).sum())
            if best is None or wrong < best[0]:
                best = (wrong, np.where(sure, logits[c] > 0, mask.astype(bool)))
        if best[0]:
            failures.append(f"frame {t}: {best[0]} mask pixels differ from the reference")
        resolved.append(best[1].astype(np.uint8))
    if len(masks) != len(ref):
        failures.append(f"{len(masks)} masks for {len(ref)} frames")
    return failures, resolved


def check_jf(program_j, program_f, resolved, gts):
    j, f = reference.jf(resolved, gts)
    if abs(j - program_j) > JF_TOL or abs(f - program_f) > JF_TOL:
        return [f"J/F {program_j:.12f}/{program_f:.12f} vs brute force {j:.12f}/{f:.12f}"]
    return []


def check_causality(model, clip, expr, masks, k):
    """Segmenting the first k frames must give the first k masks of the clip."""
    prefix = tracking.segment_clip(model, type(clip)(frames=clip.frames[:k]), expr)
    if len(prefix) != k or not all(np.array_equal(a, b) for a, b in zip(prefix, masks)):
        return [f"the first {k} frames segmented alone differ from the full clip"]
    return []


def snapshot(model, names):
    return {n: model.params[n].data.tobytes() for n in names}


def check_frozen(model, frozen_bytes):
    changed = [n for n, raw in frozen_bytes.items() if model.params[n].data.tobytes() != raw]
    return [f"frozen parameters changed: {', '.join(sorted(changed)[:3])}"] if changed else []


def group_of(name):
    return "adapter" if ".adapter" in name else name.split(".", 1)[0]


def check_train_step(model, sample, cfg, after_step=None, before_fd=None):
    """One program train step from fresh AdamW state on `sample`, checked
    against a reference AdamW step and against central differences of the
    program's loss at a few coordinates of each trainable group. Returns
    {"adamw": failures, "gradients": failures}. The model is left as the
    step left it. The hooks let the self-test perturb it."""
    frames, expr, gts = sample
    params = model.trainable_params()
    rates, decay = cfg.learning_rates(), cfg.train.weight_decay
    before = {n: p.data.copy() for n, p in params.items()}
    tracking.train_step([(frames, expr, gts)], model, AdamW(params, rates, weight_decay=decay),
                        cfg.loss_config())
    grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for n, p in params.items()}
    if after_step:
        after_step(model)
    adamw = []
    for n, p in params.items():
        want = reference.adamw_first_step(before[n], grads[n], rates[group_of(n)], decay)
        if np.max(np.abs(p.data - want)) > ADAMW_TOL:
            adamw.append(f"AdamW step of {n} differs from the reference")
    after = {n: p.data for n, p in params.items()}
    for n, p in params.items():
        p.data = before[n]
    if before_fd:
        before_fd(model)

    def loss():
        return float(tracking.clip_loss(model, frames, expr, gts, cfg.loss_config())[0].data)

    failures = []
    rng = np.random.default_rng(0)
    for group in GROUPS:
        names = sorted(n for n in params if group_of(n) == group)
        if not names:
            failures.append(f"no trainable parameters in group {group}")
            continue
        largest = max(names, key=lambda n: np.abs(grads[n]).max())
        probes = [(largest, int(np.abs(grads[largest]).argmax()))]
        while len(probes) < PROBES_PER_GROUP:
            n = names[int(rng.integers(len(names)))]
            probes.append((n, int(rng.integers(params[n].data.size))))
        for n, i in probes:
            flat = params[n].data.reshape(-1)
            orig = flat[i]
            flat[i] = orig + FD_EPS
            up = loss()
            flat[i] = orig - FD_EPS
            down = loss()
            flat[i] = orig
            numeric = (up - down) / (2 * FD_EPS)
            analytic = grads[n].reshape(-1)[i]
            if abs(analytic - numeric) > FD_ATOL + FD_RTOL * abs(numeric):
                failures.append(f"gradient of {n}[{i}]: backward {analytic:.9g}, "
                                f"central difference {numeric:.9g}")
    for n, p in params.items():
        p.data = after[n]
    return {"adamw": adamw, "gradients": failures}


# ---- self-test ----------------------------------------------------------------

FROZEN_PROBE = "encoder.neck.proj.weight"
TRAINABLE_PROBE = "cmm.fc1.weight"
PERTURBATION = 0.5


def perturb(name):
    def apply(model):
        model.params[name].data.reshape(-1)[0] += PERTURBATION
    return apply


def self_test():
    from refvos import io as rio, metrics
    from refvos.data import SyntheticSpec, generate_clip
    from refvos.model import Model
    import weights

    if not weights.paths("toy")[0].exists():
        weights.write_weights("toy")
    cfg = weights.run_config("toy")
    arrays = np.load(weights.paths("toy")[1])
    arch = weights.reference_arch("toy")

    def fresh():
        model = Model(cfg.model_config(), seed=cfg.train.seed)
        model.load_state(rio.load_checkpoint(str(weights.paths("toy")[0])))
        return model

    clip, expr, gts = generate_clip(SyntheticSpec(seed=3, max_objects=2))
    ref = reference.segment(arrays, arch, clip.frames, expr.words)

    def infer_checks(model, hook=None):
        masks = tracking.segment_clip(model, clip, expr)
        if hook:
            hook(model)
            perturbed = tracking.segment_clip(model, clip, expr)
        else:
            perturbed = masks
        out, resolved = compare_with_reference(perturbed, ref)
        m = metrics.evaluate_sequence(perturbed, gts)
        return {"reference": out,
                "jf": check_jf(m.J, m.F, resolved, gts),
                "causality": check_causality(model, clip, expr, masks, 3)}

    def train_checks(model, stage=None):
        frozen, _ = model.partition()
        before = snapshot(model, frozen)
        hook = perturb(TRAINABLE_PROBE)
        sample = (clip.frames[0::2], expr, gts[0::2])
        out = check_train_step(model, sample, cfg,
                               after_step=hook if stage == "adamw" else None,
                               before_fd=hook if stage == "gradients" else None)
        if stage == "frozen":
            perturb(FROZEN_PROBE)(model)
        return {**out, "frozen": check_frozen(model, before)}

    clean = {**infer_checks(fresh()), **train_checks(fresh())}
    perturbed = infer_checks(fresh(), perturb(TRAINABLE_PROBE))
    for stage in ("adamw", "gradients", "frozen"):
        perturbed[stage] = train_checks(fresh(), stage)[stage]
    ok = True
    for name in clean:
        passes, fails = not clean[name], bool(perturbed[name])
        ok &= passes and fails
        print(f"{name:10s} passes on the program: {passes}   "
              f"fails with one weight perturbed: {fails}"
              + (f"  ({perturbed[name][0]})" if fails else ""))
        for msg in clean[name][:3]:
            print(f"    {msg}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(self_test())

"""Command-line entry points: generate / train / eval / infer / overlay."""

import argparse
import os
import sys

import numpy as np

from .autodiff import DimensionError, NonFiniteError
from .config import load_config
from .data import (GenerationError, VideoClip, clip_spec, generate_clip, list_clips,
                   read_clip, write_dataset)
from .encoder import ConfigurationError, ReferringExpression
from .io import (CheckpointError, ParseError, from_8bit, load_checkpoint, read_pgm,
                 read_ppm, save_checkpoint, to_8bit, write_pgm, write_ppm)
from .metrics import aggregate, evaluate_sequence
from .model import SEED_SAMPLER, Model, model_from_checkpoint
from .optim import AdamW
from .tracking import sample_training_frames, segment_clip, train_step

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CHECKPOINT = 3
EXIT_SHAPE_MISMATCH = 4


def cmd_generate(args):
    cfg = load_config(args.config)
    n = write_dataset(args.out, cfg.data_spec(cfg.train.seed), cfg.data.clips)
    print(f"wrote {n} clips to {args.out}")
    return EXIT_OK


def _load_training_clips(cfg):
    if cfg.data.root:
        return [read_clip(d) for d in list_clips(cfg.data.root)]
    spec = cfg.data_spec(cfg.train.seed)
    return [generate_clip(clip_spec(spec, k)) for k in range(cfg.data.clips)]


def _validate(model, clips, tolerance):
    metrics = [evaluate_sequence(segment_clip(model, clip, expr), masks, tolerance)
               for clip, expr, masks in clips]
    return aggregate(metrics)


def cmd_train(args):
    cfg = load_config(args.config)
    seed = cfg.train.seed
    model = Model(cfg.model_config(), seed=seed)
    clips = _load_training_clips(cfg)
    loss_cfg = cfg.loss_config()
    optimizer = AdamW(model.trainable_params(), cfg.learning_rates(),
                      weight_decay=cfg.train.weight_decay)
    rng = np.random.default_rng(seed + SEED_SAMPLER)
    for step in range(1, cfg.train.steps + 1):
        clip, expr, masks = clips[int(rng.integers(0, len(clips)))]
        frames, gts = sample_training_frames(clip.frames, masks, cfg.train.n_frames, rng)
        report = train_step([(frames, expr, gts)], model, optimizer, loss_cfg,
                            detach_track=cfg.train.detach_track)
        print(f"step={step} dice={report['dice']:.6f} focal={report['focal']:.6f} "
              f"iou={report['iou']:.6f} total={report['total']:.6f}")
        if step % cfg.train.checkpoint_interval == 0 or step == cfg.train.steps:
            save_checkpoint(args.out_checkpoint, model.checkpoint_arrays())
    # validation from the written checkpoint and on the frames as PPM files
    # store them, so infer + eval on a generated dataset reproduce it
    model = model_from_checkpoint(load_checkpoint(args.out_checkpoint))
    stored = [(VideoClip(frames=[from_8bit(to_8bit(f)) for f in clip.frames]), expr, masks)
              for clip, expr, masks in clips]
    m = _validate(model, stored, cfg.eval.tolerance_px)
    print(f"J={m.J:.4f} F={m.F:.4f} JF={m.JF:.4f}")
    return EXIT_OK


def _read_prediction_masks(pred_root, clip_dir):
    pred_dir = os.path.join(pred_root, os.path.basename(clip_dir))
    names = sorted(os.listdir(pred_dir))
    return [read_pgm(os.path.join(pred_dir, name)) for name in names]


def cmd_eval(args):
    cfg = load_config(args.config)
    tol = cfg.eval.tolerance_px
    dirs = list_clips(args.data)
    clips = [read_clip(d) for d in dirs]
    if args.predictions:
        # score precomputed mask directories, no model needed
        metrics = []
        for d, (_, _, gts) in zip(dirs, clips):
            preds = _read_prediction_masks(args.predictions, d)
            if len(preds) != len(gts):
                raise DimensionError(
                    f"eval: {len(preds)} predictions for {len(gts)} frames in {d}")
            metrics.append(evaluate_sequence(preds, gts, tol))
        m = aggregate(metrics)
    else:
        if not args.checkpoint:
            raise ValueError("eval: --checkpoint required unless --predictions given")
        model = model_from_checkpoint(load_checkpoint(args.checkpoint))
        m = _validate(model, clips, tol)
    print(f"J={m.J:.4f} F={m.F:.4f} JF={m.JF:.4f}")
    return EXIT_OK


def cmd_infer(args):
    model = model_from_checkpoint(load_checkpoint(args.checkpoint))
    clip, expr, _ = read_clip(args.clip, with_masks=False)
    if args.expr:
        expr = ReferringExpression(words=args.expr.lower().split())
    out_dir = args.out or os.path.join(args.clip, "predictions")
    os.makedirs(out_dir, exist_ok=True)
    masks = segment_clip(model, clip, expr)
    for t, mask in enumerate(masks):
        write_pgm(os.path.join(out_dir, f"{t:05d}.pgm"), mask)
    print(f"wrote {len(masks)} masks to {out_dir}")
    return EXIT_OK


def cmd_overlay(args):
    frames_dir = os.path.join(args.clip, "frames")
    os.makedirs(args.out, exist_ok=True)
    names = sorted(os.listdir(frames_dir))
    mask_names = sorted(os.listdir(args.masks))
    if len(names) != len(mask_names):
        raise DimensionError("overlay: frame and mask counts differ")
    tint = np.array([1.0, 0.2, 0.2])
    for name, mname in zip(names, mask_names):
        frame = read_ppm(os.path.join(frames_dir, name))
        mask = read_pgm(os.path.join(args.masks, mname)).astype(bool)
        if mask.shape != frame.shape[1:]:
            raise DimensionError(f"overlay: mask {mname} and frame {name} differ in size")
        out = frame.copy()
        out[:, mask] = 0.5 * out[:, mask] + 0.5 * tint[:, None]
        write_ppm(os.path.join(args.out, os.path.splitext(name)[0] + ".ppm"), out)
    print(f"wrote {len(names)} overlays to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="refvos",
                                     description="Referring video object segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or saved predictions")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default="")
    p.add_argument("--data", required=True)
    p.add_argument("--predictions", default="",
                   help="directory of per-clip mask folders to score instead")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="segment one clip")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--expr", default="")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("overlay", help="export mask overlays")
    p.add_argument("--clip", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_overlay)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CHECKPOINT
    except (DimensionError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE_MISMATCH
    except (OSError, ParseError, NonFiniteError, GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

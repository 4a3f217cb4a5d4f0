"""Command-line entry points: generate / train / eval / infer / overlay."""

import argparse
import os
import sys

import numpy as np

from .autodiff import DimensionError, NonFiniteError
from .config import load_config
from .data import (GenerationError, VideoClip, clip_spec, generate_clip, list_clips,
                   parse_expression, read_clip, read_expression, read_frames, read_masks,
                   write_dataset, write_frames, write_masks)
from .encoder import ConfigurationError, patch_grid
from .io import (CheckpointError, ParseError, from_8bit, load_checkpoint, publish,
                 save_checkpoint, to_8bit)
from .metrics import aggregate, evaluate_sequence
from .model import SEED_SAMPLER, Model, model_from_checkpoint
from .optim import AdamW
from .tracking import sample_training_frames, segment_clip, train_step

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CHECKPOINT = 3
EXIT_SHAPE_MISMATCH = 4


def _synthetic_spec(cfg):
    """The data section's SyntheticSpec at the run seed, refused, naming the
    key, unless its frames cut into whole patches of the model."""
    spec = cfg.data_spec(cfg.train.seed)
    ps = cfg.model.patch_size
    for side in ("height", "width"):
        if getattr(spec, side) % ps:
            raise ConfigurationError(f"data.{side} must be a multiple of model.patch_size "
                                     f"({ps}), got {getattr(spec, side)}")
    return spec


def cmd_generate(args):
    cfg = load_config(args.config)
    n = write_dataset(args.out, _synthetic_spec(cfg), cfg.data.clips)
    print(f"wrote {n} clips to {args.out}")
    return EXIT_OK


def _load_training_clips(cfg):
    """The training clips; clips read from data.root are refused, naming the
    clip, unless their frames cut into whole patches of the model."""
    if cfg.data.root:
        clips = []
        for d in list_clips(cfg.data.root):
            clip, expr, masks = read_clip(d)
            try:
                patch_grid(*clip.frames[0].shape[1:], cfg.model.patch_size)
            except DimensionError as exc:
                raise DimensionError(f"clip {d}: {exc}") from exc
            clips.append((clip, expr, masks))
        return clips
    spec = _synthetic_spec(cfg)
    return [generate_clip(clip_spec(spec, k)) for k in range(cfg.data.clips)]


def _validate(model, clips, tolerance):
    metrics = [evaluate_sequence(segment_clip(model, clip, expr), masks, tolerance)
               for clip, expr, masks in clips]
    return aggregate(metrics)


def cmd_train(args):
    cfg = load_config(args.config)
    folder = os.path.dirname(args.out_checkpoint) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"checkpoint folder {folder} does not exist")
    if os.path.isdir(args.out_checkpoint):
        raise IsADirectoryError(f"{args.out_checkpoint} exists and is not a file")
    seed = cfg.train.seed
    clips = _load_training_clips(cfg)
    model = Model(cfg.model_config(), seed=seed)
    loss_cfg = cfg.loss_config()
    optimizer = AdamW(model.trainable_params(), cfg.learning_rates(),
                      weight_decay=cfg.train.weight_decay)
    rng = np.random.default_rng(seed + SEED_SAMPLER)
    for step in range(1, cfg.train.steps + 1):
        clip, expr, masks = clips[int(rng.integers(0, len(clips)))]
        frames, gts = sample_training_frames(clip.frames, masks, cfg.train.n_frames, rng)
        try:
            report = train_step([(frames, expr, gts)], model, optimizer, loss_cfg,
                                detach_track=cfg.train.detach_track)
            print(f"step={step} dice={report['dice']:.6f} focal={report['focal']:.6f} "
                  f"iou={report['iou']:.6f} total={report['total']:.6f}")
            if step % cfg.train.checkpoint_interval == 0 or step == cfg.train.steps:
                save_checkpoint(args.out_checkpoint, model.checkpoint_arrays())
        except NonFiniteError as exc:
            raise NonFiniteError(f"step {step}: {exc}") from exc
    # validation from the written checkpoint and on the frames as PPM files
    # store them, so infer + eval on a generated dataset reproduce it; each
    # clip's stored copy is made when it is scored
    model = model_from_checkpoint(load_checkpoint(args.out_checkpoint))
    stored = ((VideoClip(frames=[from_8bit(to_8bit(f)) for f in clip.frames]), expr, masks)
              for clip, expr, masks in clips)
    m = _validate(model, stored, cfg.eval.tolerance_px)
    print(f"J={m.J:.4f} F={m.F:.4f} JF={m.JF:.4f}")
    return EXIT_OK


def cmd_eval(args):
    cfg = load_config(args.config)
    model = (None if args.checkpoint is None else
             model_from_checkpoint(load_checkpoint(args.checkpoint)))
    metrics = []
    for d in list_clips(args.data):   # each clip is read, scored and dropped in turn
        clip, expr, gts = read_clip(d)
        preds = (read_masks(os.path.join(args.predictions, os.path.basename(d)), clip.frames)
                 if model is None else segment_clip(model, clip, expr))
        metrics.append(evaluate_sequence(preds, gts, cfg.eval.tolerance_px))
    m = aggregate(metrics)
    print(f"J={m.J:.4f} F={m.F:.4f} JF={m.JF:.4f}")
    return EXIT_OK


def cmd_infer(args):
    model = model_from_checkpoint(load_checkpoint(args.checkpoint))
    clip = VideoClip(frames=read_frames(args.clip))
    expr = read_expression(args.clip) if args.expr is None else parse_expression(args.expr)
    out_dir = os.path.join(args.clip, "predictions") if args.out is None else args.out
    publish(out_dir, lambda tmp: write_masks(tmp, segment_clip(model, clip, expr)), folder=True)
    print(f"wrote {len(clip.frames)} masks to {out_dir}")
    return EXIT_OK


def cmd_overlay(args):
    frames = read_frames(args.clip)
    masks = read_masks(args.masks, frames)
    tint = np.array([1.0, 0.2, 0.2])[:, None, None]
    overlays = (np.where(m, 0.5 * f + 0.5 * tint, f) for f, m in zip(frames, masks))
    publish(args.out, lambda tmp: write_frames(tmp, overlays), folder=True)
    print(f"wrote {len(frames)} overlays to {args.out}")
    return EXIT_OK


def _path(text):
    """The argparse type of every path flag: any text but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return text


def build_parser():
    parser = argparse.ArgumentParser(prog="refvos",
                                     description="Referring video object segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--out-checkpoint", type=_path, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or saved predictions")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--data", type=_path, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint", type=_path)
    source.add_argument("--predictions", type=_path,
                        help="directory of per-clip mask folders to score instead")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="segment one clip")
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--clip", type=_path, required=True)
    p.add_argument("--expr")
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("overlay", help="export mask overlays")
    p.add_argument("--clip", type=_path, required=True)
    p.add_argument("--masks", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_overlay)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # op outputs and AdamW updates are scanned: report in one line, without warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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

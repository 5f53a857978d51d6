"""Command line entry points: gen-data, train, eval, ablate."""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import datapipe, evalbench, net, toyworld as tw, trainer


class _Unreadable(Exception):
    """An input file that failed to open or was refused; ``main`` returns 2."""


def _read(path, load, **kwargs):
    """``load(path, **kwargs)``; an OSError or ValueError becomes _Unreadable."""
    try:
        return load(path, **kwargs)
    except (OSError, ValueError) as exc:
        raise _Unreadable(f"{path}: {exc}") from exc


def positive_int(text):
    """An argparse type: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _grid(text):
    """An argparse type: a grid side that holds the smallest object side."""
    value = int(text)
    if value < tw.MIN_OBJECT_SIDE:
        raise argparse.ArgumentTypeError(
            f"must be at least {tw.MIN_OBJECT_SIDE}, the smallest object side, got {text}")
    return value


def _jitter(text):
    """An argparse type: a finite, non-negative jitter amplitude."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def _dimensions(text):
    """An argparse type: a comma-separated list of known dimensions."""
    dims = [d.strip() for d in text.split(",") if d.strip()]
    if not dims or any(d not in tw.DIMENSIONS for d in dims):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of {', '.join(tw.DIMENSIONS)}, got {text!r}")
    return dims


def _add_gen_data(sub):
    p = sub.add_parser("gen-data", help="build a preference dataset")
    p.add_argument("--dims", type=_dimensions, default=",".join(tw.DIMENSIONS),
                   help="comma-separated dimensions")
    p.add_argument("--count-per-dim", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=_jitter, default=datapipe.DEFAULT_JITTER)
    p.add_argument("--grid", type=_grid, default=tw.DEFAULT_GRID)
    p.add_argument("--out", required=True)


def _cmd_gen_data(args):
    counts = {d: args.count_per_dim for d in args.dims}
    pairs, manifest = datapipe.generate_dataset(
        counts, seed=args.seed, jitter=args.jitter, grid=args.grid)
    # pairs the generator could not build
    shortfall = {dim: (manifest.realized.get(dim, 0), want)
                 for dim, want in manifest.requested.items()
                 if manifest.realized.get(dim, 0) != want}
    datapipe.write_dataset(pairs, manifest, args.out)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    for dim, s in manifest.filter_stats.items():
        print(f"  {dim}: built {s['built']}, discarded "
              f"{s['discarded_vqa']} (vqa) + {s['discarded_layout']} (layout)")
    for dim, (got, want) in shortfall.items():
        print(f"shortfall: {dim} realized {got} of {want} requested", file=sys.stderr)
    return 1 if shortfall else 0


def _add_train(sub):
    p = sub.add_parser("train", help="train one method on a dataset")
    p.add_argument("--config", required=True, help="run-config JSON file")
    p.add_argument("--data", required=True, help="dataset file from gen-data")
    p.add_argument("--method", choices=trainer.METHODS, default=None,
                   help="override the config's method")
    p.add_argument("--out", required=True, help="output directory")


def _cmd_train(args):
    overrides = {"method": args.method} if args.method else {}
    config = _read(args.config, trainer.load_config, **overrides)
    pairs, _ = _read(args.data, datapipe.read_dataset)
    params, log = trainer.train(config, pairs)
    os.makedirs(args.out, exist_ok=True)
    net.save_checkpoint(params, config.schedule(), os.path.join(args.out, "checkpoint.json"))
    trainer.write_metrics(log, os.path.join(args.out, "metrics.jsonl"))
    trainer.save_config(config, os.path.join(args.out, "config.json"))
    final = log.records[-1] if log.records else None
    if final:
        print(f"finished {config.method}: loss {final.loss:.4f}, "
              f"margin {final.margin:.4f}")
    print(f"checkpoint written to {args.out}/checkpoint.json")
    return 0


def _add_eval(sub):
    p = sub.add_parser("eval", help="score a checkpoint on held-out prompts")
    p.add_argument("--ckpt", required=True,
                   help="checkpoint from train; it records the network and the noise schedule")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--prompts", default=None, help="JSONL caption file")
    source.add_argument("--gen", action="store_true", help="sample prompts from the grammar")
    p.add_argument("--prompts-per-dim", type=positive_int, default=20)
    p.add_argument("--samples-per-prompt", type=positive_int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="Scorecard JSON file")


def _read_prompts(path):
    """The captions of a JSONL prompt file, one per non-blank line; a file
    with none is refused, since it would score as a model with no valid
    sample."""
    prompts = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    prompts.append(datapipe.caption_from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError) as exc:
                    raise datapipe.MalformedRecordError(line_no, f"invalid prompt: {exc}") from exc
    if not prompts:
        raise ValueError("no prompts")
    return prompts


def _cmd_eval(args):
    params, sched = _read(args.ckpt, net.load_checkpoint)
    prompts = (evalbench.sample_prompts(tw.DIMENSIONS, args.prompts_per_dim, args.seed)
               if args.gen else _read(args.prompts, _read_prompts))
    card = evalbench.evaluate(params, prompts, args.samples_per_prompt, sched,
                              seed=args.seed)
    with datapipe.atomic_write(args.out) as fh:
        json.dump(asdict(card), fh, indent=2)
    print(f"validity {card.validity:.3f}; " +
          "; ".join(f"{d} {a:.3f}" for d, a in card.per_dimension.items()))
    return 0


def _add_ablate(sub):
    p = sub.add_parser("ablate", help="run the full method ablation")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--prompts-per-dim", type=positive_int, default=20)
    p.add_argument("--out", required=True)


def _cmd_ablate(args):
    config = _read(args.config, trainer.load_config)
    pairs, _ = _read(args.data, datapipe.read_dataset)
    prompts = evalbench.sample_prompts(
        tw.DIMENSIONS, args.prompts_per_dim,
        seed=np.random.SeedSequence(config.seed).generate_state(1)[0].item(),
        exclude=datapipe.dataset_captions(pairs))
    report = evalbench.run_ablation(config, pairs, prompts, out_dir=args.out)
    failed = [r.method for r in report.rows if r.status != "ok"]
    for r in report.rows:
        if r.scorecard:
            print(f"{r.method:14s} validity {r.scorecard.validity:.3f} "
                  + " ".join(f"{d}={a:.3f}" for d, a in r.scorecard.per_dimension.items()))
        else:
            print(f"{r.method:14s} FAILED: {r.error}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="prefdiff")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen_data(sub)
    _add_train(sub)
    _add_eval(sub)
    _add_ablate(sub)
    args = parser.parse_args(argv)
    handler = {"gen-data": _cmd_gen_data, "train": _cmd_train,
               "eval": _cmd_eval, "ablate": _cmd_ablate}[args.command]
    try:
        return handler(args)
    except _Unreadable as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

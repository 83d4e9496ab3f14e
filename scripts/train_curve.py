"""Train the toy alignment model on a synthetic dataset and export the loss curve.

The dataset is generated by a hidden teacher that shares the frozen base
matrix, so plain gradient descent on the projections plus the low-rank
adaptor can actually fit it.  The trace goes to a CSV with one row per
step for plotting.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from modalkit.projection import export_trace_csv, make_learnable_dataset, train_toy
from modalkit.sizing import TrainConfig, uniform_enc_dims


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-enc", type=int, default=8)
    parser.add_argument("--d-llm", type=int, default=12)
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--alpha", type=float, default=8.0)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=int, default=24)
    parser.add_argument("--out", default="runs/train_curve.csv")
    args = parser.parse_args()

    cfg = TrainConfig(
        d_enc=uniform_enc_dims(args.d_enc),
        d_llm=args.d_llm,
        rank=args.rank,
        alpha=args.alpha,
        learning_rate=args.lr,
        steps=args.steps,
        seed=args.seed,
    )
    dataset = make_learnable_dataset(cfg, n=args.samples, seed=args.seed)
    result = train_toy(cfg, dataset)

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    export_trace_csv(result.trace, args.out)
    initial, final = result.trace[0], result.trace[-1]
    print(f"steps {args.steps} lr {args.lr} seed {args.seed}")
    print(f"initial loss {initial:.6f}")
    print(f"final loss   {final:.6f}")
    print(f"reduction    {final / initial:.4f}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Alternated benchmark pairs of two checkouts, with the per-pair values and their summary.

    python tools/bench_pairs.py PARENT CHANGE --workload decide --seeds 3601-3610 --seconds 30

PARENT and CHANGE are the roots of two source checkouts. Pair k runs the benchmark command that
``BENCHMARK.json`` declares (``python3 perfbench/run.py``) with ``--workload W --seed S
--seconds T --trace 0`` in each checkout, one run after the other, on the k-th seed of the
range: the first pair runs PARENT first, and each next pair the other one first, so that a
drift of the host falls on both sides alike. The runs write no bytecode, and with ``--trace 0``
the benchmark writes nothing else, so neither checkout changes.

For each end-to-end metric of ``BENCHMARK.json`` the tool prints one line per pair (seed,
parent, change and their ratio), then the median and quartiles of each side, the median of the
per-pair change/parent ratios, the pairs that the change won (better by the metric's direction),
and the spread of the parent's runs: the distance between its quartiles over its median, which a
change must exceed to be told apart from noise. Quartiles are linear interpolations between the
ordered values (numpy's default percentile). It exits 1, after the pairs already made, as soon
as a run fails or reports ``correct: false``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def checkout(text: str) -> Path:
    root = Path(text).resolve()
    if not (root / "BENCHMARK.json").is_file():
        raise argparse.ArgumentTypeError(f"{root} has no BENCHMARK.json")
    return root


def run(root: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``root``: its final JSON line, or a dict with an ``error``."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode or not result.get("correct"):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        result["error"] = (f"exit {proc.returncode}, correct {result.get('correct')}: "
                           + " | ".join(tail))
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, unit: str, better: str, pairs: list[tuple[int, float, float]]) -> list[str]:
    """The lines of one metric: each pair, then both sides' medians and quartiles, the median
    ratio, the wins and the parent's spread."""
    lines = [f"{name} ({unit}, {better} is better)"]
    for seed, old, new in pairs:
        lines.append(f"  seed {seed}: {old:.6g} -> {new:.6g}  ({new / old:.4f})")
    olds, news = [p[1] for p in pairs], [p[2] for p in pairs]
    (o1, om, o3), (n1, nm, n3) = quartiles(olds), quartiles(news)
    wins = sum((new < old) if better == "lower" else (new > old) for _, old, new in pairs)
    lines.append(f"  parent {om:.6g} [{o1:.6g}, {o3:.6g}] -> change {nm:.6g} [{n1:.6g}, {n3:.6g}]")
    lines.append(f"  median change/parent {median(new / old for _, old, new in pairs):.4f}; "
                 f"change better in {wins}/{len(pairs)} pairs; parent quartiles "
                 f"{(o3 - o1) / om:.1%} of its median apart, medians {abs(nm - om) / om:.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=checkout)
    parser.add_argument("change", type=checkout)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B or A")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, list] = {m["name"]: [] for m in metrics}
    status = 0
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run(sides[side], bench["command"], args.workload, seed, args.seconds)
            print(f"pair {k + 1}/{len(args.seeds)}, seed {seed}, {side}: "
                  f"{got[side].get('error') or 'correct'}", file=sys.stderr, flush=True)
            if "error" in got[side]:
                status = 1
                break
        if status:
            break
        for m in metrics:
            values[m["name"]].append((seed, *(got[side]["metrics"][m["name"]]["value"]
                                              for side in ("parent", "change"))))
    print(f"workload {args.workload}, {args.seconds} s runs, {len(values[metrics[0]['name']])} "
          f"pairs; parent {args.parent}, change {args.change}")
    for m in metrics:
        if values[m["name"]]:
            print("\n".join(summary(m["name"], m["unit"], m["better"], values[m["name"]])))
    return status


if __name__ == "__main__":
    raise SystemExit(main())

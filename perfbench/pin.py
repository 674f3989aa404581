"""Recompute the known answers that run.py checks against, into pins.json.

    python3 perfbench/pin.py

Run this only when a change is meant to alter the kernel's output; a change
that should keep the output must pass against the committed pins.  It pins,
for every input the --seed argument can select:

* jacobi-hamiltonian: the SHA-256 of the JSON report of each pool seed;
* pullback-cubic: the SHA-256 of the pulled-back ``f`` and the number of
  fixed-point iterations, for each coefficient draw.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    jacobi = workloads.WORKLOADS["jacobi-hamiltonian"]
    pullback = workloads.WORKLOADS["pullback-cubic"]
    pins = {jacobi.name: {}, pullback.name: {}}
    for seed, pool_seed in enumerate(workloads.POOL_SEEDS):
        text, all_pass = jacobi.execute(jacobi.prepare(jacobi.build(seed), 0))
        if not all_pass:
            raise SystemExit(f"pool seed {pool_seed}: the Jacobi check fails")
        pins[jacobi.name][str(pool_seed)] = workloads.digest(text)
        print(f"{jacobi.name} pool seed {pool_seed}: pinned", flush=True)
    for seed, draw in enumerate(workloads.PULLBACK_DRAWS):
        text, all_pass = pullback.execute(pullback.prepare(pullback.build(seed), 0))
        pins[pullback.name][str(draw)] = list(workloads.pullback_answer(text))
        print(f"{pullback.name} draw {draw}: pinned", flush=True)
    workloads.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()

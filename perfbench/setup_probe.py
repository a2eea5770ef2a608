"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing cramerkit, generating the inputs from the seed and
computing their expected answers.  Prints one JSON line with the seconds
taken, the host-speed scale measured right after, and the digest of the
inputs, so the caller can check that the same seed gave the same inputs.

    python3 perfbench/setup_probe.py --workload solve-int --seed 1 \
        --workdir .bench_out/tmp --src src
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    sys.path.insert(0, args.src)
    import workloads

    plan = workloads.build(args.workload, args.seed, args.workdir, args.src)
    seconds = time.perf_counter() - START
    import hostspeed

    print(json.dumps({"setup_s": seconds, "scale": hostspeed.scale_now(),
                      "digest": plan.digest}))


if __name__ == "__main__":
    main()

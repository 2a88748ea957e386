"""Benchmark of the sphbary package, run from the root of a checkout:

    python3 bench/run.py --workload dense_grid --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs the traced
per-layer measurement instead.  Every metric is printed as a line
`name value unit n=samples`; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The full result,
with the input hash, the environment stamp and the outcome tally, and the
spans of a traced run go to .bench_out/<workload>-<seed>-<trace>/.
"""

import os

# One BLAS thread, fixed before numpy is first imported (here and in every
# subprocess, which inherits the environment).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NEEDED = (ROOT / "src" / "sphbary" / "__init__.py", ROOT / "data" / "demo_quad.json")


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("dense_grid", "polygon_stream", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.is_file()]
    if missing:
        print(f"error: not a sphbary checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    outdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    workdir = outdir / "work"
    workdir.mkdir(parents=True)

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
    if args.trace:
        metrics, notes = workloads.traced(wl, args.seconds, outdir / "spans.json")
    else:
        metrics, notes = workloads.end_to_end(wl, args.seconds)
    shutil.rmtree(workdir)

    tally = wl.tally.summary()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_hash": wl.input_hash,
        "environment": environment(),
        "run": notes,
        "tally": tally,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    (outdir / "result.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} inputs={wl.input_hash} {json.dumps(report['environment'])}")
    print(f"# run {json.dumps(notes)}")
    print(f"# wrong_frac={tally['wrong_frac']:.6f} refused_frac={tally['refused_frac']:.6f} "
          f"unexpected_wrong={tally['unexpected_wrong']} failed={tally['failed']}")
    print(f"# refused by tag {json.dumps(tally['refused_by_tag'])}")
    print(f"# wrong by check {json.dumps(tally['wrong_by_check'])}")
    for name, (value, unit, count) in metrics.items():
        print(f"{name} {value!r} {unit}" + ("" if count is None else f" n={count}"))
    print(json.dumps({
        "correct": wl.tally.correct,
        "attempted": wl.tally.attempted,
        "failed": wl.tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

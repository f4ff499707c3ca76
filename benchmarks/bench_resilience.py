"""Resilience layer — faults-off overhead and chaos absorption cost.

The fault-injection and resilience machinery (``repro.faults``,
``repro.resilience``) is threaded through the sandbox client, the
database's metadata publishes, the WAL, and the checkpointer.  Its contract is *zero overhead when off*:
every injection site short-circuits on a rate of 0.0 before touching an
RNG.  This benchmark measures that contract end to end and emits
``BENCH_resilience.json``:

* **injection-site overhead** — batches of metadata publishes
  (``storage.torn_write`` fires once per publish, the site every table
  write passes) run alternately with no ambient injector and under an
  explicit all-zero-rate injector; the median ratio over the paired
  batches must stay under 2%.
* **harness overhead** — the evaluation harness micro-suite with no
  profile vs the zero-rate profile, reported informationally (both sides
  resolve to the same ``NO_FAULTS`` injector, so at suite scale the
  ratio measures scheduler noise, not code; a loose 25% sanity bound
  catches gross regressions without flaking).
* **chaos cost** — the same suite under the ``light`` profile, reporting
  the injected-fault counters and the wall-clock ratio, so the price of
  absorbing faults (retries, fallbacks, rewrites) is tracked
  across PRs rather than discovered in production.

Runs under pytest (``pytest benchmarks/bench_resilience.py``) and as a
script (``python benchmarks/bench_resilience.py --quick`` — the CI
chaos-smoke configuration: fewer questions, fewer repetitions).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.db.storage import publish_json_verified
from repro.eval import EvaluationHarness, HarnessConfig
from repro.eval.questions import QUESTION_SUITE
from repro.faults import ENV_VAR, NO_FAULTS, FaultInjector, FaultProfile, use_faults
from repro.llm.errors import NO_ERRORS
from repro.rag.cache import clear_memory_cache
from repro.sim import EnsembleSpec, generate_ensemble

MAX_SITE_OVERHEAD = 1.02      # injection sites may cost at most 2% when off
MAX_HARNESS_OVERHEAD = 1.25   # suite-scale sanity bound (noise-dominated)

# shaped like a table's meta.json: a schema plus per-row-group entries
SITE_META = {
    "columns": {f"col_{i}": "float64" for i in range(24)},
    "row_groups": [{"rows": 4096, "checksum": i * 7919} for i in range(48)],
}


def bench_site_overhead(root: Path, loops: int, reps: int) -> dict:
    """Hot metadata-publish loop, with and without a zero-rate injector.

    Every call passes through ``publish_json_verified``, where
    ``storage.torn_write`` fires once per publish attempt — the
    per-publish cost of the injection machinery, isolated from harness
    scheduling noise.  Each publish is a few file-system calls whose
    time swings by several percent between batches, so the two sides run
    in ``reps`` short paired batches of ``loops`` publishes, with the
    order inside a pair alternating, and the gate reads the median
    per-pair ratio.
    """
    root.mkdir(parents=True, exist_ok=True)

    def loop() -> float:
        start = time.perf_counter()
        for _ in range(loops):
            publish_json_verified(root, "meta.json", SITE_META, what="meta.json")
        return time.perf_counter() - start

    def zeroed_loop() -> float:
        with use_faults(FaultInjector(NO_FAULTS)):
            return loop()

    baseline, zeroed = [], []
    for rep in range(reps):
        if rep % 2:
            zeroed.append(zeroed_loop())
            baseline.append(loop())
        else:
            baseline.append(loop())
            zeroed.append(zeroed_loop())
    ratio = statistics.median(z / b for z, b in zip(zeroed, baseline))
    assert ratio < MAX_SITE_OVERHEAD, (
        f"faults-off injection-site overhead {ratio:.4f}x exceeds "
        f"{MAX_SITE_OVERHEAD}x: the zero-rate short-circuit regressed"
    )
    return {
        "loops": loops,
        "reps": reps,
        "baseline_wall_s": round(sum(baseline), 4),
        "zeroed_wall_s": round(sum(zeroed), 4),
        "overhead_ratio": round(ratio, 4),
        "budget_ratio": MAX_SITE_OVERHEAD,
    }


def run_suite(ensemble, workdir: Path, profile, questions) -> tuple[float, dict]:
    """One harness pass; returns (wall_s, fault counters)."""
    clear_memory_cache()
    harness = EvaluationHarness(
        ensemble,
        workdir,
        HarnessConfig(
            runs_per_question=1, error_model=NO_ERRORS, fault_profile=profile
        ),
    )
    start = time.perf_counter()
    result = harness.run_suite(questions=questions)
    return time.perf_counter() - start, dict(result.perf.fault_counters)


def bench_harness_overhead(ensemble, root: Path, questions, reps: int) -> dict:
    """min-of-reps suite wall clock: no profile vs explicit zero-rate
    profile.  Both resolve to the same ``NO_FAULTS`` injector, so the
    ratio is a noise gauge with a loose sanity bound — the tight 2%
    assertion lives in :func:`bench_site_overhead`.

    Separate workdirs per configuration so both sides pay the same cold
    cache cost on rep 0 and the same warm cost afterwards.
    """
    baseline, zeroed = [], []
    for rep in range(reps):
        wall, counters = run_suite(
            ensemble, root / "baseline", None, questions
        )
        baseline.append(wall)
        assert not counters, f"fault counters without a profile: {counters}"
        wall, counters = run_suite(
            ensemble, root / "zeroed", NO_FAULTS, questions
        )
        zeroed.append(wall)
        assert not counters, f"zero-rate profile injected faults: {counters}"
    ratio = min(zeroed) / min(baseline)
    assert ratio < MAX_HARNESS_OVERHEAD, (
        f"faults-off suite overhead {ratio:.4f}x exceeds the "
        f"{MAX_HARNESS_OVERHEAD}x sanity bound"
    )
    return {
        "reps": reps,
        "baseline_wall_s": [round(w, 4) for w in baseline],
        "zeroed_wall_s": [round(w, 4) for w in zeroed],
        "overhead_ratio": round(ratio, 4),
        "sanity_bound_ratio": MAX_HARNESS_OVERHEAD,
    }


def bench_chaos_cost(ensemble, root: Path, questions, baseline_s: float) -> dict:
    """One pass under the light profile: what absorbing faults costs."""
    wall, counters = run_suite(
        ensemble, root / "chaos", FaultProfile.named("light", seed=7), questions
    )
    injected = counters.get("faults.injected", 0)
    return {
        "wall_s": round(wall, 4),
        "ratio_vs_baseline": round(wall / baseline_s, 4),
        "faults_injected": injected,
        "counters": counters,
    }


def run(root: Path, output_dir: Path, quick: bool) -> dict:
    from conftest import emit_json

    # an ambient profile (the chaos-smoke CI job exports REPRO_FAULT_PROFILE)
    # would pollute the no-profile baseline; the bench owns its profiles
    os.environ.pop(ENV_VAR, None)

    n_questions = 2 if quick else 4
    reps = 2 if quick else 3
    site_pairs = 400 if quick else 1_000
    questions = QUESTION_SUITE[:n_questions]

    site = bench_site_overhead(root / "site", 10, site_pairs)
    ensemble = generate_ensemble(
        root / "ens",
        EnsembleSpec(
            n_runs=2,
            n_particles=800,
            timesteps=(498, 624),
            write_particles=False,
            seed=2025,
        ),
    )
    off = bench_harness_overhead(ensemble, root / "off", questions, reps)
    chaos = bench_chaos_cost(
        ensemble, root / "chaos", questions, min(off["baseline_wall_s"])
    )
    payload = {
        "benchmark": "resilience",
        "quick": quick,
        "questions": n_questions,
        "site_overhead": site,
        "harness_overhead": off,
        "light_chaos": chaos,
    }
    return emit_json(output_dir, "BENCH_resilience.json", payload)


def test_resilience_overhead(output_dir, tmp_path):
    run(tmp_path, output_dir, quick=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI chaos-smoke: fewer questions and reps")
    args = parser.parse_args(argv)
    output_dir = Path(__file__).resolve().parent / "output"
    output_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bench_res_") as tmp:
        run(Path(tmp), output_dir, quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""§4.5 — analytical variability under ambiguity vs a precise query.

Paper: the ambiguous FSN/VEL parameter-direction question "explored
multiple valid analytical strategies across different runs", while the
precise top-20 question "produced identical data outputs ... across all
10 runs".  We measure output diversity over repeated seeded runs of both
queries with error injection *off*, so any variation comes from the
question's inherent ambiguity, not injected noise.
"""

import hashlib

import numpy as np

from conftest import RUNS_PER_QUESTION, emit
from repro.core import InferA, InferAConfig
from repro.llm.errors import NO_ERRORS

PRECISE = (
    "Can you find me the top 20 largest friends-of-friends halos from "
    "timestep 498 in simulation 0?"
)
AMBIGUOUS = (
    "Can you make an inference on the direction of the FSN and VEL "
    "parameters in order to increase the halo count of the 100 largest "
    "halos in timestep 624? Also plot a summary of the differences in "
    "halo characteristics between the two simulations."
)


def _fingerprint(frame) -> str:
    h = hashlib.blake2b(digest_size=8)
    for col in frame.columns:
        h.update(col.encode())
        h.update(np.ascontiguousarray(frame[col]).tobytes())
    return h.hexdigest()


def test_s45_variability(benchmark, bench_ensemble, output_dir, tmp_path):
    n = max(RUNS_PER_QUESTION, 3)

    def run_both():
        precise_prints, ambiguous_ok = [], []
        for seed in range(n):
            app = InferA(
                bench_ensemble, tmp_path / f"p{seed}",
                InferAConfig(seed=seed, error_model=NO_ERRORS, llm_latency_s=0.0),
            )
            r = app.run_query(PRECISE)
            assert r.completed
            precise_prints.append(_fingerprint(r.tables["work"]))

            app2 = InferA(
                bench_ensemble, tmp_path / f"a{seed}",
                InferAConfig(seed=seed, error_model=NO_ERRORS, llm_latency_s=0.0),
            )
            r2 = app2.run_query(AMBIGUOUS)
            ambiguous_ok.append(r2)
        return precise_prints, ambiguous_ok

    precise_prints, ambiguous_reports = benchmark.pedantic(run_both, rounds=1, iterations=1)

    # precise query: identical data outputs across every run (paper's claim)
    assert len(set(precise_prints)) == 1

    # ambiguous query: flagged ambiguous by the planner; multiple valid
    # analytical components appear in the plan (inference + comparison +
    # summary visualization)
    strategies = set()
    for r in ambiguous_reports:
        assert r.run.intent.get("ambiguous")
        strategies.add(tuple(r.run.intent.get("analyses", [])))
        assert {"parameter_inference", "compare_groups"} <= set(r.run.intent["analyses"])
        if r.completed:
            inference = r.tables.get("inference")
            assert inference is not None and inference.num_rows >= 2

    lines = [
        "S4.5 analytical variability",
        "",
        f"precise query, {n} seeded runs: "
        f"{len(set(precise_prints))} distinct data outputs (paper: identical across 10 runs)",
        f"ambiguous query: flagged ambiguous = True on every run; "
        f"analytical strategy components: {sorted(strategies)[0] if strategies else ()}",
        "ambiguous completions: "
        f"{sum(r.completed for r in ambiguous_reports)}/{n}",
    ]
    emit(output_dir, "s45_variability.txt", "\n".join(lines))

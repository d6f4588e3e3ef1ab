"""Ablation for Section 4.1: task prediction vs static prediction.

The multiscalar sequencer "only needs to predict the branches that
separate tasks". The PAs two-level predictor learns loop-exit patterns;
a static always-first-target policy cannot. This ablation compares the
two on the task-prediction-sensitive workloads.
"""

from repro.engine.job import SimJob
from repro.harness.runner import run_jobs

NAMES = ("espresso", "tomcatv", "example", "eqntott")


def build():
    results = run_jobs([
        SimJob(kind="multiscalar", workload=name, units=8,
               predictor_static=static)
        for name in NAMES for static in (False, True)])
    return {name: (pas, static) for name, pas, static
            in zip(NAMES, results[::2], results[1::2])}


def test_pas_vs_static_prediction(once):
    results = once(build)
    print()
    for name, (pas, static) in results.items():
        print(f"{name:10}: PAs {pas.prediction_accuracy:6.1%} "
              f"({pas.cycles} cycles)   static "
              f"{static.prediction_accuracy:6.1%} "
              f"({static.cycles} cycles)")
    # The trained predictor is never (meaningfully) less accurate, and
    # on the branchy task structures it must be strictly better or the
    # machine strictly faster.
    for name, (pas, static) in results.items():
        assert pas.prediction_accuracy >= static.prediction_accuracy - 0.02
    assert any(pas.cycles < static.cycles
               or pas.prediction_accuracy > static.prediction_accuracy
               for pas, static in results.values())

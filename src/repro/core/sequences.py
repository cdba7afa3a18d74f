"""Trace-based sequence-length experiments (Section 6, Graphs 4-11).

Glue between the predictors and the simulator's
:class:`~repro.sim.trace.SequenceAnalyzer`: build the three prediction maps
the paper compares (Perfect, Heuristic, Loop+Rand) and compute their
distributions from one recorded :class:`~repro.sim.trace.SequenceLog` —
the profile run's own (:func:`~repro.sim.trace.sequence_analyzers`), or a
re-simulation's when the profile run kept none (:func:`sequence_experiment`).
"""

from __future__ import annotations

from repro.core.classify import ProgramAnalysis, classify_branches
from repro.core.predictors import (
    HeuristicPredictor, LoopRandomPredictor, PerfectPredictor,
)
from repro.isa.program import Executable
from repro.sim import run_with_sequences
from repro.sim.profile import EdgeProfile
from repro.sim.trace import SequenceAnalyzer

__all__ = ["sequence_experiment", "sequence_predictions",
           "PAPER_SEQUENCE_PREDICTORS"]

PAPER_SEQUENCE_PREDICTORS = ("Loop+Rand", "Heuristic", "Perfect")


def sequence_predictions(analysis: ProgramAnalysis,
                         profile: EdgeProfile) -> dict[str, dict[int, bool]]:
    """The paper's three prediction maps, keyed like
    :data:`PAPER_SEQUENCE_PREDICTORS`; *profile* defines Perfect."""
    return {
        "Loop+Rand": LoopRandomPredictor(analysis).prediction_map(),
        "Heuristic": HeuristicPredictor(analysis).prediction_map(),
        "Perfect": PerfectPredictor(analysis, profile).prediction_map(),
    }


def sequence_experiment(
    executable: Executable,
    profile: EdgeProfile,
    inputs: list | None = None,
    analysis: ProgramAnalysis | None = None,
    max_instructions: int = 200_000_000,
    engine: str | None = None,
    max_memory_bytes: int | None = None,
    wall_clock_deadline: float | None = None,
) -> dict[str, SequenceAnalyzer]:
    """Re-simulate one execution, record its log, and measure the
    sequence-length distributions of the paper's three predictors from
    it (:func:`~repro.sim.run_with_sequences`).

    *profile* must come from an identical prior run (same inputs); it
    defines the perfect predictor. Returns analyzers keyed
    ``"Loop+Rand" | "Heuristic" | "Perfect"``.  The limits and *engine*
    are forwarded to the :class:`~repro.sim.Machine`, which lays its
    superblocks out along the Heuristic map.
    """
    if analysis is None:
        analysis = classify_branches(executable)
    predictions = sequence_predictions(analysis, profile)
    return run_with_sequences(executable, predictions,
                              inputs=inputs,
                              max_instructions=max_instructions,
                              engine=engine,
                              max_memory_bytes=max_memory_bytes,
                              wall_clock_deadline=wall_clock_deadline,
                              layout=predictions["Heuristic"])

"""Shadow-validation and checkpoint-merge benchmark (``python -m repro perf``)."""

from .shadowbench import SHADOW_CONFIGS, SHADOW_MERGE_GATE, measure_shadow, run

__all__ = ["SHADOW_CONFIGS", "SHADOW_MERGE_GATE", "measure_shadow", "run"]

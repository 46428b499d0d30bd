"""File-centric baselines: the flat-file zoo, the sequential binning
script, and the MAQ-style command-line pipeline."""

from .flat_files import FileCentricStore
from .maq_tool import MaqTool
from .perl_binning import run_binning_script
from .trace import Phase, ResourceTrace

__all__ = [
    "FileCentricStore",
    "MaqTool",
    "Phase",
    "ResourceTrace",
    "run_binning_script",
]

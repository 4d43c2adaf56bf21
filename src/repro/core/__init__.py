"""Core contribution: partition, feature selection, templates, STMaker."""

from repro.core.config import SummarizerConfig
from repro.core.types import (
    FeatureAssessment,
    PartitionSpan,
    PartitionSummary,
    TrajectorySummary,
)
from repro.core.similarity import segment_similarities, weighted_cosine_similarity
from repro.core.partition import (
    brute_force_k_partition,
    optimal_k_partition,
    optimal_partition,
    partition_potential,
    spans_from_boundaries,
)
from repro.core.selection import (
    FeatureSelector,
    PartitionAssessment,
    moving_irregular_rate,
    routing_feature_distance,
    routing_irregular_rate,
)
from repro.core.templates import (
    number_word,
    partition_sentence,
    phrase_for,
    pluralize,
    summary_text,
)
from repro.core.summarizer import STMaker
from repro.core.group import GroupMember, GroupSummarizer, GroupSummary
from repro.core.store import FeaturePredicate, SummaryStore

__all__ = [
    "SummarizerConfig",
    "PartitionSpan",
    "FeatureAssessment",
    "PartitionSummary",
    "TrajectorySummary",
    "weighted_cosine_similarity",
    "segment_similarities",
    "optimal_partition",
    "optimal_k_partition",
    "brute_force_k_partition",
    "partition_potential",
    "spans_from_boundaries",
    "routing_feature_distance",
    "routing_irregular_rate",
    "moving_irregular_rate",
    "FeatureSelector",
    "PartitionAssessment",
    "number_word",
    "pluralize",
    "phrase_for",
    "partition_sentence",
    "summary_text",
    "STMaker",
    "GroupSummarizer",
    "GroupSummary",
    "GroupMember",
    "SummaryStore",
    "FeaturePredicate",
]

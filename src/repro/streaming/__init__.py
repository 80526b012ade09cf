"""``repro.streaming``: the micro-batch streaming plane.

DStreams on top of the RDD engine (§6's Spark-Streaming observation made
first-class): a :class:`StreamingContext` drives batches on the simulated
clock, transformations lower to the existing fused RDD and columnar data
planes, and τ-periodic state checkpointing (``core/interval.py``) keeps
operator-state lineage — and therefore recovery after a revocation —
bounded on transient servers.
"""

from repro.streaming.context import (
    BatchInfo,
    StateCheckpointPolicy,
    StreamingContext,
)
from repro.streaming.dstream import (
    DStream,
    SourceDStream,
    StateDStream,
    TransformedDStream,
    WindowedDStream,
)
from repro.streaming.sources import (
    EventSource,
    RateSource,
    StreamSource,
    TextSource,
)
from repro.streaming.workloads import (
    StreamingIdentityWorkload,
    StreamingWindowWorkload,
    StreamingWordCountWorkload,
    run_recovery_benchmark,
)

__all__ = [
    "BatchInfo",
    "DStream",
    "EventSource",
    "RateSource",
    "SourceDStream",
    "StateCheckpointPolicy",
    "StateDStream",
    "StreamSource",
    "StreamingContext",
    "StreamingIdentityWorkload",
    "StreamingWindowWorkload",
    "StreamingWordCountWorkload",
    "TextSource",
    "TransformedDStream",
    "WindowedDStream",
    "run_recovery_benchmark",
]

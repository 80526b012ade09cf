"""Unbounded seeded stream sources for the micro-batch plane.

A :class:`StreamSource` describes an infinite discretised input: batch ``b``
of the stream is a deterministic pure function of ``(source config, b)``, so
either data plane — row or columnar — regenerates byte-identical batches,
and a revoked partition can
always be recomputed from the source alone (the transient-server property
the whole engine is built around).

Three concrete sources mirror the identity/wordcount/window suite of the
Flink-vs-Spark reproducibility study (PAPERS.md):

* :class:`RateSource` — monotonically increasing integers, the pass-through
  identity benchmark's input;
* :class:`EventSource` — seeded ``(key, value)`` pairs over a bounded key
  space, the windowed-aggregation input (and, with ``value_range=None``,
  a drop-in for the legacy ``StreamingWorkload`` batch generator);
* :class:`TextSource` — seeded lines of words from a fixed vocabulary, the
  stateful-wordcount input.

The per-partition generators returned by :meth:`StreamSource.generator_for`
capture only plain data (ints, strings, tuples); they must never close over
the source object, an RDD, or the context, so a batch's lineage pins no
driver state.

A generator returns its partition as rows (a list of records) or as the
NumPy columns it drew: the numeric sources as
:func:`~repro.engine.columnar.columns`, and :class:`TextSource` as its
lines' tokens (:func:`~repro.engine.columnar.token_lines`, word codes into
the vocabulary).  A partition born as columns becomes rows
(``batch.to_records()``) only where something needs them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.engine.columnar import ColumnarBatch, Drawn, are_tokens, columns, token_lines
from repro.simulation.rng import SeededRNG

GB = 10**9

#: Default virtual bytes per record when a source does not override it.
DEFAULT_RECORD_SIZE = 250_000


class StreamSource:
    """One unbounded, replayable input stream (batch-indexed).

    Subclasses implement :meth:`generator_for`, returning a pure
    per-partition generator for one batch.  Everything else — record
    counts, reference materialisation for tests — derives from it.
    """

    def __init__(
        self,
        name: str,
        records_per_batch: int,
        num_partitions: int,
        record_size: int = DEFAULT_RECORD_SIZE,
        compute_multiplier: float = 2.0,
    ):
        if records_per_batch <= 0:
            raise ValueError("records_per_batch must be positive")
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if record_size <= 0:
            raise ValueError("record_size must be positive")
        self.name = name
        self.records_per_batch = records_per_batch
        self.num_partitions = num_partitions
        self.record_size = record_size
        self.compute_multiplier = compute_multiplier

    @property
    def per_partition(self) -> int:
        """Records each partition emits per batch (floor division, so the
        actual batch size is ``per_partition * num_partitions``)."""
        return self.records_per_batch // self.num_partitions

    def records_in_batch(self, batch: int) -> int:
        """How many records batch ``batch`` carries (throughput accounting)."""
        return self.per_partition * self.num_partitions

    def generator_for(self, batch: int) -> Callable[[int], Drawn]:
        """A pure ``partition -> records`` function for one batch (its
        records as rows, or as a :class:`ColumnarBatch`)."""
        raise NotImplementedError

    def reference_records(self, batch: int) -> List[Any]:
        """Driver-side materialisation of one whole batch (test oracle)."""
        gen = self.generator_for(batch)
        out: List[Any] = []
        for p in range(self.num_partitions):
            part = gen(p)
            out.extend(part.to_records() if type(part) is ColumnarBatch else part)
        return out


class RateSource(StreamSource):
    """Consecutive integers at a fixed rate — the identity benchmark input.

    Batch ``b``, partition ``p`` emits
    ``start + b*batch_size + p*per_partition + i`` for ``i`` in range — pure
    arithmetic, no RNG, so recomputation is trivially deterministic.
    """

    def __init__(
        self,
        records_per_batch: int,
        num_partitions: int,
        record_size: int = DEFAULT_RECORD_SIZE,
        start: int = 0,
        name: str = "rate",
    ):
        super().__init__(name, records_per_batch, num_partitions, record_size)
        self.start = int(start)

    def generator_for(self, batch: int) -> Callable[[int], Drawn]:
        per_part = self.per_partition
        base = self.start + batch * per_part * self.num_partitions

        def generate(p: int) -> Drawn:
            lo = base + p * per_part
            return columns(np.arange(lo, lo + per_part, dtype=np.int64))

        return generate


class EventSource(StreamSource):
    """Seeded ``(key, value)`` pairs over ``num_keys`` keys.

    With ``value_range=None`` every value is the literal ``1`` and the
    per-partition RNG draws exactly one ``integers`` call — the same stream
    the legacy ``StreamingWorkload`` generator consumed, which is what lets
    the DStream port stay bit-identical to the hand-rolled loop.  With a
    ``(low, high)`` range, a second draw supplies the values (the windowed
    aggregation input).
    """

    def __init__(
        self,
        records_per_batch: int,
        num_partitions: int,
        num_keys: int,
        seed: int,
        record_size: int = DEFAULT_RECORD_SIZE,
        value_range: Optional[Tuple[int, int]] = None,
        label: str = "batch",
        name: str = "events",
    ):
        super().__init__(name, records_per_batch, num_partitions, record_size)
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        self.num_keys = num_keys
        self.seed = seed
        self.value_range = value_range
        self.label = label

    def generator_for(self, batch: int) -> Callable[[int], Drawn]:
        per_part = self.per_partition
        seed = self.seed
        keys = self.num_keys
        label = self.label
        value_range = self.value_range

        def generate(p: int) -> Drawn:
            rng = SeededRNG(seed, f"{label}-{batch}-{p}")
            drawn = rng.integers(0, keys, size=per_part)
            if value_range is None:
                values = np.ones(per_part, dtype=np.int64)
            else:
                values = rng.integers(value_range[0], value_range[1], size=per_part)
            return columns(drawn, values)

        return generate


class TextSource(StreamSource):
    """Seeded lines of words from a fixed vocabulary — wordcount's input.

    Each record is one line of ``words_per_line`` space-joined words drawn
    uniformly from ``vocabulary``.  A partition is born as its tokens: the
    drawn words as codes into the vocabulary (a word listed twice is one
    dictionary entry), laid out as lines, so no line string is built unless
    something observes the partition — ``to_records()`` gives exactly the
    lines the same draws give as rows.  A vocabulary word that is not one
    token (``w.split() != [w]``: empty, or holding whitespace) could not be
    split back out of its line, so such a vocabulary draws rows.
    """

    def __init__(
        self,
        lines_per_batch: int,
        num_partitions: int,
        vocabulary: Tuple[str, ...],
        seed: int,
        words_per_line: int = 4,
        record_size: int = DEFAULT_RECORD_SIZE,
        label: str = "text",
        name: str = "text",
    ):
        super().__init__(name, lines_per_batch, num_partitions, record_size)
        if not vocabulary:
            raise ValueError("vocabulary must be non-empty")
        if words_per_line <= 0:
            raise ValueError("words_per_line must be positive")
        self.vocabulary = tuple(vocabulary)
        self.seed = seed
        self.words_per_line = words_per_line
        self.label = label
        #: The token dictionary (None: draw rows) and, when the vocabulary
        #: lists a word twice, each pick's code in it.
        self._words: Optional[Tuple[str, ...]] = tuple(dict.fromkeys(self.vocabulary))
        self._code_of: Optional[np.ndarray] = None
        if not are_tokens(self._words):
            self._words = None
        elif len(self._words) < len(self.vocabulary):
            self._code_of = np.array(
                [self._words.index(w) for w in self.vocabulary], dtype=np.int64
            )

    def generator_for(self, batch: int) -> Callable[[int], Drawn]:
        per_part = self.per_partition
        seed = self.seed
        vocab = self.vocabulary
        wpl = self.words_per_line
        label = self.label
        dictionary = self._words
        code_of = self._code_of

        def generate(p: int) -> Drawn:
            rng = SeededRNG(seed, f"{label}-{batch}-{p}")
            picks = rng.integers(0, len(vocab), size=per_part * wpl)
            if dictionary is not None:
                codes = picks if code_of is None else code_of[picks]
                return token_lines(codes, dictionary, wpl)
            words = iter([vocab[w] for w in picks.tolist()])
            # ``wpl`` references to one iterator: zip deals the words out
            # ``wpl`` at a time, one tuple per line.
            return list(map(" ".join, zip(*[words] * wpl)))

        return generate

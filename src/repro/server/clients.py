"""Seeded client generators that drive a :class:`~repro.server.jobserver.JobServer`.

Two canonical load models from the queueing literature:

- **Closed loop** — one outstanding query per client; the next arrival is
  scheduled *after* the previous completion plus an exponential think time.
  Latency feedback throttles the client, like an analyst at a console.
- **Open loop** — Poisson arrivals at a fixed rate, blind to completions.
  Queries pile up when the system falls behind, like a public endpoint.

Both are deterministic given ``master_seed``: interarrival draws come from a
:class:`~repro.simulation.rng.SeededRNG` child stream keyed by the client
name, and arrivals ride the simulation's event queue via ``schedule_in``.
Clients never pump the event loop themselves — they submit with a completion
callback, so any number of them can interleave with batch jobs in flight.

A closed-loop client given a :class:`~repro.server.tenancy.RetryPolicy`
treats a *rejected* query as retryable: it backs off (seeded exponential
delay with jitter) and re-submits the same logical query instead of
silently burning one of its ``max_queries`` — the behaviour of any real
client library in front of a load-shedding server.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.simulation.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.jobserver import JobServer, QueryRecord
    from repro.server.tenancy import RetryPolicy


class ClosedLoopClient:
    """Issues the next query only after the previous one completes.

    With ``retry_policy`` set, a rejection triggers a seeded backoff and a
    re-submission of the *same* logical query (it still counts as the same
    ``issued`` sequence number); only when retries are exhausted does the
    client give up on that query and move on through its think time.
    """

    def __init__(
        self,
        server: "JobServer",
        query_fn: Callable[[], Any],
        pool: str = "interactive",
        name: str = "client",
        think_time: float = 5.0,
        max_queries: int = 10,
        master_seed: int = 0,
        tenant: Optional[str] = None,
        cache_key: Optional[str] = None,
        retry_policy: Optional["RetryPolicy"] = None,
    ):
        self.server = server
        self.query_fn = query_fn
        self.pool = pool
        self.name = name
        self.think_time = think_time
        self.max_queries = max_queries
        self.tenant = tenant
        self.cache_key = cache_key
        self.retry_policy = retry_policy
        self.rng = SeededRNG(master_seed, f"client/{name}")
        self.issued = 0
        self.retries = 0
        self.gave_up = 0
        self.finished = False
        self.records: List["QueryRecord"] = []
        self._attempt = 0

    def start(self, delay: float = 0.0) -> None:
        """Schedule the first arrival ``delay`` simulated seconds from now."""
        self.server.context.env.schedule_in(
            delay, f"{self.name}-arrival", callback=self._arrive
        )

    def _arrive(self, _event: object = None) -> None:
        self.issued += 1
        self._attempt = 0
        self._submit()

    def _submit(self, _event: object = None) -> None:
        suffix = f"-r{self._attempt}" if self._attempt else ""
        self.server.submit_query(
            self.query_fn,
            pool=self.pool,
            name=f"{self.name}-{self.issued}{suffix}",
            tenant=self.tenant,
            cache_key=self.cache_key,
            on_complete=self._completed,
        )

    def _completed(self, record: "QueryRecord") -> None:
        self.records.append(record)
        if record.rejected:
            policy = self.retry_policy
            if policy is not None and self._attempt < policy.max_attempts:
                # Shed, not served: back off and re-submit the same logical
                # query.  (Without a policy the old behaviour stood — the
                # rejection burned one of max_queries and the client never
                # retried, so a shed client under-issued forever.)
                self._attempt += 1
                self.retries += 1
                delay = policy.backoff(self._attempt, self.rng)
                self.server.context.env.schedule_in(
                    delay, f"{self.name}-retry",
                    callback=self._submit,
                )
                return
            self.gave_up += 1
        if self.issued >= self.max_queries:
            self.finished = True
            return
        think = float(self.rng.exponential(self.think_time))
        self.server.context.env.schedule_in(
            think, f"{self.name}-arrival", callback=self._arrive
        )


class OpenLoopClient:
    """Poisson arrivals at ``rate`` per simulated second, blind to completions."""

    def __init__(
        self,
        server: "JobServer",
        query_fn: Callable[[], Any],
        rate: float = 0.1,
        pool: str = "interactive",
        name: str = "open-client",
        max_queries: int = 10,
        master_seed: int = 0,
        tenant: Optional[str] = None,
        cache_key: Optional[str] = None,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.server = server
        self.query_fn = query_fn
        self.rate = rate
        self.pool = pool
        self.name = name
        self.max_queries = max_queries
        self.tenant = tenant
        self.cache_key = cache_key
        self.rng = SeededRNG(master_seed, f"client/{name}")
        self.issued = 0
        self.finished = False
        self.records: List["QueryRecord"] = []

    def start(self, delay: Optional[float] = None) -> None:
        """Schedule the first arrival (a fresh interarrival draw by default)."""
        if delay is None:
            delay = float(self.rng.exponential(1.0 / self.rate))
        self.server.context.env.schedule_in(
            delay, f"{self.name}-arrival", callback=self._arrive
        )

    def _arrive(self, _event: object = None) -> None:
        self.issued += 1
        # Schedule the successor before running the query: open-loop arrivals
        # must not inherit the current query's latency.
        if self.issued < self.max_queries:
            gap = float(self.rng.exponential(1.0 / self.rate))
            self.server.context.env.schedule_in(
                gap, f"{self.name}-arrival", callback=self._arrive
            )
        else:
            self.finished = True
        self.server.submit_query(
            self.query_fn,
            pool=self.pool,
            name=f"{self.name}-{self.issued}",
            tenant=self.tenant,
            cache_key=self.cache_key,
            on_complete=self.records.append,
        )

"""Paged chain fetching with retries, fault injection and repair.

:func:`fetch_chain` models the paper's BigQuery extract as it really
happens in production: the year's blocks arrive page by page over an
unreliable transport.  Each page read goes through
:func:`~repro.resilience.retry.retry_call` (transient errors and
timeouts are retried with backoff), transport mangling is applied by the
optional :class:`~repro.resilience.faults.FaultInjector`, and the
assembled rows are passed through
:func:`~repro.resilience.integrity.repair_blocks` before the chain is
rebuilt.

The acceptance invariant of the whole resilience layer lives here: with
retries enabled and the ``refetch`` repair policy, a faulted fetch
returns a chain *array-identical* to the clean fetch, so every metric
series computed from it is byte-identical (asserted by ``repro chaos``
and ``tests/properties/test_fault_tolerance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro import obs
from repro.chain.chain import Chain
from repro.resilience.faults import FaultInjector
from repro.resilience.integrity import (
    DataQualityReport,
    RawBlock,
    chain_from_raw_blocks,
    raw_blocks,
    repair_blocks,
)
from repro.resilience.retry import Clock, RetryPolicy, retry_call

#: Page size mirroring a BigQuery result page, small enough that a small
#: simulated extract still spans many pages.
DEFAULT_PAGE_SIZE = 512


@dataclass(frozen=True)
class FetchResult:
    """A fetched (possibly repaired) chain plus its data-quality report."""

    chain: Chain
    report: DataQualityReport
    pages: int

    @property
    def clean(self) -> bool:
        """True when the transport delivered every page intact."""
        return self.report.clean


def iter_pages(
    chain: Chain, page_size: int = DEFAULT_PAGE_SIZE
) -> Iterator[list[RawBlock]]:
    """The source of truth as a paged read: raw rows, ``page_size`` at a time."""
    for start in range(0, chain.n_blocks, page_size):
        yield raw_blocks(chain, start, start + page_size)


def fetch_chain(
    source: Chain,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    injector: FaultInjector | None = None,
    retry_policy: RetryPolicy | None = None,
    clock: Clock | None = None,
    repair_policy: str = "refetch",
    seed: int = 0,
) -> FetchResult:
    """Fetch ``source`` page by page, surviving injected transport faults.

    Without an injector this is the clean ingest (still exercising the
    same page/assembly path, so clean and faulted runs are comparable).
    ``seed`` feeds the retry layer's jitter stream only; the injector
    carries its own seed.
    """
    expected = range(
        int(source.heights[0]), int(source.heights[-1]) + 1
    ) if source.n_blocks else range(0)

    def read_page(start: int) -> list[RawBlock]:
        if injector is not None:
            injector.on_read(f"page[{start}:{start + page_size}]")
        return raw_blocks(source, start, start + page_size)

    def refetch(height: int) -> RawBlock:
        position = int(height - expected.start)

        def read_one() -> RawBlock:
            if injector is not None:
                injector.on_read(f"block[{height}]")
            return raw_blocks(source, position, position + 1)[0]

        return retry_call(
            read_one,
            policy=retry_policy,
            clock=clock,
            seed=seed,
            name=f"refetch:{height}",
        )

    rows: list[RawBlock] = []
    n_pages = 0
    with obs.span(
        "resilience.fetch_chain",
        chain=source.spec.name,
        n_blocks=source.n_blocks,
        faulted=injector is not None,
    ):
        for page_index, start in enumerate(range(0, source.n_blocks, page_size)):
            page = retry_call(
                lambda start=start: read_page(start),
                policy=retry_policy,
                clock=clock,
                seed=seed,
                name=f"page:{start}",
            )
            if injector is not None:
                page = injector.mangle_page(page, page_index=page_index)
            rows.extend(page)
            n_pages += 1

        repaired, report = repair_blocks(
            rows,
            expected,
            policy=repair_policy,
            refetch=refetch if repair_policy == "refetch" else None,
        )
        chain = chain_from_raw_blocks(
            source.spec, repaired, validate=repair_policy != "drop"
        )
    return FetchResult(chain=chain, report=report, pages=n_pages)


def chains_equal(a: Chain, b: Chain) -> bool:
    """Array-level equality of two chains (the chaos invariant)."""
    return (
        a.n_blocks == b.n_blocks
        and np.array_equal(a.heights, b.heights)
        and np.array_equal(a.timestamps, b.timestamps)
        and np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.producer_ids, b.producer_ids)
        and list(a.producer_names) == list(b.producer_names)
    )

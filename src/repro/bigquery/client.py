"""The BigQuery-shaped client over simulated public datasets."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.chain.chain import Chain
from repro.data.store import ChainStore
from repro.errors import SqlPlanError
from repro.simulation.scenarios import simulate_bitcoin_2019, simulate_ethereum_2019
from repro.sql import QueryEngine
from repro.table import Table

#: The public datasets this client serves, mirroring BigQuery's
#: ``bigquery-public-data.crypto_bitcoin`` / ``crypto_ethereum``.
PUBLIC_DATASETS = ("crypto_bitcoin", "crypto_ethereum")

#: Tables available in each dataset.
DATASET_TABLES = ("blocks", "credits")


@dataclass
class QueryJob:
    """A completed query: its result table plus bookkeeping."""

    sql: str
    _table: Table
    #: Wall-clock execution time in seconds.
    elapsed: float
    job_id: int

    @property
    def total_rows(self) -> int:
        """Number of rows in the result."""
        return self._table.num_rows

    def result(self) -> Table:
        """The query's result table."""
        return self._table

    def to_rows(self) -> list[dict]:
        """Shorthand for ``result().to_rows()``."""
        return self._table.to_rows()


class BigQueryClient:
    """Runs SQL against lazily simulated 2019 chain datasets.

    Datasets are simulated on first touch; pass a :class:`ChainStore` to
    persist them across processes (the simulate-once workflow the paper's
    one-off BigQuery extract corresponds to).  A stored dataset whose
    checksum fails is rebuilt (:func:`~repro.data.cache.cached_chain`).
    """

    def __init__(self, seed: int = 2019, store: ChainStore | None = None) -> None:
        self._seed = seed
        self._store = store
        self._chains: dict[str, Chain] = {}
        self._engine = QueryEngine()
        self._loaded: set[str] = set()
        self._job_counter = 0

    # -- catalog ------------------------------------------------------------

    def list_datasets(self) -> tuple[str, ...]:
        """The available public datasets."""
        return PUBLIC_DATASETS

    def list_tables(self, dataset: str) -> tuple[str, ...]:
        """Tables within ``dataset``."""
        if dataset not in PUBLIC_DATASETS:
            raise SqlPlanError(
                f"unknown dataset {dataset!r}; available: {PUBLIC_DATASETS}"
            )
        return DATASET_TABLES

    def chain(self, dataset: str) -> Chain:
        """The chain behind ``dataset`` (simulating it if needed)."""
        if dataset not in PUBLIC_DATASETS:
            raise SqlPlanError(
                f"unknown dataset {dataset!r}; available: {PUBLIC_DATASETS}"
            )
        if dataset not in self._chains:
            self._chains[dataset] = self._build_chain(dataset)
        return self._chains[dataset]

    def _build_chain(self, dataset: str) -> Chain:
        def build() -> Chain:
            if dataset == "crypto_bitcoin":
                return simulate_bitcoin_2019(seed=self._seed)
            return simulate_ethereum_2019(seed=self._seed)

        if self._store is None:
            return build()
        from repro.data.cache import cached_chain

        return cached_chain(self._store, f"{dataset}-{self._seed}", build)

    # -- querying --------------------------------------------------------------

    def query(self, sql: str) -> QueryJob:
        """Execute ``sql``; dataset-qualified tables load on demand."""
        self._ensure_tables(sql)
        started = time.perf_counter()
        result = self._engine.execute(sql)
        elapsed = time.perf_counter() - started
        self._job_counter += 1
        return QueryJob(sql=sql, _table=result, elapsed=elapsed, job_id=self._job_counter)

    def _ensure_tables(self, sql: str) -> None:
        """Register any referenced public tables with the SQL engine."""
        lowered = sql.lower()
        for dataset in PUBLIC_DATASETS:
            for table_name in DATASET_TABLES:
                qualified = f"{dataset}.{table_name}"
                if qualified in self._loaded or qualified not in lowered:
                    continue
                chain = self.chain(dataset)
                table = (
                    chain.block_table() if table_name == "blocks" else chain.to_table()
                )
                self._engine.register(qualified, table)
                self._loaded.add(qualified)

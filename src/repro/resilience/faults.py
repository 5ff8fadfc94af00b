"""Deterministic, seeded fault injection for the data layer.

A :class:`FaultInjector` is the adversary the resilience layer is tested
against: wrapped around page reads, cache files and block feeds, it
injects

``read_error``
    a transient exception on a data-layer read,
``timeout``
    a simulated deadline overrun (also transient),
``truncate_page``
    a block page that arrives with its tail missing,
``duplicate_page``
    rows of a page delivered twice,
``reorder_page``
    a page whose rows arrive out of order,
``corrupt_cache``
    flipped bytes in an on-disk cache file,
``malformed_block``
    a block with a corrupted height, a regressed timestamp, or an empty
    coinbase address list,

on a schedule driven entirely by a named RNG stream — the same
``(plan, seed)`` pair always fires the same faults at the same
opportunities, which is what lets ``repro chaos`` assert byte-identical
recovery.  Fired faults are counted per kind on the :mod:`repro.obs`
metrics registry (``resilience.fault.<kind>``).

Spec strings configure a plan from the CLI (``--inject-faults``)::

    read_error:rate=0.3,max=5;truncate_page:rate=0.2;malformed_block:rate=0.1

Clauses are ``kind[:key=value,...]`` joined by ``;`` with keys ``rate``
(probability per opportunity, default 0.25) and ``max`` (cap on fires,
default unlimited).  Bad specs raise :class:`~repro.errors.FaultSpecError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import DeadlineExceededError, FaultSpecError, InjectedFaultError
from repro.resilience.integrity import RawBlock
from repro.util.rng import derive_rng

#: Every fault kind the injector understands.
FAULT_KINDS: tuple[str, ...] = (
    "read_error",
    "timeout",
    "truncate_page",
    "duplicate_page",
    "reorder_page",
    "corrupt_cache",
    "malformed_block",
)

#: The ways a ``malformed_block`` fault can mangle one block.
MALFORMED_VARIANTS: tuple[str, ...] = (
    "empty_producers",
    "timestamp_regression",
    "height_corruption",
)

_DEFAULT_RATE = 0.25


@dataclass(frozen=True)
class FaultRule:
    """One fault kind's schedule: fire with ``rate`` up to ``max_count`` times."""

    kind: str
    rate: float = _DEFAULT_RATE
    max_count: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultSpecError(
                f"fault rate must be in [0, 1], got {self.rate} for {self.kind!r}"
            )
        if self.max_count is not None and self.max_count < 0:
            raise FaultSpecError(
                f"fault max must be >= 0, got {self.max_count} for {self.kind!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A set of fault rules, at most one per kind."""

    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        kinds = [rule.kind for rule in self.rules]
        if len(kinds) != len(set(kinds)):
            raise FaultSpecError(f"duplicate fault kinds in plan: {kinds}")

    @property
    def kinds(self) -> tuple[str, ...]:
        """The fault kinds this plan schedules."""
        return tuple(rule.kind for rule in self.rules)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``kind:rate=...,max=...;kind...`` spec string."""
        return parse_fault_spec(spec)

    @classmethod
    def default(cls, rate: float = 0.2) -> "FaultPlan":
        """The chaos harness's default: every fault class, moderate rates."""
        return cls(
            (
                FaultRule("read_error", rate=rate),
                FaultRule("timeout", rate=rate / 2),
                FaultRule("truncate_page", rate=rate),
                FaultRule("duplicate_page", rate=rate),
                FaultRule("reorder_page", rate=rate),
                FaultRule("corrupt_cache", rate=1.0, max_count=1),
                FaultRule("malformed_block", rate=rate),
            )
        )


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the CLI's ``--inject-faults`` spec into a :class:`FaultPlan`.

    >>> parse_fault_spec("read_error:rate=0.5,max=3").rules
    (FaultRule(kind='read_error', rate=0.5, max_count=3),)
    """
    if not isinstance(spec, str) or not spec.strip():
        raise FaultSpecError("fault spec must be a non-empty string")
    rules: list[FaultRule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, options = clause.partition(":")
        kind = kind.strip()
        kwargs: dict[str, float | int] = {}
        if options.strip():
            for option in options.split(","):
                key, sep, value_text = option.partition("=")
                key = key.strip()
                if not sep or key not in ("rate", "max"):
                    raise FaultSpecError(
                        f"bad fault option {option!r} in clause {clause!r} "
                        "(expected rate=FLOAT or max=INT)"
                    )
                try:
                    if key == "rate":
                        kwargs["rate"] = float(value_text)
                    else:
                        kwargs["max_count"] = int(value_text)
                except ValueError as exc:
                    raise FaultSpecError(
                        f"bad fault option value {option!r} in {clause!r}"
                    ) from exc
        rules.append(FaultRule(kind, **kwargs))
    if not rules:
        raise FaultSpecError(f"fault spec {spec!r} contains no clauses")
    return FaultPlan(tuple(rules))


class FaultInjector:
    """Fires the plan's faults on a deterministic seeded schedule.

    Each injection point is an *opportunity*; the injector draws one
    uniform variate per (opportunity, rule) from the ``fault-injector``
    stream of ``seed``, so runs with the same plan and seed are
    bit-identical.  :attr:`fired` counts injections per kind.
    """

    def __init__(self, plan: FaultPlan, seed: int = 7) -> None:
        self.plan = plan
        self.seed = seed
        self._rules = {rule.kind: rule for rule in plan.rules}
        self._rng = derive_rng(seed, "fault-injector")
        self.fired: dict[str, int] = {kind: 0 for kind in self._rules}
        self.opportunities: dict[str, int] = {kind: 0 for kind in self._rules}

    def _fire(self, kind: str) -> bool:
        rule = self._rules.get(kind)
        if rule is None:
            return False
        self.opportunities[kind] += 1
        # Draw before checking the cap so capping a kind never perturbs
        # the schedule of the others.
        draw = float(self._rng.random())
        if rule.max_count is not None and self.fired[kind] >= rule.max_count:
            return False
        if draw >= rule.rate:
            return False
        self.fired[kind] += 1
        obs.get_tracer().metrics.counter(f"resilience.fault.{kind}").inc()
        return True

    # -- transient read faults ------------------------------------------------

    def on_read(self, name: str) -> None:
        """Raise an injected transient failure for the read ``name``, maybe."""
        if self._fire("read_error"):
            raise InjectedFaultError(f"injected transient read error on {name}")
        if self._fire("timeout"):
            raise DeadlineExceededError(f"injected timeout on {name}")

    # -- page mangling --------------------------------------------------------

    def mangle_page(self, page: list[RawBlock], page_index: int = 1) -> list[RawBlock]:
        """Return ``page`` with any scheduled transport faults applied.

        Mangling happens *after* a successful read: retries fix transient
        errors, the integrity layer fixes mangled content.  Pass
        ``page_index=0`` for the extract's first page — a timestamp
        regression on the very first block is indistinguishable from a
        legitimately early timestamp, so the fault model spares that row.
        """
        if not page:
            return page
        mangled = list(page)
        if self._fire("truncate_page") and len(mangled) > 1:
            mangled = mangled[: max(1, len(mangled) // 2)]
        if self._fire("duplicate_page"):
            dup_count = max(1, len(mangled) // 4)
            mangled = mangled + mangled[:dup_count]
        if self._fire("reorder_page") and len(mangled) > 1:
            order = self._rng.permutation(len(mangled))
            mangled = [mangled[int(i)] for i in order]
        if self._fire("malformed_block"):
            index = int(self._rng.integers(len(mangled)))
            timestamp_ok = page_index > 0 or index > 0
            mangled[index] = self._malform(mangled[index], timestamp_ok)
        return mangled

    def _malform(self, block: RawBlock, timestamp_ok: bool = True) -> RawBlock:
        variant = MALFORMED_VARIANTS[
            int(self._rng.integers(len(MALFORMED_VARIANTS)))
        ]
        if variant == "timestamp_regression" and not timestamp_ok:
            variant = "height_corruption"
        if variant == "empty_producers":
            return RawBlock(block.height, block.timestamp, ())
        if variant == "timestamp_regression":
            return RawBlock(block.height, block.timestamp - 86_400_000, block.producers)
        return RawBlock(-block.height, block.timestamp, block.producers)

    def mangle_feed(self, feed):
        """Per-block generator form of :meth:`mangle_page` for monitors.

        Yields each block's producer list, occasionally dropped
        (``truncate_page``), repeated (``duplicate_page``) or emptied
        (``malformed_block``) — an emptied list is what crashes an
        unsupervised monitor thread.
        """
        for producers in feed:
            if self._fire("truncate_page"):
                continue
            if self._fire("malformed_block"):
                yield []
                continue
            yield producers
            if self._fire("duplicate_page"):
                yield producers

    # -- cache corruption -----------------------------------------------------

    def corrupt_file(self, path) -> bool:
        """Flip one byte near the middle of ``path`` if scheduled.

        Returns True when the file was actually corrupted.
        """
        if not self._fire("corrupt_cache"):
            return False
        corrupt_file_bytes(path, rng=self._rng)
        return True


def corrupt_file_bytes(path, rng: np.random.Generator | None = None) -> int:
    """Unconditionally flip one byte of ``path``; returns the offset flipped.

    Exposed separately so integrity tests can corrupt a cache file
    without building a whole injector.
    """
    rng = rng if rng is not None else derive_rng(0, "corrupt-file")
    data = bytearray(path.read_bytes() if hasattr(path, "read_bytes")
                     else open(path, "rb").read())
    if not data:
        return -1
    offset = int(rng.integers(len(data) // 4, max(len(data) * 3 // 4, 1)))
    data[offset] ^= 0xFF
    if hasattr(path, "write_bytes"):
        path.write_bytes(bytes(data))
    else:
        with open(path, "wb") as fh:
            fh.write(bytes(data))
    return offset

"""The campaign executor: one job protocol behind every batch runner.

:class:`~repro.sweep.runner.SweepRunner`,
:class:`~repro.sweep.platform.PlatformSweepRunner` and (through the latter)
:class:`~repro.fault.campaign.FaultCampaignRunner` all run lists of
independent jobs; only the unit of work differs.  Everything around it
lives here, once:

* the run store, in the coordinating process: it derives every job's store
  key once (only when a store is configured) and, with ``resume``, loads
  and decodes the committed jobs before anything fans out;
* fan-out: :func:`map_scenario_chunks` spreads even contiguous chunks of the
  *pending* jobs over a process pool, or they run serially with identical
  outcomes; a run with nothing pending starts no pool, and a worker process
  that dies fails the run instead of hanging it;
* the per-job protocol, in the process that owns the chunk: execute →
  commit → telemetry.  Every fresh outcome is committed under the key the
  coordinator derived the moment the engine yields it, so a killed chunk
  keeps its finished work;
* the rules: ``resume`` loads committed jobs instead of executing them;
  ``interrupt_after`` executes and commits that many jobs per chunk, then
  raises :class:`~repro.errors.CampaignInterrupted`;
* progress, tracing (enable, mark, collect — in the coordinator and in
  every chunk) and the merged :class:`~repro.obs.telemetry.TelemetryReport`.

An *engine* is the picklable recipe for one kind of job
(:class:`~repro.sweep.runner.SweepConfig`,
:class:`~repro.sweep.platform.PlatformSweepConfig`).  It provides the
telemetry tag ``ENGINE`` and progress label ``UNITS``;
``store_inputs(job)``, the payload whose digest keys a job;
``execute(jobs, pending)``, which runs ``jobs[i]`` for each ``i`` in
``pending`` and yields ``(i, outcome)`` as each unit finishes (a batch
engine may finish several at once); the record codec ``encode(outcome)`` /
``decode(record)``, where ``decode`` returns ``None`` to refuse a record so
the job re-executes; and ``latency(outcome)``, an executed outcome's wall
seconds or ``None`` for units simulated jointly.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..errors import CampaignInterrupted, PlatformError, ReproError, StoreError
from ..obs.progress import ProgressReporter
from ..obs.telemetry import TelemetryReport
from ..obs.tracer import TRACER, disable_tracing, enable_tracing, tracing_enabled
from ..store import RunStore, as_run_store


class SweepError(ReproError):
    """Raised when a sweep cannot be expanded or executed."""


def map_scenario_chunks(
    worker: Callable[[tuple], object],
    config: object,
    scenarios: Sequence,
    workers: int,
    progress: "Callable[[int], None] | None" = None,
) -> "list | None":
    """Run ``worker((config, chunk))`` over contiguous chunks in a process pool.

    The executor's fan-out.  Returns the chunk results in scenario order, or
    ``None`` when the pool cannot be built or the payload cannot be pickled
    — the caller then falls back to the serial path, which by construction
    produces identical results.

    ``progress`` (scenario-count callback) is invoked in the parent as each
    chunk completes; chunk results still arrive in submission order.

    Payload picklability is probed *before* submission (``pickle.dumps`` of
    the exact task list), so an unpicklable recipe is a clean serial
    fallback while any exception raised by a chunk is a genuine worker
    error (bad factory arguments, abstraction failures, a simulated
    campaign interruption...) and propagates unchanged — a worker error
    that merely *mentions* pickling in its message must not be misrouted
    into a silent serial retry.  A worker process that dies instead of
    returning (killed, or exiting without a result) fails the run with a
    :class:`SweepError` rather than leaving the caller waiting for it.
    """
    import multiprocessing
    import pickle
    import warnings
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    workers = min(workers, len(scenarios))
    bounds = np.linspace(0, len(scenarios), workers + 1).astype(int)
    chunks = [
        scenarios[start:stop]
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    payloads = [(config, chunk) for chunk in chunks]

    class _NullSink:
        """Discards pickle output: the probe needs the errors, not the bytes."""

        @staticmethod
        def write(data: bytes) -> int:
            return len(data)

    try:
        # Probe the submission path: exactly what the pool would serialize.
        # Unpicklable objects raise PicklingError (lambdas), AttributeError
        # (local functions) or TypeError (unpicklable C objects).  One extra
        # serialization pass on startup buys deterministic error routing —
        # any exception out of a chunk below is then a *worker* error.
        pickle.Pickler(_NullSink()).dump(payloads)
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        warnings.warn(
            f"sweep payload is not picklable, running serially ({error})",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    pool = None
    try:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        pool = ProcessPoolExecutor(max_workers=len(chunks), mp_context=context)
        # The first submission starts the worker processes.
        futures = [pool.submit(worker, payload) for payload in payloads]
    except (OSError, ValueError, AttributeError, ImportError) as error:
        # The *pool* could not be built (no fork, fd limits...): fall back.
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        warnings.warn(
            f"sweep falling back to serial execution ({error})",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    with pool:
        results = []
        # Waiting in submission order keeps the results in scenario order
        # while letting the parent observe each chunk as it lands — exactly
        # what the progress line needs.
        for chunk, future in zip(chunks, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as error:
                raise SweepError(
                    f"a sweep worker process died before returning its chunk: {error}"
                ) from error
            if progress is not None:
                progress(len(chunk))
        return results


@dataclass
class CampaignRun:
    """What one executor run produced, in job order."""

    outcomes: list
    #: ``True`` for jobs this run executed, ``False`` for loaded ones.
    executed: np.ndarray
    #: Processes the jobs ran in (1 for the serial path and for a run with
    #: nothing pending).
    workers: int
    wall: float
    #: Merged coordinator and worker telemetry when the run was traced;
    #: ``None`` otherwise.
    telemetry: "TelemetryReport | None"


@dataclass
class CampaignExecutor:
    """How a batch runner executes its jobs: fan-out, run store and tracing.

    The fields are the runners' parameters of the same names; a ``trace``
    of ``None`` follows the process-wide tracing switch at run time, and a
    ``progress`` of ``None`` shows the progress line only on a terminal.
    """

    workers: int = 1
    store: "RunStore | str | None" = None
    resume: bool = False
    interrupt_after: "int | None" = None
    trace: "bool | None" = None
    progress: "bool | None" = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.interrupt_after is not None and self.interrupt_after < 0:
            raise ValueError("interrupt_after must be non-negative")
        self.workers = int(self.workers)
        self.store = as_run_store(self.store)
        self.resume = bool(self.resume)
        if self.resume and self.store is None:
            raise SweepError("resume=True needs a store to resume from")
        if self.interrupt_after is not None and self.store is None:
            raise SweepError("interrupt_after without a store would lose all work")

    def run(self, engine, jobs: Sequence) -> CampaignRun:
        """Execute every job through ``engine``, serially or across a pool.

        The run store is resolved here, before any fan-out; only the jobs
        it does not serve are chunked and executed.
        """
        plan = replace(
            self, trace=tracing_enabled() if self.trace is None else bool(self.trace)
        )
        reporter = ProgressReporter(len(jobs), engine.UNITS, enabled=self.progress)
        advance = reporter.advance if reporter.active else None
        start = _time.perf_counter()
        try:
            (outcomes, keys, inputs), resolved = _traced(
                plan, _resolve, plan, engine, jobs
            )
            pending = [i for i, outcome in enumerate(outcomes) if outcome is None]
            if advance is not None:
                advance(len(jobs) - len(pending))
            work = [(jobs[i], keys[i], inputs[i]) for i in pending]
            chunks = None
            if self.workers > 1 and len(work) > 1:
                chunks = map_scenario_chunks(
                    _run_chunk, (plan, engine), work, self.workers, advance
                )
            if chunks is None:
                chunks = [_run_chunk(((plan, engine), work), advance)] if work else []
        finally:
            reporter.finish()
        wall = _time.perf_counter() - start
        fresh = [outcome for chunk in chunks for outcome in chunk["outcomes"]]
        for position, outcome in zip(pending, fresh):
            outcomes[position] = outcome
        executed = np.zeros(len(jobs), dtype=bool)
        executed[pending] = True
        workers = max(len(chunks), 1)
        telemetry = None
        if plan.trace:
            latencies = [engine.latency(outcome) for outcome in fresh]
            telemetry = TelemetryReport.merge(
                engine.ENGINE,
                [resolved, *(chunk["telemetry"] for chunk in chunks)],
                scenarios=len(jobs),
                executed=len(pending),
                wall=wall,
                workers=workers,
                latencies=[seconds for seconds in latencies if seconds is not None],
            )
        return CampaignRun(outcomes, executed, workers, wall, telemetry)


def _traced(plan: CampaignExecutor, function: Callable, *args) -> tuple:
    """``(function(*args), payload)``: the payload is this process's
    telemetry of the call when the plan traces (switching the tracer on
    for it if needed), else ``None``."""
    if not plan.trace:
        return function(*args), None
    enabled_here = not TRACER.enabled
    if enabled_here:
        enable_tracing()
    mark = TRACER.mark()
    try:
        result = function(*args)
    finally:
        if enabled_here:
            disable_tracing()
    return result, TRACER.collect(mark)


def _resolve(plan: CampaignExecutor, engine, jobs: Sequence) -> tuple[list, list, list]:
    """Per job: the committed outcome (``None`` = pending), store key and
    store inputs; keys and inputs are ``None`` without a store, and
    outcomes are loaded only on ``resume``."""
    store = plan.store
    outcomes: list = [None] * len(jobs)
    if store is None:
        return outcomes, [None] * len(jobs), [None] * len(jobs)
    inputs = [engine.store_inputs(job) for job in jobs]
    keys = [store.key(job_inputs) for job_inputs in inputs]
    if plan.resume:
        # One pass: each block the records share is read and decoded once.
        blocks: dict = {}
        for position, key in enumerate(keys):
            record = store.load(key, blocks)
            try:
                if record is not None:
                    outcomes[position] = engine.decode(record)
            except (KeyError, TypeError, ValueError, PlatformError) as error:
                raise StoreError(
                    f"malformed store record {store.path_for(key)}: {error}"
                ) from error
    return outcomes, keys, inputs


def _run_chunk(
    payload: "tuple[tuple[CampaignExecutor, object], Sequence[tuple]]",
    progress: "Callable[[int], None] | None" = None,
) -> dict:
    """Execute and commit one contiguous chunk of pending jobs (worker entry point).

    The chunk holds one ``(job, key, inputs)`` per job.  The serial path
    calls it with every pending job and may pass a ``progress`` callback;
    pool submissions never do, keeping the payload a plain picklable tuple.
    """
    (plan, engine), work = payload
    outcomes, telemetry = _traced(plan, _execute, plan, engine, work, progress)
    return {"outcomes": outcomes, "telemetry": telemetry}


def _execute(
    plan: CampaignExecutor,
    engine,
    work: Sequence[tuple],
    progress: "Callable[[int], None] | None",
) -> list:
    store = plan.store
    outcomes: list = [None] * len(work)
    budget = list(range(len(work)))[: plan.interrupt_after]
    for position, outcome in engine.execute([job for job, _, _ in work], budget):
        if store is not None:
            _, key, inputs = work[position]
            store.commit(key, engine.encode(outcome), inputs=inputs)
        outcomes[position] = outcome
        if progress is not None:
            progress(1)
    if len(budget) < len(work):
        raise CampaignInterrupted(
            f"worker interrupted after executing {len(budget)} "
            f"scenario(s); {len(store)} record(s) committed"
        )
    return outcomes
